#include "src/net/host.h"

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/net/network.h"

namespace hovercraft {
namespace {

// Adds one physical frame's wire bytes to the per-kind totals: each batch
// member is charged its payload plus sub-header under its own kind, and the
// rest of the frame (the framing) under the frame's kind — kBatch for a batch
// — so the per-kind sums telescope to the wire-byte totals exactly.
void AttributeWireBytes(const Message& frame, int64_t wire_bytes,
                        std::array<uint64_t, kMessageKindCount>& by_kind) {
  if (const auto* batch = As<BatchMsg>(frame)) {
    for (const MessagePtr& m : batch->messages()) {
      const int64_t slot = m->PayloadBytes() + BatchMsg::kPerMessageHeaderBytes;
      by_kind[KindIndex(m->kind())] += static_cast<uint64_t>(slot);
      wire_bytes -= slot;
    }
  }
  by_kind[KindIndex(frame.kind())] += static_cast<uint64_t>(wire_bytes);
}

}  // namespace

Host::Host(Simulator* sim, const CostModel& costs, Kind kind)
    : sim_(sim), costs_(costs), kind_(kind), net_thread_(sim), nic_tx_(sim) {
  HC_CHECK(sim != nullptr);
}

void Host::set_failed(bool failed) {
  failed_ = failed;
  if (failed_) {
    // Fail-stop: messages still coalescing never reached the NIC. Cancel the
    // doorbells so a dead host schedules nothing further.
    for (auto& [dst, batch] : tx_batches_) {
      if (batch.flush_event != kInvalidEvent) {
        sim_->Cancel(batch.flush_event);
        batch.flush_event = kInvalidEvent;
      }
      batch.msgs.clear();
      batch.bytes = 0;
      batch.extra_cpu = 0;
    }
  }
}

void Host::Send(Addr dst, MessagePtr msg, TimeNs extra_cpu) {
  HC_CHECK(network_ != nullptr);
  HC_CHECK(msg != nullptr);
  if (failed_) {
    return;
  }
  // Logical accounting happens at send time regardless of coalescing.
  const int32_t bytes = msg->PayloadBytes();
  counters_.tx_msgs++;
  counters_.tx_frames += static_cast<uint64_t>(costs_.FramesFor(bytes));
  counters_.tx_payload_bytes += static_cast<uint64_t>(bytes);

  if (costs_.tx_batching) {
    if (bytes <= CostModel::kTxBatchSmallBytes) {
      EnqueueBatched(dst, std::move(msg), extra_cpu);
      return;
    }
    // An unbatched message must not overtake small messages already
    // coalescing toward the same destination: flush them first so
    // per-destination send order stays FIFO.
    FlushBatch(dst);
  }
  TransmitPacket(Packet{id_, dst, std::move(msg)}, extra_cpu);
}

void Host::EnqueueBatched(Addr dst, MessagePtr msg, TimeNs extra_cpu) {
  TxBatch& batch = tx_batches_[dst];
  const int64_t slot = msg->PayloadBytes() + BatchMsg::kPerMessageHeaderBytes;
  // A batch frame never exceeds one MTU payload: flush what is queued before
  // a message that would overflow it.
  if (!batch.msgs.empty() && batch.bytes + slot > CostModel::kMtuPayloadBytes) {
    FlushBatch(dst);
  }
  batch.msgs.push_back(std::move(msg));
  batch.bytes += slot;
  batch.extra_cpu += extra_cpu;
  if (static_cast<int32_t>(batch.msgs.size()) >= CostModel::kTxBatchMaxMsgs) {
    FlushBatch(dst);
    return;
  }
  if (batch.flush_event == kInvalidEvent) {
    // Doorbell: with delay 0 this still runs after every event of the
    // current simulated instant, coalescing all sends issued within it.
    batch.flush_event =
        sim_->After(costs_.tx_batch_delay_ns, [this, dst]() { FlushBatch(dst); });
  }
}

void Host::FlushBatch(Addr dst) {
  auto it = tx_batches_.find(dst);
  if (it == tx_batches_.end()) {
    return;
  }
  TxBatch& batch = it->second;
  if (batch.flush_event != kInvalidEvent) {
    sim_->Cancel(batch.flush_event);  // no-op when called from the doorbell itself
    batch.flush_event = kInvalidEvent;
  }
  if (batch.msgs.empty()) {
    return;
  }
  std::vector<MessagePtr> msgs = std::move(batch.msgs);
  const TimeNs extra_cpu = batch.extra_cpu;
  batch.msgs.clear();
  batch.bytes = 0;
  batch.extra_cpu = 0;
  // A lone message goes out unwrapped — the sub-header tax is only paid when
  // there is actual company.
  MessagePtr out = msgs.size() == 1 ? std::move(msgs[0])
                                    : MakeMessage<BatchMsg>(std::move(msgs));
  TransmitPacket(Packet{id_, dst, std::move(out)}, extra_cpu);
}

void Host::TransmitPacket(Packet packet, TimeNs extra_cpu) {
  const int32_t bytes = packet.msg->PayloadBytes();
  counters_.tx_physical_frames += static_cast<uint64_t>(costs_.FramesFor(bytes));
  const int64_t wire_bytes = costs_.WireBytesFor(bytes);
  counters_.tx_wire_bytes += static_cast<uint64_t>(wire_bytes);
  if (packet.msg->kind() == MessageKind::kBatch) {
    counters_.tx_batches++;
  }
  AttributeWireBytes(*packet.msg, wire_bytes, counters_.tx_wire_bytes_by_kind);

  if (kind_ == Kind::kDevice) {
    // Line-rate device: no CPU queueing; the pipeline latency is paid on the
    // receive side, so transmission is immediate.
    network_->Transmit(std::move(packet));
    return;
  }
  // Net thread builds the message, then the NIC serializes it on the wire.
  RecordBusy(obs::FrResource::kNet, net_thread_, costs_.TxCpu(bytes) + extra_cpu);
  // Ownership rule: the packet's MessagePtr reference is moved down the TX
  // pipeline — net thread, then NIC, then fabric — never copied. The lambdas
  // are mutable solely to allow that handoff.
  auto build = [this, packet = std::move(packet), bytes]() mutable {
    if (failed_) {
      return;
    }
    RecordBusy(obs::FrResource::kNic, nic_tx_, costs_.SerializationDelay(bytes));
    auto serialize = [this, packet = std::move(packet)]() mutable {
      if (!failed_) {
        network_->Transmit(std::move(packet));
      }
    };
    static_assert(Simulator::Callback::kFits<decltype(serialize)>);
    nic_tx_.Submit(costs_.SerializationDelay(bytes), std::move(serialize));
  };
  static_assert(Simulator::Callback::kFits<decltype(build)>);
  net_thread_.Submit(costs_.TxCpu(bytes) + extra_cpu, std::move(build));
}

void Host::Receive(HostId src, MessagePtr msg) {
  if (failed_) {
    return;
  }
  const int32_t bytes = msg->PayloadBytes();
  counters_.rx_physical_frames += static_cast<uint64_t>(costs_.FramesFor(bytes));
  const int64_t wire_bytes = costs_.WireBytesFor(bytes);
  counters_.rx_wire_bytes += static_cast<uint64_t>(wire_bytes);
  AttributeWireBytes(*msg, wire_bytes, counters_.rx_wire_bytes_by_kind);
  const auto count_logical = [this](const Message& m) {
    const int32_t b = m.PayloadBytes();
    counters_.rx_msgs++;
    counters_.rx_frames += static_cast<uint64_t>(costs_.FramesFor(b));
    counters_.rx_payload_bytes += static_cast<uint64_t>(b);
  };
  if (const auto* batch = As<BatchMsg>(*msg)) {
    counters_.rx_batches++;
    for (const MessagePtr& m : batch->messages()) {
      count_logical(*m);
    }
  } else {
    count_logical(*msg);
  }

  if (kind_ == Kind::kDevice) {
    // Fixed pipeline latency, unbounded parallelism (the ASIC runs at line
    // rate regardless of message rate).
    sim_->After(CostModel::kAggregatorLatencyNs, [this, src, msg = std::move(msg)]() {
      if (!failed_) {
        DeliverFrame(src, msg);
      }
    });
    return;
  }
  RecordBusy(obs::FrResource::kNet, net_thread_, costs_.RxCpu(bytes));
  // One RxCpu charge for the whole frame — the batch's per-frame saving —
  // then the members dispatch in queue order within the same event.
  auto deliver = [this, src, msg = std::move(msg)]() {
    if (!failed_) {
      DeliverFrame(src, msg);
    }
  };
  static_assert(Simulator::Callback::kFits<decltype(deliver)>);
  net_thread_.Submit(costs_.RxCpu(bytes), std::move(deliver));
}

void Host::DeliverFrame(HostId src, const MessagePtr& msg) {
  if (const auto* batch = As<BatchMsg>(*msg)) {
    for (const MessagePtr& m : batch->messages()) {
      HandleMessage(src, m);
    }
  } else {
    HandleMessage(src, msg);
  }
}

}  // namespace hovercraft
