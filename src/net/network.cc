#include "src/net/network.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace hovercraft {

Network::Network(Simulator* sim, uint64_t seed) : sim_(sim), rng_(seed) {
  HC_CHECK(sim != nullptr);
}

HostId Network::Attach(Host* host) {
  HC_CHECK(host != nullptr);
  const HostId id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(host);
  host->AttachTo(this, id);
  return id;
}

Addr Network::CreateMulticastGroup(std::vector<HostId> members) {
  for (HostId m : members) {
    HC_CHECK_GE(m, 0);
    HC_CHECK_LT(static_cast<size_t>(m), hosts_.size());
  }
  groups_.push_back(std::move(members));
  return MulticastAddr(static_cast<int32_t>(groups_.size()) - 1);
}

const std::vector<HostId>& Network::GroupMembers(Addr group) const {
  HC_CHECK(IsMulticastAddr(group));
  const size_t idx = static_cast<size_t>(MulticastGroupOf(group));
  HC_CHECK_LT(idx, groups_.size());
  return groups_[idx];
}

void Network::SetGroupMembers(Addr group, std::vector<HostId> members) {
  HC_CHECK(IsMulticastAddr(group));
  const size_t idx = static_cast<size_t>(MulticastGroupOf(group));
  HC_CHECK_LT(idx, groups_.size());
  for (HostId m : members) {
    HC_CHECK_GE(m, 0);
    HC_CHECK_LT(static_cast<size_t>(m), hosts_.size());
  }
  groups_[idx] = std::move(members);
}

void Network::SetPartitions(const std::vector<std::vector<HostId>>& groups) {
  partition_of_.assign(hosts_.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (HostId id : groups[g]) {
      HC_CHECK_GE(id, 0);
      HC_CHECK_LT(static_cast<size_t>(id), hosts_.size());
      partition_of_[static_cast<size_t>(id)] = static_cast<int32_t>(g) + 1;
    }
  }
}

int32_t Network::PartitionOf(HostId id) const {
  const size_t idx = static_cast<size_t>(id);
  return idx < partition_of_.size() ? partition_of_[idx] : 0;
}

bool Network::Partitioned(HostId a, HostId b) const {
  return PartitionOf(a) != PartitionOf(b);
}

void Network::BlockLink(HostId src, HostId dst) { blocked_links_.insert(LinkKey(src, dst)); }

void Network::UnblockLink(HostId src, HostId dst) { blocked_links_.erase(LinkKey(src, dst)); }

void Network::SetLinkDelay(HostId src, HostId dst, TimeNs extra) {
  if (extra > 0) {
    link_delay_[LinkKey(src, dst)] = extra;
  } else {
    link_delay_.erase(LinkKey(src, dst));
  }
}

void Network::SetReorder(double probability, TimeNs max_extra) {
  HC_CHECK_GE(probability, 0.0);
  HC_CHECK_GE(max_extra, 0);
  reorder_probability_ = probability;
  reorder_max_extra_ = max_extra;
}

void Network::ClearFaults() {
  partition_of_.clear();
  blocked_links_.clear();
  link_delay_.clear();
  reorder_probability_ = 0.0;
  reorder_max_extra_ = 0;
}

void Network::Transmit(Packet packet) {
  // Packet reaches the switch after one link propagation, is forwarded after
  // the cut-through latency, and fans out to each destination port.
  // Ownership rule: the packet (and its MessagePtr reference) is moved into
  // the switch-hop event; per-destination references are only taken at
  // DeliverCopy fan-out.
  const TimeNs at_switch =
      sim_->Now() + CostModel::kLinkPropagationNs + CostModel::kSwitchLatencyNs;
  sim_->At(at_switch, [this, packet = std::move(packet)]() {
    if (IsMulticastAddr(packet.dst)) {
      for (HostId member : GroupMembers(packet.dst)) {
        if (member != packet.src) {
          DeliverCopy(packet, member);
        }
      }
    } else {
      DeliverCopy(packet, packet.dst);
    }
  });
}

void Network::DeliverCopy(const Packet& packet, HostId dst) {
  HC_CHECK_GE(dst, 0);
  HC_CHECK_LT(static_cast<size_t>(dst), hosts_.size());
  // Drop and deliver counters are per logical message copy: a coalesced
  // BatchMsg counts as its member count, so the fabric totals are invariant
  // under batching. A multicast message suppressed for k of its destinations
  // still adds k to dropped_msgs_.
  const BatchMsg* batch = As<BatchMsg>(*packet.msg);
  const uint64_t logical = batch != nullptr
                               ? static_cast<uint64_t>(batch->messages().size())
                               : 1;
  if (Partitioned(packet.src, dst) ||
      blocked_links_.count(LinkKey(packet.src, dst)) != 0) {
    dropped_msgs_ += logical;
    dropped_by_fault_ += logical;
    RecordDrop(packet.src, dst, obs::FrDropCause::kFault);
    return;
  }
  MessagePtr to_deliver = packet.msg;
  if (drop_filter_) {
    if (batch != nullptr) {
      // Targeted filters match logical messages, so each member faces the
      // filter individually; survivors travel on in a rebuilt batch. A
      // physical frame loss, by contrast, takes the whole batch (below).
      std::vector<MessagePtr> kept;
      kept.reserve(batch->messages().size());
      for (const MessagePtr& m : batch->messages()) {
        const Packet member{packet.src, packet.dst, m};
        if (drop_filter_(member, dst)) {
          ++dropped_msgs_;
          RecordDrop(packet.src, dst, obs::FrDropCause::kFilter);
        } else {
          kept.push_back(m);
        }
      }
      if (kept.empty()) {
        return;
      }
      if (kept.size() != batch->messages().size()) {
        to_deliver = kept.size() == 1
                         ? std::move(kept[0])
                         : MakeMessage<BatchMsg>(std::move(kept));
      }
    } else if (drop_filter_(packet, dst)) {
      ++dropped_msgs_;
      RecordDrop(packet.src, dst, obs::FrDropCause::kFilter);
      return;
    }
  }
  const BatchMsg* surviving_batch = As<BatchMsg>(*to_deliver);
  const uint64_t delivering =
      surviving_batch != nullptr
          ? static_cast<uint64_t>(surviving_batch->messages().size())
          : 1;
  if (loss_probability_ > 0.0) {
    // A message survives only if every frame does; a batch is one frame, so
    // losing it loses every member.
    const int32_t frames = CostModel::FramesFor(to_deliver->PayloadBytes());
    for (int32_t i = 0; i < frames; ++i) {
      if (rng_.NextBool(loss_probability_)) {
        dropped_msgs_ += delivering;
        RecordDrop(packet.src, dst, obs::FrDropCause::kLoss);
        return;
      }
    }
  }
  delivered_msgs_ += delivering;
  TimeNs delay = CostModel::kLinkPropagationNs;
  if (!link_delay_.empty()) {
    auto it = link_delay_.find(LinkKey(packet.src, dst));
    if (it != link_delay_.end()) {
      delay += it->second;
    }
  }
  if (reorder_probability_ > 0.0 && reorder_max_extra_ > 0 &&
      rng_.NextBool(reorder_probability_)) {
    delay += static_cast<TimeNs>(
        rng_.NextBelow(static_cast<uint64_t>(reorder_max_extra_) + 1));
  }
  Host* host = hosts_[static_cast<size_t>(dst)];
  // Ownership rule: each delivered copy takes its own MessagePtr reference —
  // a multicast packet fans out to k destinations that outlive the switch
  // event independently, so this per-copy refcount bump is semantically
  // required (receivers share the immutable message, never the packet).
  // `to_deliver` is usually that shared reference; when a drop filter thinned
  // a batch, it is this destination's private rebuilt frame.
  sim_->After(delay,
              [host, src = packet.src, msg = std::move(to_deliver)]() { host->Receive(src, msg); });
}

void Network::RecordDrop(HostId src, HostId dst, obs::FrDropCause cause) {
  if (auto* fr = obs::FrOf(sim_)) {
    fr->Record(sim_->Now(), kInvalidNode, obs::FrType::kDrop, static_cast<uint64_t>(src),
               static_cast<uint64_t>(dst), static_cast<uint32_t>(cause));
  }
}

}  // namespace hovercraft
