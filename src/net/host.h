// A host attached to the simulated fabric.
//
// Server hosts follow the paper's two-thread model (section 6): a polling
// *net thread* runs R2P2 + consensus and pays per-frame/per-byte CPU costs,
// while an *app thread* executes state-machine operations. In-network
// devices (the aggregator, the flow-control middlebox) instead process at
// line rate with a fixed pipeline latency.
#ifndef SRC_NET_HOST_H_
#define SRC_NET_HOST_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/net/packet.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/cost_model.h"
#include "src/sim/serial_resource.h"
#include "src/sim/simulator.h"

namespace hovercraft {

class Network;

// Logical counters (tx_msgs/rx_msgs, *_frames, *_payload_bytes) count the
// typed protocol messages the endpoints exchange; a coalesced BatchMsg
// contributes its members, never itself. Physical counters
// (*_physical_frames, *_batches, *_wire_bytes*) count what actually crosses
// the link: a batch is one frame, wire bytes include per-frame framing and
// per-member sub-headers, and the batch's own overhead is attributed to the
// kBatch slot so the per-kind wire-byte sums telescope to the totals exactly.
// With batching off, physical frames == logical frames.
struct NetCounters {
  uint64_t tx_msgs = 0;
  uint64_t rx_msgs = 0;
  uint64_t tx_frames = 0;
  uint64_t rx_frames = 0;
  uint64_t tx_payload_bytes = 0;
  uint64_t rx_payload_bytes = 0;
  uint64_t tx_physical_frames = 0;
  uint64_t rx_physical_frames = 0;
  uint64_t tx_batches = 0;
  uint64_t rx_batches = 0;
  uint64_t tx_wire_bytes = 0;
  uint64_t rx_wire_bytes = 0;
  // Wire bytes per MessageKind, indexed by KindIndex().
  std::array<uint64_t, kMessageKindCount> tx_wire_bytes_by_kind{};
  std::array<uint64_t, kMessageKindCount> rx_wire_bytes_by_kind{};

  void Clear() { *this = NetCounters(); }
};

class Host {
 public:
  enum class Kind {
    kServer,  // CPU model: serial net thread + NIC serialization
    kDevice,  // line-rate device: fixed pipeline latency, no CPU queueing
  };

  Host(Simulator* sim, const CostModel& costs, Kind kind);
  virtual ~Host() = default;
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // Invoked by Network after the receive path completes.
  virtual void HandleMessage(HostId src, const MessagePtr& msg) = 0;

  // Sends `msg` to `dst` (unicast host or multicast group). On a server this
  // charges net-thread TX CPU (plus `extra_cpu` of protocol processing, e.g.
  // building an append_entries), then NIC serialization, then hands the
  // packet to the fabric; on a device it leaves after the pipeline latency.
  void Send(Addr dst, MessagePtr msg, TimeNs extra_cpu = 0);

  // Called by Network when a packet arrives at this host's NIC.
  void Receive(HostId src, MessagePtr msg);

  // A failed host neither sends nor receives. Used for crash injection;
  // subclasses extend it to halt their own timers (fail-stop semantics).
  // Failing discards any messages still coalescing in TX batch queues — they
  // never reached the NIC.
  virtual void set_failed(bool failed);
  bool failed() const { return failed_; }

  HostId id() const { return id_; }
  Kind kind() const { return kind_; }
  Simulator* sim() const { return sim_; }
  const CostModel& costs() const { return costs_; }
  const NetCounters& counters() const { return counters_; }
  NetCounters& counters() { return counters_; }
  SerialResource& net_thread() { return net_thread_; }
  SerialResource& nic_tx() { return nic_tx_; }

  // Called by Network::Attach.
  void AttachTo(Network* network, HostId id) {
    network_ = network;
    id_ = id;
  }

 protected:
  Network* network() const { return network_; }

  // Flight-recorder ring for this host's busy intervals: a server sets its
  // Raft node's obs id; clients and middleboxes stay on the cluster ring.
  void set_obs_node(NodeId node) { obs_node_ = node; }
  // Records a kBusy span of `resource` about to be submitted with `cost`:
  // it starts once the resource frees, [max(now, busy_until), + cost].
  void RecordBusy(obs::FrResource resource, const SerialResource& on, TimeNs cost) const {
    if (obs::FlightRecorder* fr = obs::FrOf(sim_)) {
      const TimeNs now = sim_->Now();
      fr->Record(now, obs_node_, obs::FrType::kBusy,
                 static_cast<uint64_t>(std::max(now, on.busy_until())),
                 static_cast<uint64_t>(cost),
                 static_cast<uint32_t>(resource) | static_cast<uint32_t>(id_) << 8);
    }
  }

 private:
  // One coalescing queue per destination address (unicast or multicast —
  // fan-out of a batched frame happens in the fabric, like any frame).
  struct TxBatch {
    std::vector<MessagePtr> msgs;
    int64_t bytes = 0;        // payload + per-member sub-headers
    TimeNs extra_cpu = 0;     // summed protocol CPU of the queued messages
    EventId flush_event = kInvalidEvent;
  };

  // Hands a received frame to HandleMessage: a batch member by member, in
  // queue order.
  void DeliverFrame(HostId src, const MessagePtr& msg);
  void EnqueueBatched(Addr dst, MessagePtr msg, TimeNs extra_cpu);
  void FlushBatch(Addr dst);
  // Physical transmission: charges TX CPU + NIC serialization (servers) or
  // leaves immediately (devices), and does the physical-frame accounting.
  void TransmitPacket(Packet packet, TimeNs extra_cpu);

  Simulator* sim_;
  const CostModel& costs_;
  Kind kind_;
  Network* network_ = nullptr;
  HostId id_ = kInvalidHost;
  NodeId obs_node_ = kInvalidNode;
  bool failed_ = false;
  SerialResource net_thread_;
  SerialResource nic_tx_;
  NetCounters counters_;
  std::unordered_map<Addr, TxBatch> tx_batches_;
};

}  // namespace hovercraft

#endif  // SRC_NET_HOST_H_
