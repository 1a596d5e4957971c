// The simulated datacenter fabric: one cut-through switch, one link per host,
// IP multicast groups, and hooks for loss and fault injection (the chaos
// harness drives partitions, asymmetric link cuts, extra delay and frame
// reordering through this class).
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/net/host.h"
#include "src/net/packet.h"
#include "src/sim/cost_model.h"
#include "src/sim/simulator.h"

namespace hovercraft {

class Network {
 public:
  Network(Simulator* sim, uint64_t seed);

  // Registers a host and assigns its id. The network does not own hosts.
  HostId Attach(Host* host);

  // Creates a multicast group; packets addressed to it are replicated to all
  // members except the sender.
  Addr CreateMulticastGroup(std::vector<HostId> members);

  const std::vector<HostId>& GroupMembers(Addr group) const;

  // Rewrites a multicast group's membership in place (dynamic membership:
  // the switch joins/leaves replicas on committed config changes). Packets
  // already in flight toward the group were fanned out under the old
  // membership and are unaffected.
  void SetGroupMembers(Addr group, std::vector<HostId> members);

  // Entry point used by Host::Send once the packet leaves the NIC. Takes the
  // packet by value: callers hand over their MessagePtr reference and the
  // fabric moves it through the switch hop without refcount churn.
  void Transmit(Packet packet);

  // Uniform per-frame loss probability (a message is lost if any of its
  // frames is). Applied independently per destination, so multicast can
  // reach a subset of the group — the case HovercRaft's recovery handles.
  void set_loss_probability(double p) { loss_probability_ = p; }

  // Arbitrary drop filter for targeted failure injection in tests. Returning
  // true drops the copy headed to `dst`.
  using DropFilter = std::function<bool(const Packet&, HostId dst)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  // --- fault injection (nemesis hooks) -------------------------------------
  // All faults act per delivered *copy*: a multicast message fanned out to k
  // destinations is k copies, and each copy is independently subject to
  // partitions, link cuts, loss, delay and reordering.

  // Symmetric partition: hosts listed in groups[i] join partition i+1; every
  // unlisted host (clients, middleboxes, ...) stays in partition 0. Copies
  // between different partitions are dropped. An empty vector heals.
  void SetPartitions(const std::vector<std::vector<HostId>>& groups);
  void HealPartitions() { SetPartitions({}); }
  bool Partitioned(HostId a, HostId b) const;

  // Asymmetric link cut: every copy src -> dst is dropped; the reverse
  // direction is unaffected.
  void BlockLink(HostId src, HostId dst);
  void UnblockLink(HostId src, HostId dst);

  // Extra one-way propagation delay on the link src -> dst (0 clears).
  void SetLinkDelay(HostId src, HostId dst, TimeNs extra);

  // Random reordering: each copy is independently held back by a uniform
  // extra delay in [0, max_extra] with the given probability, so copies sent
  // back-to-back can overtake each other. probability 0 disables.
  void SetReorder(double probability, TimeNs max_extra);

  // Clears partitions, link cuts, link delays and reordering (not the loss
  // probability or the drop filter, which tests manage directly).
  void ClearFaults();

  // Message-copy accounting. Both counters are per-copy: a multicast whose
  // fan-out is k contributes up to k to delivered + dropped combined.
  uint64_t delivered_msgs() const { return delivered_msgs_; }
  uint64_t dropped_msgs() const { return dropped_msgs_; }
  // Subset of dropped_msgs() dropped by partitions or link cuts.
  uint64_t dropped_by_fault() const { return dropped_by_fault_; }

  Host* host(HostId id) const { return hosts_[static_cast<size_t>(id)]; }
  size_t host_count() const { return hosts_.size(); }

 private:
  void DeliverCopy(const Packet& packet, HostId dst);
  void RecordDrop(HostId src, HostId dst, obs::FrDropCause cause);
  static uint64_t LinkKey(HostId src, HostId dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint32_t>(dst);
  }
  int32_t PartitionOf(HostId id) const;

  Simulator* sim_;
  Rng rng_;
  std::vector<Host*> hosts_;
  std::vector<std::vector<HostId>> groups_;
  double loss_probability_ = 0.0;
  DropFilter drop_filter_;

  // Fault state. partition_of_ may be shorter than hosts_ (late attaches
  // default to partition 0).
  std::vector<int32_t> partition_of_;
  std::unordered_set<uint64_t> blocked_links_;
  std::unordered_map<uint64_t, TimeNs> link_delay_;
  double reorder_probability_ = 0.0;
  TimeNs reorder_max_extra_ = 0;

  uint64_t delivered_msgs_ = 0;
  uint64_t dropped_msgs_ = 0;
  uint64_t dropped_by_fault_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_NET_NETWORK_H_
