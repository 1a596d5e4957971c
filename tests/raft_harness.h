// The Raft test harness: RaftNode driven without its server.
//
// N nodes share one simulator, the test's network and clock. Each runs on a
// zero-latency disk (every barrier completes inline, with no events) and
// keeps a real UnorderedStore as its unordered set. Every message goes
// through RaftNode::OnMessage under one delivery rule: a fixed hop, or a
// seeded random delay and loss. Either way a message sent by a down node, or
// arriving at one, is lost, and a test's drop_filter may drop any other.
// Timers fire through RaftNode::OnTimer, on the simulator or at once by
// FireTimer. After every delivery and timer firing the harness checks
// election safety (no term ever has two leaders) and leader completeness (a
// node that first leads a term holds every entry committed so far);
// CheckSafety() checks log matching, state machine safety and the leaders'
// progress records on demand.
//
// A scripted scenario (tests/raft_node_test.cc) lets node 0 win the first
// election, then drops, crashes and injects what its schedule needs between
// Run() steps. A schedule explorer (tests/schedule_fuzz_test.cc) uses the
// random delivery rule and drives the harness's Rng.
#ifndef TESTS_RAFT_HARNESS_H_
#define TESTS_RAFT_HARNESS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/random.h"
#include "src/raft/node.h"
#include "src/raft/unordered_store.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {

class RaftHarness {
 public:
  // A node's host. Its state machine is the sequence of applied request ids,
  // applied as soon as an entry commits.
  class Env final : public RaftNode::Env {
   public:
    Env(RaftHarness* harness, NodeId self) : harness_(harness), self_(self) {}

    TimeNs Now() const override { return harness_->sim.Now(); }
    void ArmTimer(RaftTimer timer, TimeNs delay) override {
      EventId& id = timers_[static_cast<size_t>(timer)];
      harness_->sim.Cancel(id);
      id = harness_->sim.After(delay, [this, timer]() { harness_->FireTimer(self_, timer); });
    }
    void CancelTimer(RaftTimer timer) override {
      EventId& id = timers_[static_cast<size_t>(timer)];
      harness_->sim.Cancel(id);
      id = kInvalidEvent;
    }
    void SendToPeer(NodeId peer, MessagePtr msg) override {
      harness_->Send(self_, peer, std::move(msg));
    }
    void SendToAggregator(MessagePtr /*msg*/) override {}
    SnapshotCapture CaptureSnapshot() override {
      BufferWriter w;
      w.PutU64(applied_rids.size());
      for (const RequestId& rid : applied_rids) {
        w.PutU32(static_cast<uint32_t>(rid.client));
        w.PutU64(rid.seq);
      }
      return SnapshotCapture{MakeBody(w.TakeBytes()), applied_};
    }
    void RestoreSnapshot(const Body& state, LogIndex last_included, Term /*included_term*/,
                         MembershipConfigPtr /*config*/, LogIndex /*config_idx*/) override {
      BufferReader r(*state);
      uint64_t count = 0;
      HC_CHECK(r.GetU64(count).ok());
      applied_rids.clear();
      for (uint64_t i = 0; i < count; ++i) {
        uint32_t client = 0;
        uint64_t seq = 0;
        HC_CHECK(r.GetU32(client).ok());
        HC_CHECK(r.GetU64(seq).ok());
        applied_rids.push_back(RequestId{static_cast<HostId>(client), seq});
      }
      applied_ = std::max<LogIndex>(applied_, last_included);
      ++snapshots_restored;
    }
    void OnCommitAdvanced(LogIndex commit) override {
      harness_->commit_watermark_ = std::max(harness_->commit_watermark_, commit);
      RaftNode& node = harness_->node(self_);
      while (applied_ < commit) {
        ++applied_;
        const LogEntry& e = node.log().At(applied_);
        applied_at[applied_] = Applied{e.term, e.rid, e.request};
        harness_->committed_.emplace(applied_, e.term);
        if (!e.noop) {
          applied_rids.push_back(e.rid);
        }
        node.OnApplied(applied_);
      }
    }
    void OnLeadershipChanged(bool /*is_leader*/) override {}
    void OnConfigCommitted(const MembershipConfig& /*config*/, LogIndex /*idx*/) override {}
    void DrainUnorderedIntoLog() override {
      RaftNode& node = harness_->node(self_);
      unordered.Drain([&node](std::shared_ptr<const RpcRequest> req) {
        node.SubmitRequest(std::move(req));
      });
    }

    // The client multicast reached this node: park `request` in its set.
    void AddUnordered(std::shared_ptr<const RpcRequest> request) {
      unordered.Insert(std::move(request), harness_->sim.Now());
    }

    // What this node applied at each index: the entry's term, rid and body.
    struct Applied {
      Term term = 0;
      RequestId rid;
      std::shared_ptr<const RpcRequest> request;
    };
    UnorderedStore unordered;
    std::map<LogIndex, Applied> applied_at;
    // The rids of the non-noop entries applied, in order; a snapshot restores
    // the sender's.
    std::vector<RequestId> applied_rids;
    uint64_t snapshots_restored = 0;

   private:
    RaftHarness* harness_;
    NodeId self_;
    LogIndex applied_ = 0;
    EventId timers_[2] = {kInvalidEvent, kInvalidEvent};  // by RaftTimer
  };

  // How a message travels. With max_delay == 0 it takes one 2 us hop;
  // otherwise it is lost with drop_probability, else delayed by 1 us plus a
  // draw below max_delay, both drawn from rng.
  struct Delivery {
    TimeNs max_delay = 0;
    double drop_probability = 0.0;
  };

  // Node i runs options_of(i) with its id and cluster size filled in, seeded
  // seed * 31 + i; rng is seeded with `seed`.
  RaftHarness(int32_t n, const std::function<RaftOptions(NodeId)>& options_of, uint64_t seed,
              Delivery rule)
      : rng(seed), delivery(rule), down_(static_cast<size_t>(n), false) {
    for (NodeId i = 0; i < n; ++i) {
      RaftOptions opts = options_of(i);
      opts.id = i;
      opts.cluster_size = n;
      envs_.push_back(std::make_unique<Env>(this, i));
      disks_.push_back(std::make_unique<SimDisk>(&sim, static_cast<uint64_t>(i), 0));
      storages_.push_back(
          std::make_unique<StableStorage>(disks_.back().get(), FsyncPolicy::kGroupCommit));
      nodes_.push_back(std::make_unique<RaftNode>(seed * 31 + static_cast<uint64_t>(i), opts,
                                                  envs_.back().get(), storages_.back().get(),
                                                  &envs_.back()->unordered,
                                                  /*recorder=*/nullptr));
    }
  }

  // Node i runs `base` with its election timeout in [5 + 5i, 7 + 5i] ms, so
  // node 0 wins the first election; messages take the fixed hop.
  explicit RaftHarness(int32_t n, RaftOptions base = RaftOptions{})
      : RaftHarness(
            n,
            [base](NodeId i) {
              RaftOptions opts = base;
              opts.election_timeout_min = Millis(5) + Millis(5) * i;
              opts.election_timeout_max = opts.election_timeout_min + Millis(2);
              return opts;
            },
            /*seed=*/100, Delivery{}) {}

  void StartAll() {
    for (auto& node : nodes_) {
      node->Start();
    }
  }

  void Send(NodeId from, NodeId to, MessagePtr msg) {
    if (down(from) || (drop_filter && drop_filter(from, to, *msg))) {
      return;
    }
    TimeNs delay = Micros(2);
    if (delivery.max_delay > 0) {
      if (rng.NextBool(delivery.drop_probability)) {
        return;
      }
      delay = Micros(1) +
              static_cast<TimeNs>(rng.NextBelow(static_cast<uint64_t>(delivery.max_delay)));
    }
    sim.After(delay, [this, to, msg = std::move(msg)]() {
      if (down(to)) {
        return;
      }
      node(to).OnMessage(*msg, /*via_aggregator=*/false);
      CheckElectionSafety();
    });
  }

  // Fires node n's `timer` now: cancels its pending firing and calls OnTimer.
  void FireTimer(NodeId n, RaftTimer timer) {
    env(n).CancelTimer(timer);
    if (timer == RaftTimer::kHeartbeat && !node(n).IsLeader()) {
      ++idle_heartbeats;
    }
    node(n).OnTimer(timer);
    CheckElectionSafety();
  }

  // Election safety (Raft 5.2): every leader seen so far is the only one of
  // its term. Leader completeness (Raft 5.4): a node first seen leading a
  // term holds every entry any node has committed, except those it compacted.
  void CheckElectionSafety() {
    for (const auto& node : nodes_) {
      if (!node->IsLeader()) {
        continue;
      }
      const auto [it, first] = leader_of_term_.try_emplace(node->term(), node->id());
      ASSERT_EQ(it->second, node->id()) << "two leaders in term " << node->term();
      if (!first) {
        continue;
      }
      const RaftLog& log = node->log();
      for (auto c = committed_.lower_bound(log.first_index()); c != committed_.end(); ++c) {
        ASSERT_TRUE(c->first <= log.last_index() && log.TermAt(c->first) == c->second)
            << "node " << node->id() << ", leader of term " << node->term()
            << ", lacks committed index " << c->first << " of term " << c->second;
      }
    }
  }

  NodeId Leader() const {
    for (const auto& node : nodes_) {
      if (!down(node->id()) && node->IsLeader()) {
        return node->id();
      }
    }
    return kInvalidNode;
  }

  NodeId WaitForLeader(TimeNs deadline = Seconds(5)) {
    while (Leader() == kInvalidNode && sim.Now() < deadline && sim.Step()) {
    }
    return Leader();
  }

  void Run(TimeNs duration) { sim.RunUntil(sim.Now() + duration); }
  // Hands `msg` to node n at once, as if it came from the network.
  void Inject(NodeId n, const Message& msg) { node(n).OnMessage(msg, /*via_aggregator=*/false); }

  // A down node neither sends nor receives; its timers keep running unless
  // it is also halted, as Crash does (Restart resumes it).
  void Kill(NodeId n) { down_[static_cast<size_t>(n)] = true; }
  void Revive(NodeId n) { down_[static_cast<size_t>(n)] = false; }
  bool down(NodeId n) const { return down_[static_cast<size_t>(n)]; }
  void Crash(NodeId n) {
    Kill(n);
    node(n).Halt();
  }
  void Restart(NodeId n) {
    Revive(n);
    node(n).Resume();
  }

  // Log matching (Raft 5.3): where two logs hold entries of one term at an
  // index, they agree on it and on every index below that both still hold.
  // State machine safety (5.4.3): no two nodes applied different entries at
  // one index. Progress records: no node, leading or once leading, records
  // a peer's progress stamp above the peer's own. A stamp of an earlier
  // restart epoch is below any of a later one, so this says that a record is
  // never ahead of what the peer has applied in the same epoch.
  void CheckSafety() {
    for (NodeId a = 0; a < size(); ++a) {
      for (NodeId b = 0; b < size(); ++b) {
        if (b != a) {
          EXPECT_LE(node(a).RecordedProgress(b), node(b).progress_stamp())
              << "node " << a << " records node " << b << " at applied "
              << AppliedOf(node(a).RecordedProgress(b)) << ", epoch "
              << EpochOf(node(a).RecordedProgress(b)) << "; it applied "
              << node(b).applied_index() << " in epoch "
              << EpochOf(node(b).progress_stamp());
        }
      }
      for (NodeId b = a + 1; b < size(); ++b) {
        const RaftLog& la = node(a).log();
        const RaftLog& lb = node(b).log();
        bool matched = false;
        for (LogIndex idx = std::min(la.last_index(), lb.last_index());
             idx >= std::max(la.first_index(), lb.first_index()) && idx >= 1; --idx) {
          const LogEntry& ea = la.At(idx);
          const LogEntry& eb = lb.At(idx);
          if (ea.term != eb.term) {
            EXPECT_FALSE(matched) << "log matching violated at idx " << idx << " between node "
                                  << a << " and node " << b;
            continue;
          }
          matched = true;
          EXPECT_EQ(ea.noop, eb.noop) << "idx " << idx;
          EXPECT_EQ(ea.rid, eb.rid) << "idx " << idx;
          // Config entries agree too: same position, same membership.
          const MembershipConfigPtr& ca = node(a).ConfigAt(idx);
          const MembershipConfigPtr& cb = node(b).ConfigAt(idx);
          ASSERT_EQ(ca != nullptr, cb != nullptr) << "idx " << idx;
          if (ca != nullptr) {
            EXPECT_EQ(ca->voters, cb->voters) << "idx " << idx;
            EXPECT_EQ(ca->learners, cb->learners) << "idx " << idx;
          }
        }
        for (const auto& [idx, applied] : env(a).applied_at) {
          const auto it = env(b).applied_at.find(idx);
          if (it != env(b).applied_at.end()) {
            EXPECT_TRUE(applied.term == it->second.term && applied.rid == it->second.rid)
                << "index " << idx << ": node " << a << " applied term " << applied.term
                << ", node " << b << " term " << it->second.term;
          }
        }
      }
    }
  }

  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }
  RaftNode& node(NodeId n) { return *nodes_[static_cast<size_t>(n)]; }
  Env& env(NodeId n) { return *envs_[static_cast<size_t>(n)]; }
  StableStorage& storage(NodeId n) { return *storages_[static_cast<size_t>(n)]; }
  // The highest commit index any node has reached (committed prefixes agree,
  // so a bare index is comparable across nodes).
  LogIndex commit_watermark() const { return commit_watermark_; }

  static std::shared_ptr<const RpcRequest> Req(HostId client, uint64_t seq) {
    return std::make_shared<RpcRequest>(RequestId{client, seq}, R2p2Policy::kReplicatedReq,
                                        MakeBody(std::vector<uint8_t>(24)));
  }

  Simulator sim;
  Rng rng;
  Delivery delivery;
  std::function<bool(NodeId from, NodeId to, const Message&)> drop_filter;
  // Heartbeat ticks that fired on a node that was not leading.
  uint64_t idle_heartbeats = 0;

 private:
  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<std::unique_ptr<SimDisk>> disks_;
  std::vector<std::unique_ptr<StableStorage>> storages_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::vector<bool> down_;
  std::map<Term, NodeId> leader_of_term_;
  std::map<LogIndex, Term> committed_;  // ghost record: every committed (index, term)
  LogIndex commit_watermark_ = 0;
};

}  // namespace hovercraft

#endif  // TESTS_RAFT_HARNESS_H_
