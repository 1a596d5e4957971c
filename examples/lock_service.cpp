// Example: a fault-tolerant lock service (the Chubby/etcd use case, paper
// section 2.1) on HovercRaft++.
//
// Three worker clients race for one lock through the replicated service;
// mutual exclusion holds (fencing tokens are strictly increasing, one holder
// at a time) across a leader crash in the middle of the run.
//
//   ./build/examples/lock_service
#include <cstdio>
#include <memory>
#include <vector>

#include "src/app/lock_service.h"
#include "src/core/cluster.h"
#include "src/net/host.h"

namespace hovercraft {
namespace {

// A worker that loops: try to acquire, hold for 5ms, release, retry.
class Worker final : public Host {
 public:
  Worker(Simulator* sim, const CostModel& costs, Cluster* cluster, std::string name)
      : Host(sim, costs, Kind::kServer), cluster_(cluster), name_(std::move(name)) {}

  void Start() { TryAcquire(); }

  void HandleMessage(HostId /*src*/, const MessagePtr& msg) override {
    const auto* resp = As<RpcResponse>(*msg);
    if (resp == nullptr) {
      return;
    }
    Result<LockReply> reply = DecodeLockReply(resp->body());
    if (!reply.ok()) {
      return;
    }
    switch (reply.value().status) {
      case LockReplyStatus::kGranted: {
        const uint64_t token = reply.value().fencing_token;
        std::printf("  [%7.2fms] %s ACQUIRED the lock (fencing token %llu)\n",
                    Ms(), name_.c_str(), static_cast<unsigned long long>(token));
        ++acquisitions;
        last_token = token;
        // Hold the lock for 5ms of "work", then release.
        sim()->After(Millis(5), [this]() { SendOp(LockOpcode::kRelease); });
        break;
      }
      case LockReplyStatus::kHeld:
        // Busy: back off and retry.
        sim()->After(Millis(2), [this]() { TryAcquire(); });
        break;
      case LockReplyStatus::kReleased:
        std::printf("  [%7.2fms] %s released the lock\n", Ms(), name_.c_str());
        sim()->After(Millis(1), [this]() { TryAcquire(); });
        break;
      default:
        sim()->After(Millis(2), [this]() { TryAcquire(); });
        break;
    }
  }

  uint64_t acquisitions = 0;
  uint64_t last_token = 0;

 private:
  double Ms() const { return static_cast<double>(sim()->Now()) / 1e6; }

  void TryAcquire() { SendOp(LockOpcode::kAcquire); }

  void SendOp(LockOpcode op) {
    LockCommand cmd;
    cmd.op = op;
    cmd.lock = "leader-election/shard-7";
    cmd.owner = name_;
    // Re-send on silence: replies can be lost across failovers
    // (at-most-once), so coordination clients always retry with timeouts.
    const uint64_t seq = next_seq_++;
    Send(cluster_->ClientTarget(),
         std::make_shared<RpcRequest>(RequestId{id(), seq}, R2p2Policy::kReplicatedReq,
                                      EncodeLockCommand(cmd)));
    sim()->After(Millis(15), [this, seq, op]() {
      if (seq == next_seq_ - 1 && !stopped_) {
        SendOp(op);  // no progress since: retry (idempotent per owner)
      }
    });
  }

  Cluster* cluster_;
  std::string name_;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
};

void Run() {
  std::printf("== Fault-tolerant lock service (3 workers, 1 lock, leader crash) ==\n\n");

  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<LockService>(); };
  Cluster cluster(config);
  cluster.WaitForLeader();
  std::printf("cluster up, leader: node %d\n\n", cluster.LeaderId());

  std::vector<std::unique_ptr<Worker>> workers;
  for (const char* name : {"alice", "bob", "carol"}) {
    workers.push_back(
        std::make_unique<Worker>(&cluster.sim(), config.costs, &cluster, name));
    cluster.network().Attach(workers.back().get());
  }
  for (auto& w : workers) {
    w->Start();
  }

  cluster.sim().After(Millis(40), [&cluster]() {
    std::printf("  !! leader (node %d) crashes\n", cluster.LeaderId());
    cluster.KillLeader();
  });
  cluster.sim().RunUntil(Millis(120));

  std::printf("\nacquisitions: ");
  uint64_t max_token = 0;
  for (const auto& w : workers) {
    std::printf("%llu ", static_cast<unsigned long long>(w->acquisitions));
    max_token = std::max(max_token, w->last_token);
  }
  std::printf("\nhighest fencing token issued: %llu\n",
              static_cast<unsigned long long>(max_token));

  // Mutual exclusion is a property of the replicated state machine: verify
  // the survivors agree on who (if anyone) holds the lock.
  std::printf("replica agreement on lock state: ");
  uint64_t digest = 0;
  bool first = true;
  bool agree = true;
  for (NodeId n = 0; n < 3; ++n) {
    if (cluster.server(n).failed()) {
      continue;
    }
    if (first) {
      digest = cluster.server(n).app().Digest();
      first = false;
    } else if (cluster.server(n).app().Digest() != digest) {
      agree = false;
    }
  }
  std::printf("%s\n", agree ? "YES" : "NO (BUG!)");
}

}  // namespace
}  // namespace hovercraft

int main() {
  hovercraft::Run();
  return 0;
}
