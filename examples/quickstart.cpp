// Quickstart: make a plain RPC service fault-tolerant with HovercRaft.
//
// The application below is an ordinary deterministic key-value StateMachine
// with no knowledge of replication. We deploy it on a 3-node HovercRaft++
// cluster, send a handful of RPCs through the R2P2 client, crash the leader,
// and keep going — no application code changes anywhere.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "src/app/kvstore/command.h"
#include "src/app/kvstore/service.h"
#include "src/core/cluster.h"
#include "src/net/host.h"

namespace hovercraft {
namespace {

// A minimal client host: send one command, print the reply.
class DemoClient final : public Host {
 public:
  DemoClient(Simulator* sim, const CostModel& costs, Cluster* cluster)
      : Host(sim, costs, Kind::kServer), cluster_(cluster) {}

  void SendCommand(const KvCommand& cmd) {
    const RequestId rid{id(), next_seq_++};
    const R2p2Policy policy =
        cmd.IsReadOnly() ? R2p2Policy::kReplicatedReqRo : R2p2Policy::kReplicatedReq;
    pending_[rid.seq] = cmd.op;
    Send(cluster_->ClientTarget(), std::make_shared<RpcRequest>(rid, policy, EncodeKvCommand(cmd)));
  }

  void HandleMessage(HostId /*src*/, const MessagePtr& msg) override {
    const auto* resp = As<RpcResponse>(*msg);
    if (resp == nullptr) {
      return;
    }
    auto it = pending_.find(resp->rid().seq);
    if (it == pending_.end()) {
      return;
    }
    Result<KvReply> reply = DecodeKvReply(resp->body());
    std::printf("  [%6.1fus] reply to op#%llu: %s",
                static_cast<double>(sim()->Now()) / 1e3,
                static_cast<unsigned long long>(resp->rid().seq),
                reply.ok() && reply.value().status == KvReplyStatus::kOk ? "OK" : "MISS");
    if (reply.ok()) {
      for (const std::string& v : reply.value().values) {
        std::printf("  \"%s\"", v.c_str());
      }
    }
    std::printf("\n");
    pending_.erase(it);
    ++completed_;
  }

  uint64_t completed() const { return completed_; }

 private:
  Cluster* cluster_;
  uint64_t next_seq_ = 1;
  std::unordered_map<uint64_t, KvOpcode> pending_;
  uint64_t completed_ = 0;
};

void Run() {
  std::printf("== HovercRaft quickstart: replicated KV store on 3 nodes ==\n\n");

  // 1. Describe the deployment: the mode, the cluster size, and a factory
  //    for the application every replica runs.
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<KvService>(); };

  // 2. Boot the cluster and wait for the first election.
  Cluster cluster(config);
  const NodeId leader = cluster.WaitForLeader();
  std::printf("leader elected: node %d (t=%.2fms)\n\n", leader,
              static_cast<double>(cluster.sim().Now()) / 1e6);

  // 3. Talk to it through R2P2. The client addresses the flow-control
  //    middlebox; it never needs to know which node leads.
  DemoClient client(&cluster.sim(), config.costs, &cluster);
  cluster.network().Attach(&client);

  KvCommand set;
  set.op = KvOpcode::kSet;
  set.key = "greeting";
  set.value = "hello, EuroSys";
  KvCommand get;
  get.op = KvOpcode::kGet;
  get.key = "greeting";

  cluster.sim().After(Millis(1), [&]() {
    std::printf("writing greeting...\n");
    client.SendCommand(set);
  });
  cluster.sim().After(Millis(2), [&]() {
    std::printf("reading it back (read-only, load-balanced):\n");
    client.SendCommand(get);
    client.SendCommand(get);
    client.SendCommand(get);
  });

  // 4. Kill the leader mid-session. Raft elects a successor; the replicated
  //    store keeps answering.
  cluster.sim().After(Millis(5), [&]() {
    std::printf("\n!! killing the leader (node %d)\n\n", cluster.LeaderId());
    cluster.KillLeader();
  });
  cluster.sim().After(Millis(40), [&]() {
    std::printf("cluster healed: new leader is node %d; reading again:\n",
                cluster.LeaderId());
    // A reply delegated to the dead node may be lost (Raft's at-most-once
    // window, paper section 3.4) — send a few; bounded queues stop routing
    // work to the dead replica after at most B assignments.
    client.SendCommand(get);
    client.SendCommand(get);
    client.SendCommand(get);
  });

  cluster.sim().RunUntil(Millis(80));

  std::printf("\n%llu/%u RPCs completed (a lost reply after the crash is the\n"
              "at-most-once window of section 3.4, not a consistency violation).\n"
              "Replica digests:\n",
              static_cast<unsigned long long>(client.completed()), 7u);
  for (NodeId n = 0; n < 3; ++n) {
    std::printf("  node %d: %s digest=%016llx\n", n,
                cluster.server(n).failed() ? "(dead)" : "alive ",
                static_cast<unsigned long long>(cluster.server(n).app().Digest()));
  }
}

}  // namespace
}  // namespace hovercraft

int main() {
  hovercraft::Run();
  return 0;
}
