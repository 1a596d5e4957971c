// Cluster-level durability tests: power-fail crashes that genuinely lose the
// unsynced WAL suffix, the restart fence on deferred persist acks, suspect
// recovery and its election gate, and exactly-once retries across power
// failures (docs/durability.md).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/app/synthetic.h"
#include "src/common/check.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/raft/log.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

ClusterConfig Config(ClusterMode mode, int32_t nodes, uint64_t seed) {
  ClusterConfig config;
  config.mode = mode;
  config.nodes = nodes;
  config.seed = seed;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  config.replier_policy = ReplierPolicy::kJbsq;
  config.bounded_queue_depth = 32;
  // Restarted nodes must not livelock elections with a permanently short
  // timeout; restart tests use uniform timeouts throughout this file.
  config.stagger_first_election = false;
  return config;
}

std::unique_ptr<Workload> FastWorkload() {
  SyntheticWorkloadConfig wc;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  return std::make_unique<SyntheticWorkload>(wc);
}

std::unique_ptr<ClientHost> AttachClient(Cluster& cluster, double rate, uint64_t seed) {
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
      FastWorkload(), rate, seed);
  cluster.network().Attach(client.get());
  return client;
}

void EnableRetries(ClientHost* client, Cluster& cluster) {
  ClientHost::RetryPolicy rp;
  rp.enabled = true;
  rp.initial_backoff = Micros(500);
  rp.max_backoff = Millis(8);
  client->set_retry_policy(rp);
  client->set_retry_target([&cluster]() { return cluster.RetryTarget(); });
}

// Corrupts the newest applied non-noop write entry still present in `node`'s
// WAL (the same target rule the disk-corrupt-entry nemesis uses). Returns the
// corrupted index, or 0 if no eligible entry exists.
LogIndex CorruptNewestWrite(Cluster& cluster, NodeId node) {
  auto& server = cluster.server(node);
  const RaftLog& log = server.raft()->log();
  for (LogIndex idx = server.raft()->applied_index(); idx >= log.first_index() && idx > 0;
       --idx) {
    const LogEntry& e = log.At(idx);
    if (!e.noop && !e.read_only && server.storage()->CorruptEntry(idx)) {
      return idx;
    }
  }
  return 0;
}

TEST(DurabilityTest, PowerFailLosesOnlyUnsyncedSuffix) {
  // A power-failed follower restarts from its WAL: the synced prefix is
  // intact (no torn tail, no corruption, not suspect) and the node converges
  // back to the leader's state.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 111);
  config.server_template.disk_faults = true;
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 51);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  const LogIndex durable_before = cluster.server(victim).raft()->durable_index();
  EXPECT_GT(durable_before, 0u);

  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(70));
  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(500));

  const auto& st = cluster.server(victim).storage()->stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.torn_truncations, 0u);
  EXPECT_EQ(st.corrupt_records, 0u);
  EXPECT_EQ(st.suspect_recoveries, 0u);
  EXPECT_FALSE(cluster.server(victim).raft()->suspect());
  // The crash genuinely destroyed the unsynced suffix...
  EXPECT_GT(cluster.server(victim).disk()->stats().bytes_lost, 0u);
  // ...but everything synced survived and the node caught back up.
  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, NodeKilledInsidePersistWindowNeverAcks) {
  // The deferred AppendEntries ack is fenced on a restart generation: a node
  // killed between the append and the fsync completion must drop the pending
  // ack instead of confirming durability it no longer has.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 113);
  config.raft.persist_latency = Millis(2);  // wide persist window
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 53);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  // With a 2ms persist window under steady load there is always at least one
  // ack parked behind an in-flight fsync.
  EXPECT_GT(cluster.server(victim).raft()->stats().acks_deferred_persist, 0u);

  // Fail-stop (not power-fail): the disk keeps running, so the in-flight
  // fsync completes and its callback fires into the restart fence — the only
  // thing standing between the dead node and a forged ack.
  cluster.KillNode(victim);
  cluster.sim().RunUntil(t0 + Millis(80));
  EXPECT_GT(cluster.server(victim).raft()->stats().acks_dropped_crash, 0u);

  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(500));
  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, ExactlyOnceAcrossFullClusterPowerFail) {
  // Power-fail all three replicas at once, restart them, and let retries
  // drain: every request completes exactly once. Group commit is safe here
  // because acks wait for the fsync — what a client saw confirmed was
  // durable on a quorum before the lights went out.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 115);
  config.server_template.disk_faults = true;
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 57);
  EnableRetries(client.get(), cluster);

  const TimeNs t0 = cluster.sim().Now();
  client->SetMeasureWindow(t0, t0 + Millis(200));
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  for (NodeId n = 0; n < 3; ++n) {
    cluster.PowerFailNode(n);
  }
  cluster.sim().RunUntil(t0 + Millis(55));
  for (NodeId n = 0; n < 3; ++n) {
    cluster.RestartNode(n);
  }
  cluster.sim().RunUntil(t0 + Millis(800));

  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  EXPECT_GT(client->total_retransmits(), 0u);
  client->AccountLost(Seconds(1));
  EXPECT_EQ(client->lost_in_window(), 0u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).server_stats().double_applies, 0u);
    EXPECT_EQ(cluster.server(n).raft()->stats().committed_overwritten, 0u);
  }
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, CorruptedFollowerRecoversSuspectAndGetsRepaired) {
  // Bit-flip a committed entry on a follower's platter, power-fail it, and
  // restart: recovery detects the damage (CRC), cuts the log, marks the node
  // suspect, and the leader's AppendEntries re-fetch repairs it — after which
  // the suspicion clears and the replica converges bit-exactly.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 117);
  config.server_template.disk_faults = true;
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 59);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  const LogIndex damaged = CorruptNewestWrite(cluster, victim);
  ASSERT_GT(damaged, 0u);
  ASSERT_LE(damaged, cluster.server(victim).raft()->commit_index());

  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(70));
  cluster.RestartNode(victim);

  const auto& st = cluster.server(victim).storage()->stats();
  EXPECT_EQ(st.suspect_recoveries, 1u);
  EXPECT_GT(st.corrupt_records, 0u);

  cluster.sim().RunUntil(t0 + Millis(500));
  // The leader re-sent the damaged suffix and commit caught up past the
  // suspect floor, clearing the suspicion.
  EXPECT_FALSE(cluster.server(victim).raft()->suspect());
  EXPECT_EQ(cluster.server(victim).raft()->stats().suspect_repaired, 1u);
  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, SuspectPairCannotElectALeaderByThemselves) {
  // Corrupt and power-fail both followers while fail-stopping the leader.
  // The restarted followers form a live majority, but both are suspect:
  // neither may campaign, and neither may endorse a candidate whose log ends
  // below its suspect floor. The cluster must stall leaderless — electing an
  // amnesiac leader could overwrite entries whose replies clients hold —
  // until the pristine leader returns.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 119);
  config.server_template.disk_faults = true;
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 61);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(100));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId fa = (leader + 1) % 3;
  const NodeId fb = (leader + 2) % 3;
  ASSERT_GT(CorruptNewestWrite(cluster, fa), 0u);
  ASSERT_GT(CorruptNewestWrite(cluster, fb), 0u);
  cluster.PowerFailNode(fa);
  cluster.PowerFailNode(fb);
  cluster.KillNode(leader);  // fail-stop: disk and memory intact
  cluster.sim().RunUntil(t0 + Millis(52));
  cluster.RestartNode(fa);
  cluster.RestartNode(fb);

  EXPECT_TRUE(cluster.server(fa).raft()->suspect());
  EXPECT_TRUE(cluster.server(fb).raft()->suspect());

  // A long leaderless window: two suspects hold a quorum but refuse to use it.
  cluster.sim().RunUntil(t0 + Millis(250));
  EXPECT_EQ(cluster.LeaderId(), kInvalidNode);
  EXPECT_GT(cluster.server(fa).raft()->stats().campaigns_blocked_suspect +
                cluster.server(fb).raft()->stats().campaigns_blocked_suspect,
            0u);

  cluster.RestartNode(leader);
  const NodeId second = cluster.WaitForLeader(cluster.sim().Now() + Seconds(2));
  ASSERT_NE(second, kInvalidNode);
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(300));
  // The pristine copy repaired both suspects; nothing committed was lost.
  EXPECT_FALSE(cluster.server(fa).raft()->suspect());
  EXPECT_FALSE(cluster.server(fb).raft()->suspect());
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).raft()->stats().committed_overwritten, 0u);
  }
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, SessionTableSurvivesPowerFailReplay) {
  // Like FailureTest.SessionTableSurvivesRestart, but through a power fail:
  // the dedup state is rebuilt from the *replayed WAL*, not from surviving
  // memory, and still matches the tables built live on the other replicas.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 121);
  config.server_template.disk_faults = true;
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 63);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(120));
  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(500));

  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  ASSERT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  EXPECT_GT(cluster.server(victim).sessions().client_count(), 0u);
  EXPECT_TRUE(cluster.server(victim).sessions().Executed(RequestId{client->id(), 1}));
  EXPECT_EQ(cluster.server(victim).sessions().AckWatermark(client->id()),
            cluster.server(cluster.LeaderId()).sessions().AckWatermark(client->id()));
}

// Every node's disk and storage counters and the size and durable watermark
// of each of its files, as one comparable line per node.
std::vector<std::string> DiskState(Cluster& cluster) {
  std::vector<std::string> nodes;
  for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
    SimDisk* disk = cluster.server(n).disk();
    const SimDiskStats& d = disk->stats();
    const StorageStats& s = cluster.server(n).storage()->stats();
    std::string line;
    for (uint64_t v : {d.appends, d.bytes_written, d.syncs, d.coalesced, d.crashes, d.bytes_lost,
                       d.torn_crashes, d.flips, d.stall_ns, s.entry_records, s.meta_records,
                       s.snapshots_saved, s.recoveries, s.recovered_entries, s.torn_truncations,
                       s.corrupt_records, s.suspect_recoveries, s.segments_dropped}) {
      line += std::to_string(v) + " ";
    }
    std::vector<std::string> files = disk->List("wal-");
    files.push_back("snapshot");
    for (const std::string& f : files) {
      line += f + ":" + std::to_string(disk->Size(f)) + "/" +
              std::to_string(disk->SyncedSize(f)) + " ";
    }
    nodes.push_back(line);
  }
  return nodes;
}

// Every client-visible event: invocations, first replies with their bytes,
// and NACKs, in the order the client saw them.
class OutcomeLog final : public ClientHost::Observer {
 public:
  void OnInvoke(HostId client, uint64_t seq, R2p2Policy, const Body&, TimeNs at) override {
    Add("invoke", client, seq, at, {});
  }
  void OnComplete(HostId client, uint64_t seq, const Body& reply, TimeNs at) override {
    Add("reply", client, seq, at, reply);
  }
  void OnNack(HostId client, uint64_t seq, TimeNs at) override {
    Add("nack", client, seq, at, {});
  }
  std::vector<std::string> events;

 private:
  void Add(const char* kind, HostId client, uint64_t seq, TimeNs at, const Body& bytes) {
    std::string e = kind;
    for (uint64_t v : {static_cast<uint64_t>(client), seq, static_cast<uint64_t>(at)}) {
      e.append(" ").append(std::to_string(v));
    }
    for (uint8_t b : bytes) {
      e.append(" ").append(std::to_string(b));
    }
    events.push_back(std::move(e));
  }
};

struct TwinRun {
  std::vector<std::vector<std::string>> disk_states;  // one per instant
  std::vector<std::string> outcomes;
  uint64_t segments_dropped = 0;  // over every node
  uint64_t snapshots_saved = 0;
};

// One seeded HovercRaft++ run with priced fsyncs, compaction every 5 ms and a
// fail-stop leader kill and restart (which keeps process memory, so it reads
// no disk), sampled every 10 ms.
TwinRun RunTwin(bool disk_faults) {
  ClusterConfig config = Config(ClusterMode::kHovercRaftPP, 3, 131);
  config.server_template.disk_faults = disk_faults;
  config.server_template.compaction_interval = Millis(5);
  config.raft.persist_latency = Micros(20);
  Cluster cluster(config);
  HC_CHECK_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 150'000, 67);
  EnableRetries(client.get(), cluster);
  OutcomeLog log;
  client->set_observer(&log);

  TwinRun run;
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(70));
  NodeId killed = kInvalidNode;
  for (int i = 1; i <= 10; ++i) {
    cluster.sim().RunUntil(t0 + Millis(10) * i);
    run.disk_states.push_back(DiskState(cluster));
    if (i == 3) {
      killed = cluster.LeaderId();
      cluster.KillNode(killed);
    } else if (i == 5) {
      cluster.RestartNode(killed);
    }
  }
  run.outcomes = std::move(log.events);
  for (NodeId n = 0; n < cluster.total_node_count(); ++n) {
    run.segments_dropped += cluster.server(n).storage()->stats().segments_dropped;
    run.snapshots_saved += cluster.server(n).storage()->stats().snapshots_saved;
  }
  return run;
}

// A disk without disk_faults keeps sizes, not bytes, and nothing the cluster
// does may tell the two apart: the twin runs write, sync, rotate and drop the
// same files at the same instants and give every client the same answers.
TEST(DurabilityTest, DiskWithoutBytesRunsLikeDiskWithBytes) {
  const TwinRun off = RunTwin(false);
  const TwinRun on = RunTwin(true);
  // The run reaches what the comparison covers: snapshots and dropped
  // segments, a leader change and thousands of client requests.
  EXPECT_GT(on.snapshots_saved, 3u);
  EXPECT_GT(on.segments_dropped, 0u);
  EXPECT_GT(on.outcomes.size(), 10'000u);
  ASSERT_EQ(off.disk_states.size(), on.disk_states.size());
  for (size_t i = 0; i < on.disk_states.size(); ++i) {
    EXPECT_EQ(off.disk_states[i], on.disk_states[i]) << "instant " << i;
  }
  EXPECT_TRUE(off.outcomes == on.outcomes);
}

TEST(DurabilityDeathTest, PowerFailNeedsDiskFaults) {
  Cluster cluster(Config(ClusterMode::kHovercRaft, 3, 133));
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  EXPECT_DEATH(cluster.PowerFailNode(1), "disk_faults");
}

}  // namespace
}  // namespace hovercraft
