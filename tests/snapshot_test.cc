// InstallSnapshot state transfer: app-level snapshot round trips, raft-level
// straggler repair after compaction, and full-stack node revival.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/app/kvstore/service.h"
#include "src/app/synthetic.h"
#include "src/app/ycsb.h"
#include "src/common/buffer.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/session_table.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/r2p2/shard.h"
#include "src/raft/wal_codec.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// StateMachine snapshot round trips
// ---------------------------------------------------------------------------

TEST(SnapshotTest, SyntheticServiceRoundTrip) {
  SyntheticService a;
  SyntheticOp op;
  op.reply_bytes = 8;
  for (uint64_t i = 1; i <= 10; ++i) {
    RpcRequest req(RequestId{1, i}, R2p2Policy::kReplicatedReq, EncodeSyntheticOp(op, 24));
    a.Execute(req);
  }
  SyntheticService b;
  ASSERT_TRUE(b.RestoreState(a.SnapshotState()).ok());
  EXPECT_EQ(b.Digest(), a.Digest());
  EXPECT_EQ(b.ApplyCount(), a.ApplyCount());
}

TEST(SnapshotTest, KvServiceRoundTripAllValueTypes) {
  KvService a;
  KvCommand cmd;
  cmd.op = KvOpcode::kSet;
  cmd.key = "str";
  cmd.value = "hello";
  a.Apply(cmd);
  cmd.op = KvOpcode::kHset;
  cmd.key = "hash";
  cmd.field = "f1";
  cmd.value = "v1";
  a.Apply(cmd);
  cmd.field = "f2";
  cmd.value = "v2";
  a.Apply(cmd);
  cmd.op = KvOpcode::kRpush;
  cmd.key = "list";
  for (const char* item : {"a", "b", "c"}) {
    cmd.value = item;
    a.Apply(cmd);
  }

  KvService b;
  ASSERT_TRUE(b.RestoreState(a.SnapshotState()).ok());
  EXPECT_EQ(b.store().ContentDigest(), a.store().ContentDigest());
  EXPECT_EQ(b.store().Get("str").value(), "hello");
  EXPECT_EQ(b.store().Hget("hash", "f2").value(), "v2");
  EXPECT_EQ(b.store().Lrange("list", 0, -1).value(),
            (std::vector<std::string>{"a", "b", "c"}));
  // Restore replaces, not merges.
  KvService c;
  KvCommand other;
  other.op = KvOpcode::kSet;
  other.key = "junk";
  other.value = "x";
  c.Apply(other);
  ASSERT_TRUE(c.RestoreState(a.SnapshotState()).ok());
  EXPECT_FALSE(c.store().Exists("junk"));
  EXPECT_EQ(c.Digest(), a.Digest());
}

TEST(SnapshotTest, KvServiceRejectsGarbage) {
  KvService svc;
  EXPECT_FALSE(svc.RestoreState(nullptr).ok());
  EXPECT_FALSE(svc.RestoreState(MakeBody({1, 2, 3})).ok());
}

// ---------------------------------------------------------------------------
// Client-session table: the exactly-once dedup state rides inside snapshots.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, SessionTableSerializeRoundTrip) {
  SessionTable a;
  a.Record(RequestId{1, 1}, MakeBody({10, 11}));
  a.Record(RequestId{1, 2}, MakeBody({20}));
  a.Record(RequestId{2, 5}, nullptr);  // executed, no reply payload recorded
  a.Acknowledge(1, 1);                 // GCs seq 1, keeps Executed() true

  EXPECT_TRUE(a.Executed(RequestId{1, 1}));
  EXPECT_EQ(a.CachedReply(RequestId{1, 1}), nullptr);
  EXPECT_TRUE(a.Executed(RequestId{1, 2}));
  EXPECT_TRUE(a.Executed(RequestId{2, 5}));
  EXPECT_FALSE(a.Executed(RequestId{1, 3}));
  EXPECT_FALSE(a.Executed(RequestId{3, 1}));

  BufferWriter w;
  a.Serialize(&w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  SessionTable b;
  BufferReader r(bytes);
  ASSERT_TRUE(b.Restore(&r).ok());
  EXPECT_EQ(b.client_count(), a.client_count());
  EXPECT_EQ(b.cached_replies(), a.cached_replies());
  EXPECT_EQ(b.AckWatermark(1), 1u);
  EXPECT_TRUE(b.Executed(RequestId{1, 1}));
  EXPECT_TRUE(b.Executed(RequestId{1, 2}));
  ASSERT_NE(b.CachedReply(RequestId{1, 2}), nullptr);
  EXPECT_EQ(*b.CachedReply(RequestId{1, 2}), std::vector<uint8_t>({20}));
  EXPECT_TRUE(b.Executed(RequestId{2, 5}));
  EXPECT_FALSE(b.Executed(RequestId{1, 3}));
  // Re-serializing the restored table reproduces the snapshot byte-for-byte
  // (null and empty replies canonicalize identically), so replica snapshots
  // stay comparable after a restore.
  BufferWriter w2;
  b.Serialize(&w2);
  EXPECT_EQ(w2.TakeBytes(), bytes);

  // Watermarks are monotone: a delayed older attempt's stale acknowledgement
  // neither lowers the watermark nor forgets a seq the newer one erased.
  SessionTable d;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    d.Record(RequestId{1, seq}, MakeBody({static_cast<uint8_t>(seq)}));
  }
  d.Acknowledge(1, 3);
  d.Acknowledge(1, 1);
  EXPECT_EQ(d.AckWatermark(1), 3u);
  EXPECT_TRUE(d.Executed(RequestId{1, 2}));

  // Truncated/garbage input is rejected, not crashed on.
  SessionTable c;
  const std::vector<uint8_t> garbage = {9, 9, 9};
  BufferReader bad(garbage);
  EXPECT_FALSE(c.Restore(&bad).ok());
}

// ---------------------------------------------------------------------------
// Full-stack: a node that is down past the compaction horizon gets repaired
// by a snapshot transfer when it revives.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RevivedStragglerRepairedBySnapshot) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = 99;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  // Aggressive compaction so the dead node's gap is compacted away quickly.
  config.raft.log_retention_entries = 256;
  config.server_template.straggler_lag_entries = 512;
  config.server_template.compaction_interval = Millis(5);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  SyntheticWorkloadConfig wc;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), 50'000, 17);
  cluster.network().Attach(client.get());

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(20));

  // A follower dies and misses tens of thousands of entries.
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  cluster.server(victim).set_failed(true);
  cluster.sim().RunUntil(t0 + Millis(150));

  // Compaction must have proceeded past the victim's position despite it
  // being down (straggler allowance).
  const LogIndex leader_first = cluster.server(leader).raft()->log().first_index();
  EXPECT_GT(leader_first, cluster.server(victim).raft()->log().last_index());

  // The machine comes back (process restart with its old log).
  cluster.server(victim).set_failed(false);
  cluster.sim().RunUntil(t0 + Millis(400));

  // It was repaired by state transfer and converged.
  EXPECT_GE(cluster.server(victim).server_stats().snapshots_restored, 1u);
  EXPECT_GE(cluster.server(leader).raft()->stats().snapshots_sent, 1u);
  EXPECT_EQ(cluster.server(victim).app().Digest(), cluster.server(leader).app().Digest());
  EXPECT_EQ(cluster.server(victim).app().ApplyCount(),
            cluster.server(leader).app().ApplyCount());
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(leader).raft()->commit_index());
}

TEST(SnapshotTest, KvStoreStateSurvivesSnapshotRepair) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = 101;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<KvService>(); };
  config.raft.log_retention_entries = 128;
  config.server_template.straggler_lag_entries = 256;
  config.server_template.compaction_interval = Millis(5);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  // Write-heavy kv workload so real state accumulates.
  class KvWriteWorkload final : public Workload {
   public:
    Op Next(Rng& rng) override {
      KvCommand cmd;
      cmd.op = KvOpcode::kSet;
      cmd.key = "key:" + std::to_string(rng.NextBelow(500));
      cmd.value = "value-" + std::to_string(rng.Next());
      Op op;
      op.body = EncodeKvCommand(cmd);
      op.read_only = false;
      return op;
    }
  };
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<KvWriteWorkload>(), 20'000, 19);
  cluster.network().Attach(client.get());

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(20));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 2) % 3;
  cluster.server(victim).set_failed(true);
  cluster.sim().RunUntil(t0 + Millis(150));
  cluster.server(victim).set_failed(false);
  cluster.sim().RunUntil(t0 + Millis(500));

  EXPECT_GE(cluster.server(victim).server_stats().snapshots_restored, 1u);
  const auto& victim_store = static_cast<const KvService&>(cluster.server(victim).app()).store();
  const auto& leader_store = static_cast<const KvService&>(cluster.server(leader).app()).store();
  EXPECT_GT(victim_store.key_count(), 0u);
  EXPECT_EQ(victim_store.ContentDigest(), leader_store.ContentDigest());
}

// A small preloaded store, so the genesis image is not trivially empty.
std::unique_ptr<KvService> PreloadedKvService() {
  auto svc = std::make_unique<KvService>();
  KvCommand cmd;
  cmd.op = KvOpcode::kRpush;
  for (int conv = 0; conv < 40; ++conv) {
    cmd.key = "conv:" + std::to_string(conv);
    for (int post = 0; post < 5; ++post) {
      cmd.value = "post-" + std::to_string(conv * 31 + post);
      svc->Apply(cmd);
    }
  }
  cmd.op = KvOpcode::kHset;
  cmd.key = "profile";
  cmd.field = "name";
  cmd.value = "genesis";
  svc->Apply(cmd);
  return svc;
}

// A 3-node cluster over PreloadedKvService whose genesis file stays the only
// local snapshot for the whole test.
ClusterConfig GenesisOnlyConfig(uint64_t seed) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = seed;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return PreloadedKvService(); };
  config.stagger_first_election = false;
  config.server_template.compaction_interval = Seconds(10);
  config.server_template.disk_faults = true;
  return config;
}

// Start() writes the genesis local snapshot from the image captured at
// construction instead of serializing the store a second time. A node that
// power-fails before any compaction recovers from exactly that file, and must
// land on the same state as a store restored from a fresh serialization.
TEST(SnapshotTest, GenesisImageReuseRecoversLikeFreshSerialization) {
  auto preloaded = PreloadedKvService;
  Cluster cluster(GenesisOnlyConfig(303));
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  const NodeId victim = (cluster.LeaderId() + 1) % 3;

  const std::unique_ptr<KvService> fresh = preloaded();
  const Body fresh_image = fresh->SnapshotState();
  KvService restored;
  ASSERT_TRUE(restored.RestoreState(fresh_image).ok());
  // The file's payload ends with exactly the fresh serialization.
  const Body file = cluster.server(victim).disk()->ReadBody("snapshot");
  ASSERT_GE(file.size(), fresh_image.size());
  EXPECT_TRUE(std::equal(fresh_image.begin(), fresh_image.end(),
                         file.end() - static_cast<ptrdiff_t>(fresh_image.size())));

  const TimeNs t0 = cluster.sim().Now();
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(5));
  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(60));

  const auto& st = cluster.server(victim).storage()->stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.suspect_recoveries, 0u);
  EXPECT_EQ(cluster.server(victim).app().Digest(), restored.Digest());
  EXPECT_EQ(cluster.server(victim).app().Digest(), fresh->Digest());
  EXPECT_EQ(cluster.server(victim).app().ApplyCount(), fresh->ApplyCount());
}

// The genesis file shares the image captured at construction with the
// server. Corrupting the image region of that file must stay on the disk:
// recovery rejects the file and comes back suspect, the fallback image is
// intact, and neither the live state nor the peers' copies change.
TEST(SnapshotTest, CorruptSharedImageOnDiskLeavesMemoryIntact) {
  Cluster cluster(GenesisOnlyConfig(313));
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  const NodeId victim = (cluster.LeaderId() + 1) % 3;
  const std::unique_ptr<KvService> fresh = PreloadedKvService();
  const Body fresh_image = fresh->SnapshotState();

  SimDisk* disk = cluster.server(victim).disk();
  const size_t image_begin = disk->Size("snapshot") - fresh_image.size();
  ASSERT_TRUE(disk->FlipByte("snapshot", image_begin + fresh_image.size() / 2));
  EXPECT_EQ(cluster.server(victim).app().Digest(), fresh->Digest());

  const TimeNs t0 = cluster.sim().Now();
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(5));
  cluster.RestartNode(victim);
  // Recovery rejected the file and reloaded the genesis image, which must
  // still be a fresh serialization's.
  const auto& st = cluster.server(victim).storage()->stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.suspect_recoveries, 1u);
  EXPECT_EQ(cluster.server(victim).app().Digest(), fresh->Digest());
  EXPECT_EQ(cluster.server(victim).app().ApplyCount(), fresh->ApplyCount());

  cluster.sim().RunUntil(t0 + Millis(60));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), fresh->Digest()) << "node " << n;
    if (n == victim) {
      continue;
    }
    const Body file = cluster.server(n).disk()->ReadBody("snapshot");
    ASSERT_GE(file.size(), fresh_image.size());
    EXPECT_TRUE(std::equal(fresh_image.begin(), fresh_image.end(),
                           file.end() - static_cast<ptrdiff_t>(fresh_image.size())))
        << "node " << n;
    EXPECT_EQ(cluster.server(n).storage()->stats().recoveries, 0u);
  }
}

// [has_config]([config_idx][config])? — the config prefix of a snapshot file.
void PutConfigPrefix(const MembershipConfigPtr& config, LogIndex config_idx, BufferWriter* w) {
  w->PutU8(config != nullptr ? 1 : 0);
  if (config != nullptr) {
    w->PutU64(config_idx);
    EncodeConfig(*config, w);
  }
}

// The reference framing: the whole file built in one flat buffer,
// [u64 crc][u64 idx][u64 term][u32 len][payload], with the CRC-32C of every
// byte after the crc field zero-extended into it.
std::vector<uint8_t> FlatSnapshotFile(LogIndex idx, Term term, std::span<const uint8_t> payload) {
  BufferWriter file;
  file.PutU64(0);
  file.PutU64(idx);
  file.PutU64(static_cast<uint64_t>(term));
  file.PutU32(static_cast<uint32_t>(payload.size()));
  file.PutBytes(payload);
  file.PatchU64(0, Crc32cPortable(std::span<const uint8_t>(file.bytes()).subspan(8)));
  return file.TakeBytes();
}

// The flat reference for a server's current local snapshot file, built in
// one buffer rather than as the image's rope of parts: the app image is
// [applied][mutation digest] followed by KvStore::SerializeTo.
std::vector<uint8_t> FlatLocalSnapshotFile(const ReplicatedServer& server) {
  const LogIndex idx = server.raft()->applied_index();
  const Term term = server.raft()->log().TermAt(idx);
  const auto [config_idx, membership] = server.raft()->ConfigCoveringIndex(idx);
  BufferWriter payload;
  PutConfigPrefix(membership, config_idx, &payload);
  server.sessions().Serialize(&payload);
  server.shard_state().Serialize(&payload);
  const auto& kv = dynamic_cast<const KvService&>(server.app());
  payload.PutU64(kv.ApplyCount());
  payload.PutU64(kv.mutation_digest());
  kv.store().SerializeTo(payload);
  return FlatSnapshotFile(idx, term, payload.bytes());
}

// Local snapshot files keep the app image's per-key parts by reference and
// files saved on an InstallSnapshot keep the received wire body by
// reference; either way the durable bytes must equal the flat framing byte
// for byte: header, CRC, config, sessions, shard state and image.
TEST(SnapshotTest, SnapshotFilesMatchFlatFraming) {
  YcsbEConfig ycsb;
  ycsb.conversation_count = 60;
  ycsb.preload_per_conversation = 3;
  ycsb.field_bytes = 16;
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.seed = 404;
  config.server_template.disk_faults = true;
  config.app_factory = [ycsb]() {
    auto svc = std::make_unique<KvService>();
    Rng rng(5);
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return svc;
  };
  config.server_template.compaction_interval = Millis(5);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(ycsb), 40'000, 17);
  cluster.network().Attach(client.get());
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(20));
  // Quiesce, then let a compaction persist the final applied state.
  cluster.sim().RunUntil(t0 + Millis(40));

  // The flat reference copies each clean key's part, so it pins the framing,
  // not the contents. The contents are checked by restoring each file's app
  // image, its tail, into a fresh service: it must decode, match the live
  // node's digest and apply count, and agree with every peer's file.
  std::vector<uint64_t> file_digests;
  for (NodeId n = 0; n < 3; ++n) {
    ReplicatedServer& server = cluster.server(n);
    ASSERT_GT(server.storage()->stats().snapshots_saved, 1u) << "node " << n;
    ASSERT_GT(server.sessions().client_count(), 0u) << "node " << n;
    const Body file = server.disk()->ReadBody("snapshot");
    EXPECT_EQ(file, FlatLocalSnapshotFile(server)) << "node " << n;

    const auto& kv = dynamic_cast<const KvService&>(server.app());
    BufferWriter store_bytes;
    kv.store().SerializeTo(store_bytes);
    const size_t image_size = 16 + store_bytes.size();  // [applied][mutation digest][store]
    ASSERT_GE(file.size(), image_size);
    KvService restored;
    ASSERT_TRUE(restored
                    .RestoreState(MakeBody(std::vector<uint8_t>(
                        file.end() - static_cast<ptrdiff_t>(image_size), file.end())))
                    .ok())
        << "node " << n;
    EXPECT_EQ(restored.Digest(), kv.Digest()) << "node " << n;
    EXPECT_EQ(restored.ApplyCount(), kv.ApplyCount()) << "node " << n;
    file_digests.push_back(restored.Digest());
  }
  EXPECT_EQ(file_digests[1], file_digests[0]);
  EXPECT_EQ(file_digests[2], file_digests[0]);

  // InstallSnapshot receive path: the follower persists the leader's wire
  // body [sessions][shard][image] behind its own header and config.
  const NodeId leader = cluster.LeaderId();
  const NodeId follower = (leader + 1) % 3;
  const auto capture = cluster.server(leader).CaptureSnapshot();
  const Term term = cluster.server(leader).raft()->log().TermAt(capture.last_included);
  const auto [config_idx, membership] =
      cluster.server(leader).raft()->ConfigCoveringIndex(capture.last_included);
  const uint64_t saved = cluster.server(follower).storage()->stats().snapshots_saved;
  cluster.server(follower).RestoreSnapshot(capture.state, capture.last_included, term,
                                           membership, config_idx);
  EXPECT_EQ(cluster.server(follower).storage()->stats().snapshots_saved, saved + 1);
  BufferWriter payload;
  PutConfigPrefix(membership, config_idx, &payload);
  payload.PutBytes(*capture.state);
  EXPECT_EQ(cluster.server(follower).disk()->ReadBody("snapshot"),
            FlatSnapshotFile(capture.last_included, term, payload.bytes()));
}

// A follower power-fails after several YCSB-E compactions, so its snapshot
// file is an incremental image: the parts of keys no insert touched are the
// ones built at construction, the rest were re-serialized by later
// compactions. It restarts from that file, catches up with its peers and
// lands on their state; the files it writes afterwards still match the flat
// framing.
TEST(SnapshotTest, FollowerRecoversFromIncrementalSnapshotFile) {
  YcsbEConfig ycsb;
  ycsb.conversation_count = 200;
  ycsb.preload_per_conversation = 4;
  ycsb.field_bytes = 64;
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.seed = 505;
  config.server_template.disk_faults = true;
  config.app_factory = [ycsb]() {
    auto svc = std::make_unique<KvService>();
    Rng rng(9);
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return svc;
  };
  config.server_template.compaction_interval = Millis(5);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(ycsb), 40'000, 29);
  cluster.network().Attach(client.get());
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(60));
  cluster.sim().RunUntil(t0 + Millis(30));

  const NodeId victim = (cluster.LeaderId() + 1) % 3;
  ReplicatedServer& server = cluster.server(victim);
  ASSERT_GE(server.storage()->stats().snapshots_saved, 4u);
  // The file covers a compaction well past genesis.
  const Body file = server.disk()->ReadBody("snapshot");
  BufferReader header(file);
  uint64_t crc = 0;
  uint64_t file_idx = 0;
  ASSERT_TRUE(header.GetU64(crc).ok() && header.GetU64(file_idx).ok());
  ASSERT_GT(file_idx, 100u);

  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(35));
  cluster.RestartNode(victim);
  EXPECT_GE(server.app().ApplyCount(), 1u);
  // Load ends at 60 ms; the rest quiesces and lets compactions persist the
  // final state everywhere.
  cluster.sim().RunUntil(t0 + Millis(120));

  const auto& st = server.storage()->stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.suspect_recoveries, 0u);
  const NodeId leader = cluster.LeaderId();
  ASSERT_NE(leader, kInvalidNode);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), cluster.server(leader).app().Digest())
        << "node " << n;
    EXPECT_EQ(cluster.server(n).app().ApplyCount(), cluster.server(leader).app().ApplyCount())
        << "node " << n;
    EXPECT_EQ(cluster.server(n).disk()->ReadBody("snapshot"),
              FlatLocalSnapshotFile(cluster.server(n)))
        << "node " << n;
  }
}

// A 3-node HovercRaft++ cluster over a small preloaded YCSB-E store that
// compacts every 5 ms.
ClusterConfig SmallYcsbConfig(uint64_t seed) {
  YcsbEConfig ycsb;
  ycsb.conversation_count = 200;
  ycsb.preload_per_conversation = 4;
  ycsb.field_bytes = 64;
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.seed = seed;
  config.stagger_first_election = false;
  config.app_factory = [ycsb]() {
    auto svc = std::make_unique<KvService>();
    Rng rng(9);
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return svc;
  };
  config.server_template.compaction_interval = Millis(5);
  return config;
}

std::unique_ptr<ClientHost> AttachYcsbClient(Cluster& cluster, uint64_t seed) {
  YcsbEConfig ycsb;
  ycsb.conversation_count = 200;
  ycsb.field_bytes = 64;
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(ycsb), 40'000, seed);
  cluster.network().Attach(client.get());
  return client;
}

const KvStore& StoreOf(Cluster& cluster, NodeId n) {
  return static_cast<const KvService&>(cluster.server(n).app()).store();
}

// The replicas' genesis images share one part per key through the fabric's
// index, and so do their snapshot files. Flipping a byte of one node's file
// copies its shared tail first: that node's recovery rejects the file, while
// another node power-failed after it recovers cleanly from its own file,
// with every shared part intact.
TEST(SnapshotTest, CorruptSnapshotOnOneNodeLeavesSharedPartsIntact) {
  ClusterConfig config = SmallYcsbConfig(606);
  config.server_template.disk_faults = true;
  Fabric fabric(config.seed);
  Cluster cluster(fabric, config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  const size_t keys = StoreOf(cluster, 0).key_count();
  ASSERT_GT(keys, 100u);
  EXPECT_EQ(fabric.image_parts().size(), keys);
  const Image image0 = cluster.server(0).app().SnapshotImage();
  const Body bytes0 = image0.Flatten();  // a flat copy of the shared parts
  for (NodeId n = 1; n < 3; ++n) {
    const Image image = cluster.server(n).app().SnapshotImage();
    ASSERT_EQ(image.parts().size(), image0.parts().size());
    for (size_t i = 1; i < image.parts().size(); ++i) {  // part 0 is the head
      ASSERT_EQ(image.parts()[i].bytes.data(), image0.parts()[i].bytes.data())
          << "node " << n << " part " << i;
    }
  }

  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  const NodeId other = (leader + 2) % 3;
  SimDisk* disk = cluster.server(victim).disk();
  const size_t image_begin = disk->Size("snapshot") - image0.size();
  ASSERT_TRUE(disk->FlipByte("snapshot", image_begin + image0.size() / 2));
  EXPECT_TRUE(image0.Flatten() == bytes0);

  const TimeNs t0 = cluster.sim().Now();
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(2));
  cluster.RestartNode(victim);
  EXPECT_EQ(cluster.server(victim).storage()->stats().suspect_recoveries, 1u);
  cluster.sim().RunUntil(t0 + Millis(10));
  cluster.PowerFailNode(other);
  cluster.sim().RunUntil(t0 + Millis(12));
  cluster.RestartNode(other);
  const auto& st = cluster.server(other).storage()->stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.suspect_recoveries, 0u);
  EXPECT_EQ(st.corrupt_records, 0u);
  EXPECT_FALSE(cluster.server(other).raft()->suspect());

  cluster.sim().RunUntil(t0 + Millis(60));
  EXPECT_TRUE(image0.Flatten() == bytes0);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), cluster.server(leader).app().Digest())
        << "node " << n;
  }
}

// An image's part for each key, by the key its entry starts with.
std::unordered_map<std::string, const uint8_t*> PartsByKey(const Image& image) {
  std::unordered_map<std::string, const uint8_t*> parts;
  for (size_t i = 1; i < image.parts().size(); ++i) {  // part 0 is the head
    BufferReader r(image.parts()[i].bytes.bytes());
    std::string key;
    EXPECT_TRUE(r.GetString(key).ok());
    parts[key] = image.parts()[i].bytes.data();
  }
  return parts;
}

// How many of the small YCSB-E store's conversations `app` holds only as
// their encoded part.
size_t EncodedOnlyConversations(const StateMachine& app) {
  const KvStore& store = static_cast<const KvService&>(app).store();
  size_t held = 0;
  for (uint64_t id = 0; id < 200; ++id) {
    held += store.IsEncodedOnly(YcsbEGenerator::ConversationKey(id)) ? 1 : 0;
  }
  return held;
}

// Each replica binds the fabric's index while its factory preloads it, and
// replica 0's genesis image publishes every key before replica 1 is built.
// So a later replica adopts each key's part at the insert that completes
// the key: it leaves its factory holding every key only as replica 0's
// part, before any image of its own, and its genesis image is those parts.
TEST(SnapshotTest, PreloadingReplicasAdoptTheFirstReplicasParts) {
  ClusterConfig config = SmallYcsbConfig(808);
  const auto preload = config.app_factory;
  std::vector<size_t> encoded_only;  // per replica, as its factory returned
  config.app_factory = [&preload, &encoded_only]() {
    std::unique_ptr<StateMachine> app = preload();
    encoded_only.push_back(EncodedOnlyConversations(*app));
    return app;
  };
  Cluster cluster(config);
  EXPECT_EQ(encoded_only, (std::vector<size_t>{0, 200, 200}));
  const Image image0 = cluster.server(0).app().SnapshotImage();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(EncodedOnlyConversations(cluster.server(n).app()), 200u);
    const Image image = cluster.server(n).app().SnapshotImage();
    ASSERT_EQ(image.parts().size(), image0.parts().size());
    for (size_t i = 1; i < image.parts().size(); ++i) {  // part 0 is the head
      ASSERT_EQ(image.parts()[i].bytes.data(), image0.parts()[i].bytes.data())
          << "node " << n << " part " << i;
    }
  }
}

// Adoption needs the exact bytes: a replica whose preload differs from the
// others by one byte of one record keeps its own copy of that key, and of
// no other.
TEST(SnapshotTest, ReplicaWithOneDifferentRecordKeepsOnlyThatKey) {
  ClusterConfig config = SmallYcsbConfig(809);
  const std::string odd_key = YcsbEGenerator::ConversationKey(7);
  std::vector<size_t> encoded_only;
  std::vector<bool> odd_encoded_only;
  config.app_factory = [&]() {
    const bool odd = encoded_only.size() == 2;
    YcsbEConfig ycsb;
    ycsb.conversation_count = 200;
    ycsb.preload_per_conversation = 4;
    ycsb.field_bytes = 64;
    auto svc = std::make_unique<KvService>();
    Rng rng(9);
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      if (odd && cmd.key == odd_key) {
        KvCommand flipped = cmd;
        flipped.value[flipped.value.size() / 2] ^= 1;
        svc->Apply(flipped);
      } else {
        svc->Apply(cmd);
      }
    }
    encoded_only.push_back(EncodedOnlyConversations(*svc));
    odd_encoded_only.push_back(svc->store().IsEncodedOnly(odd_key));
    return svc;
  };
  Cluster cluster(config);
  EXPECT_EQ(encoded_only, (std::vector<size_t>{0, 200, 199}));
  EXPECT_EQ(odd_encoded_only, (std::vector<bool>{false, true, false}));
  std::vector<std::unordered_map<std::string, const uint8_t*>> parts;
  for (NodeId n = 0; n < 3; ++n) {
    parts.push_back(PartsByKey(cluster.server(n).app().SnapshotImage()));
  }
  ASSERT_EQ(parts[0].size(), 200u);
  for (const auto& [key, data] : parts[0]) {
    EXPECT_EQ(parts[1].at(key), data) << key;
    EXPECT_EQ(parts[2].at(key) == data, key != odd_key) << key;
  }
  EXPECT_NE(cluster.server(2).app().Digest(), cluster.server(0).app().Digest());
}

// A replica whose preload stops partway through one conversation holds that
// key as a prefix of the part the first replica published, with no tail:
// its genesis image encodes the prefix as its own part, byte for byte what a
// decoded preload of the same posts encodes, and shares every other key.
TEST(SnapshotTest, ReplicaCutShortMidReplayImagesItsOwnPrefix) {
  ClusterConfig config = SmallYcsbConfig(810);
  const std::string short_key = YcsbEGenerator::ConversationKey(11);
  YcsbEConfig ycsb;
  ycsb.conversation_count = 200;
  ycsb.preload_per_conversation = 4;
  ycsb.field_bytes = 64;
  KvService decoded;  // replica 2's preload, outside the deployment's index
  auto preload = [&ycsb, &short_key](KvService& svc, bool cut) {
    Rng rng(9);
    int short_posts = 0;
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      if (!cut || cmd.key != short_key || ++short_posts <= 2) {
        svc.Apply(cmd);
      }
    }
  };
  preload(decoded, true);
  int built = 0;
  config.app_factory = [&]() {
    auto svc = std::make_unique<KvService>();
    preload(*svc, built++ == 2);
    return svc;
  };
  Cluster cluster(config);
  EXPECT_EQ(cluster.server(2).app().Digest(), decoded.Digest());
  EXPECT_NE(cluster.server(2).app().Digest(), cluster.server(0).app().Digest());
  const KvStore& store = static_cast<const KvService&>(cluster.server(2).app()).store();
  EXPECT_EQ(store.Llen(short_key).value(), 2u);

  const Image image = cluster.server(2).app().SnapshotImage();
  const Image image0 = cluster.server(0).app().SnapshotImage();
  EXPECT_TRUE(image.Flatten() == decoded.SnapshotState());
  const auto parts = PartsByKey(image);
  const auto parts0 = PartsByKey(image0);
  ASSERT_EQ(parts.size(), 200u);
  for (const auto& [key, data] : parts0) {
    EXPECT_EQ(parts.at(key) == data, key != short_key) << key;
  }
}

// A list in the prefix-plus-tail state, pushed onto after its image,
// survives the app's snapshot and range paths: SnapshotState restores it,
// CaptureRange carries it to another store, its next image restores it, and
// each reads back its posts.
TEST(SnapshotTest, PrefixedListsSurviveRestoreAndRangeMoves) {
  KvService svc;
  KvCommand push;
  push.op = KvOpcode::kRpush;
  std::vector<std::string> posts;
  for (int i = 0; i < 6; ++i) {
    posts.push_back("post-" + std::to_string(i));
  }
  for (const char* key : {"conv:a", "conv:b"}) {
    push.key = key;
    for (size_t i = 0; i < 4; ++i) {
      push.value = posts[i];
      svc.Apply(push);
    }
  }
  svc.SnapshotImage();  // both lists clean
  push.key = "conv:a";
  for (size_t i = 4; i < 6; ++i) {
    push.value = posts[i];
    svc.Apply(push);  // a prefix of four, a tail of two
  }
  EXPECT_FALSE(svc.store().IsEncodedOnly("conv:a"));
  EXPECT_TRUE(svc.store().IsEncodedOnly("conv:b"));

  KvService restored;
  ASSERT_TRUE(restored.RestoreState(svc.SnapshotState()).ok());
  EXPECT_EQ(restored.Digest(), svc.Digest());
  EXPECT_EQ(restored.store().Lrange("conv:a", 0, -1).value(), posts);

  KvService moved;
  ASSERT_TRUE(moved.InstallRange(svc.CaptureRange(0, kShardSlots - 1)).ok());
  EXPECT_EQ(moved.store().ContentDigest(), svc.store().ContentDigest());
  EXPECT_EQ(moved.store().Lrange("conv:a", 0, -1).value(), posts);
  EXPECT_EQ(moved.store().ScanTail("conv:a", 3).value(),
            (std::vector<std::string>{posts[5], posts[4], posts[3]}));

  KvService reimaged;
  ASSERT_TRUE(reimaged.RestoreState(svc.SnapshotImage().Flatten()).ok());
  EXPECT_EQ(reimaged.Digest(), svc.Digest());
  EXPECT_EQ(reimaged.store().Lrange("conv:a", 0, -1).value(), posts);
  EXPECT_TRUE(svc.store().IsEncodedOnly("conv:a"));
}

// The unreadable-snapshot fallback with a compacted log: a node whose
// snapshot file is damaged after compactions cannot replay its WAL tail (its
// base is past genesis), so it comes back suspect from the genesis image,
// the one its peers share, with an empty log, and the leader re-seeds it by
// InstallSnapshot to the leader's state.
TEST(SnapshotTest, UnreadableSnapshotAfterCompactionFallsBackToGenesis) {
  ClusterConfig config = SmallYcsbConfig(707);
  config.server_template.disk_faults = true;
  config.raft.log_retention_entries = 64;
  Fabric fabric(config.seed);
  Cluster cluster(fabric, config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  const std::unique_ptr<StateMachine> genesis = config.app_factory();
  auto client = AttachYcsbClient(cluster, 31);
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(40));
  cluster.sim().RunUntil(t0 + Millis(30));

  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  ReplicatedServer& server = cluster.server(victim);
  ASSERT_GE(server.storage()->stats().snapshots_saved, 3u);
  ASSERT_GT(server.raft()->log().first_index(), 1u);
  ASSERT_NE(server.app().Digest(), genesis->Digest());
  SimDisk* disk = server.disk();
  ASSERT_TRUE(disk->FlipByte("snapshot", disk->Size("snapshot") / 2));

  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(32));
  cluster.RestartNode(victim);
  EXPECT_EQ(server.storage()->stats().suspect_recoveries, 1u);
  EXPECT_TRUE(server.raft()->suspect());
  EXPECT_EQ(server.raft()->log().last_index(), 0u);
  EXPECT_EQ(server.app().Digest(), genesis->Digest());
  EXPECT_EQ(server.app().ApplyCount(), genesis->ApplyCount());

  cluster.sim().RunUntil(t0 + Millis(120));
  ASSERT_EQ(cluster.LeaderId(), leader);
  EXPECT_GE(server.raft()->stats().snapshots_installed, 1u);
  EXPECT_FALSE(server.raft()->suspect());
  EXPECT_EQ(server.raft()->commit_index(), cluster.server(leader).raft()->commit_index());
  EXPECT_EQ(server.app().Digest(), cluster.server(leader).app().Digest());
  EXPECT_EQ(server.app().ApplyCount(), cluster.server(leader).app().ApplyCount());
}

// The dedup state must ride inside InstallSnapshot: a straggler repaired by
// state transfer rebuilds the same session table as the leader, so a
// retransmission arriving after the repair is still recognized as executed.
TEST(SnapshotTest, SessionTableSurvivesSnapshotRepair) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = 103;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  config.raft.log_retention_entries = 256;
  config.server_template.straggler_lag_entries = 512;
  config.server_template.compaction_interval = Millis(5);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);

  SyntheticWorkloadConfig wc;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<SyntheticWorkload>(wc), 50'000, 23);
  cluster.network().Attach(client.get());

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(20));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  cluster.server(victim).set_failed(true);
  cluster.sim().RunUntil(t0 + Millis(150));
  cluster.server(victim).set_failed(false);
  cluster.sim().RunUntil(t0 + Millis(500));

  ASSERT_GE(cluster.server(victim).server_stats().snapshots_restored, 1u);
  ASSERT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(leader).raft()->commit_index());
  // The repaired replica tracked the writer's session across the transfer...
  EXPECT_GT(cluster.server(victim).sessions().client_count(), 0u);
  EXPECT_TRUE(cluster.server(victim).sessions().Executed(RequestId{client->id(), 1}));
  // ...and its whole table is byte-identical to the leader's.
  auto serialize = [](const SessionTable& table) {
    BufferWriter w;
    table.Serialize(&w);
    return w.TakeBytes();
  };
  EXPECT_EQ(serialize(cluster.server(victim).sessions()),
            serialize(cluster.server(leader).sessions()));
}

}  // namespace
}  // namespace hovercraft
