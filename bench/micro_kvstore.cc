// Microbenchmarks for the kvstore data structures and command codec
// (google-benchmark). These measure real wall-clock costs of the store the
// simulator's cost model abstracts, plus the cost of a replica's local
// snapshot of the YCSB-E store (BM_LocalSnapshot), the heap that store
// retains (BM_StoreResidentBytes), the heap a 3-replica cluster of it retains
// (BM_ClusterResidentBytes, which also counts the heap its later replicas'
// preload replays request) and the heap its preload allocates (BM_Preload).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/counting_allocator.h"  // allocation counts and live bytes
#include "src/app/kvstore/command.h"
#include "src/app/kvstore/service.h"
#include "src/app/ycsb.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"

namespace hovercraft {
namespace {

void BM_StoreSetGet(benchmark::State& state) {
  KvStore store;
  Rng rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "key:" + std::to_string(i % 10'000);
    store.Set(key, "value-0123456789");
    benchmark::DoNotOptimize(store.Get(key));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_StoreSetGet);

// Each iteration appends one post to a 10-post conversation rebuilt outside
// the timed region, so the list does not grow across iterations. Arg 1
// images the store first, as most ycsb-e inserts find their list: the post
// goes to the clean list's tail and the encoded posts are not decoded.
void BM_YcsbInsert(benchmark::State& state) {
  KvService svc;
  YcsbEGenerator gen(YcsbEConfig{});
  Rng rng(2);
  KvCommand cmd;
  cmd.op = KvOpcode::kYInsert;
  cmd.key = "conv:1";
  cmd.value = gen.MakeRecord(rng);
  for (auto _ : state) {
    state.PauseTiming();
    svc.store().Del(cmd.key);
    for (int i = 0; i < 10; ++i) {
      svc.Apply(cmd);
    }
    if (state.range(0) == 1) {
      svc.SnapshotImage();
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(svc.Apply(cmd));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cmd.value.size()));
}
BENCHMARK(BM_YcsbInsert)->ArgName("imaged")->Arg(0)->Arg(1);

// Arg 1 scans an imaged store, whose keys are held only as their encoded
// snapshot entries: the scan reads the posts in place.
void BM_YcsbScan(benchmark::State& state) {
  KvService svc;
  YcsbEGenerator gen(YcsbEConfig{});
  Rng rng(3);
  KvCommand insert;
  insert.op = KvOpcode::kYInsert;
  insert.key = "conv:1";
  for (int i = 0; i < 100; ++i) {
    insert.value = gen.MakeRecord(rng);
    svc.Apply(insert);
  }
  if (state.range(0) == 1) {
    svc.SnapshotImage();
  }
  KvCommand scan;
  scan.op = KvOpcode::kYScan;
  scan.key = "conv:1";
  scan.scan_limit = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.Apply(scan));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_YcsbScan)->ArgName("imaged")->Arg(0)->Arg(1);

void BM_CommandEncodeDecode(benchmark::State& state) {
  YcsbEGenerator gen(YcsbEConfig{});
  Rng rng(4);
  KvCommand cmd;
  cmd.op = KvOpcode::kYInsert;
  cmd.key = "conv:42";
  cmd.value = gen.MakeRecord(rng);
  for (auto _ : state) {
    Body body = EncodeKvCommand(cmd);
    auto decoded = DecodeKvCommand(body);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CommandEncodeDecode);

void BM_WorkloadGeneration(benchmark::State& state) {
  YcsbEGenerator gen(YcsbEConfig{});
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadGeneration);

void BM_Counters(benchmark::State& state) {
  KvService svc;
  KvCommand incr;
  incr.op = KvOpcode::kIncr;
  incr.key = "hits";
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.Apply(incr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Counters);

void BM_SetMembership(benchmark::State& state) {
  KvService svc;
  KvCommand sadd;
  sadd.op = KvOpcode::kSadd;
  sadd.key = "members";
  for (int i = 0; i < 10'000; ++i) {
    sadd.value = "user:" + std::to_string(i);
    svc.Apply(sadd);
  }
  KvCommand probe;
  probe.op = KvOpcode::kSismember;
  probe.key = "members";
  uint64_t i = 0;
  for (auto _ : state) {
    probe.value = "user:" + std::to_string(i++ % 20'000);
    benchmark::DoNotOptimize(svc.Apply(probe));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SetMembership);

// A replica's local snapshot of the YCSB-E store (2000 conversations x 10
// posts of 1 KB, the fig13 / ycsb-e dataset: about 20 MB). A 3-node cluster
// runs a light YCSB-E load, so every node persists one snapshot per
// compaction interval; each iteration simulates one interval. Counters:
//   ms_per_snapshot           wall time per snapshot (simulation included);
//   alloc_bytes_per_snapshot  heap bytes allocated per snapshot;
//   alloc_x_image             the same as a multiple of the snapshot file
//                             size. A snapshot allocates the image's parts
//                             vector and re-serializes only the keys changed
//                             since the last one; the file shares every part
//                             and owns only a small head: a few thousandths.
// The allocation counts are a deterministic function of the seed; CI gates
// alloc_x_image (docs/performance.md).
void BM_LocalSnapshot(benchmark::State& state) {
  const YcsbEConfig ycsb;  // 2000 x 10
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.seed = 1;
  config.app_factory = [ycsb]() {
    auto svc = std::make_unique<KvService>();
    Rng rng(13);
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return svc;
  };
  Cluster cluster(config);
  HC_CHECK(cluster.WaitForLeader() != kInvalidNode);
  ClientHost client(
      &cluster.sim(), config.costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(ycsb), 2'000, 7);
  cluster.network().Attach(&client);
  auto snapshots_saved = [&cluster]() {
    uint64_t n = 0;
    for (NodeId node = 0; node < cluster.config().nodes; ++node) {
      n += cluster.server(node).storage()->stats().snapshots_saved;
    }
    return n;
  };

  const TimeNs interval = config.server_template.compaction_interval;
  TimeNs now = cluster.sim().Now();
  client.StartLoad(now, now + interval * static_cast<TimeNs>(state.max_iterations + 2));
  now += interval;  // warm-up: every node writes its first post-genesis snapshot
  cluster.sim().RunUntil(now);

  const uint64_t snapshots_before = snapshots_saved();
  const uint64_t bytes_before = g_alloc_bytes;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    now += interval;
    cluster.sim().RunUntil(now);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const uint64_t bytes = g_alloc_bytes - bytes_before;
  const uint64_t snapshots = snapshots_saved() - snapshots_before;
  HC_CHECK(snapshots > 0);
  const double image = static_cast<double>(cluster.server(0).disk()->Size("snapshot"));
  const double per_snapshot = static_cast<double>(bytes) / static_cast<double>(snapshots);
  state.counters["snapshots"] = static_cast<double>(snapshots);
  state.counters["image_bytes"] = image;
  state.counters["ms_per_snapshot"] = seconds * 1e3 / static_cast<double>(snapshots);
  state.counters["alloc_bytes_per_snapshot"] = per_snapshot;
  state.counters["alloc_x_image"] = per_snapshot / image;
}
BENCHMARK(BM_LocalSnapshot)->Unit(benchmark::kMillisecond)->Iterations(10);

// Heap a replica's YCSB-E store retains (the BM_LocalSnapshot dataset) once
// its first image is taken, as a multiple of that image's size. The image
// leaves each key held only as its encoded entry, shared with the image, so
// the store is about one image plus its index. Counters:
//   image_bytes     the image's size;
//   resident_bytes  g_live_bytes retained by the service, allocator rounding
//                   included; the image itself is dropped;
//   resident_x_image  the ratio, gated in CI (docs/performance.md).
// Live bytes are a deterministic function of the code and the seed.
void BM_StoreResidentBytes(benchmark::State& state) {
  // Materialized before the measured region, which then holds only the store.
  const std::vector<KvCommand> preload = [] {
    const YcsbEConfig ycsb;
    Rng rng(13);
    std::vector<KvCommand> commands;
    commands.reserve(ycsb.conversation_count *
                     static_cast<size_t>(ycsb.preload_per_conversation));
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      commands.push_back(cmd);
    }
    return commands;
  }();
  double image = 0;
  double resident = 0;
  for (auto _ : state) {
    const uint64_t live_before = g_live_bytes;
    auto svc = std::make_unique<KvService>();
    for (const KvCommand& cmd : preload) {
      svc->Apply(cmd);
    }
    image = static_cast<double>(svc->SnapshotImage().size());
    resident = static_cast<double>(g_live_bytes - live_before);
  }
  state.counters["image_bytes"] = image;
  state.counters["resident_bytes"] = resident;
  state.counters["resident_x_image"] = resident / image;
}
BENCHMARK(BM_StoreResidentBytes)->Unit(benchmark::kMillisecond)->Iterations(1);

// Heap a 3-replica YCSB-E cluster (the BM_LocalSnapshot dataset) retains
// once every replica has taken its genesis image, as a multiple of one
// image. Replicas hold the same state, and the fabric's index of published
// parts lets them hold one copy of each key between them: the cluster is
// about one image plus three key indexes, where a copy per replica is 3x.
// Each replica binds that index while its factory preloads it, so a replica
// built after the first replays each key against the part the first
// published, comparing each post in place and holding that part once its
// preload completes the key: the build never holds a second copy, nor
// allocates one. Counters:
//   image_bytes       one replica's genesis image size;
//   resident_bytes    g_live_bytes the cluster retains, allocator rounding
//                     included;
//   resident_x_image  the ratio, gated in CI (docs/performance.md);
//   peak_bytes        the most g_live_bytes held at once while the cluster
//                     was built;
//   peak_x_image      its ratio to the image, gated in CI;
//   replay_alloc_bytes  bytes requested by the factories of replicas 1
//                     and 2, whose preloads replay replica 0's;
//   replay_alloc_x_image  its ratio to the image, gated in CI.
// Live and allocated bytes are a deterministic function of the code and the
// seed.
void BM_ClusterResidentBytes(benchmark::State& state) {
  double image = 0;
  double resident = 0;
  double peak = 0;
  uint64_t replay_bytes = 0;
  for (auto _ : state) {
    const uint64_t live_before = g_live_bytes;
    g_peak_live_bytes = g_live_bytes;
    ClusterConfig config;
    config.mode = ClusterMode::kHovercRaft;
    config.nodes = 3;
    config.seed = 1;
    int built = 0;
    replay_bytes = 0;
    config.app_factory = [&built, &replay_bytes]() {
      const uint64_t bytes_before = g_alloc_bytes;
      auto svc = std::make_unique<KvService>();
      Rng rng(13);
      for (const KvCommand& cmd : YcsbEGenerator(YcsbEConfig{}).PreloadCommands(rng)) {
        svc->Apply(cmd);
      }
      if (built++ > 0) {
        replay_bytes += g_alloc_bytes - bytes_before;
      }
      return svc;
    };
    auto cluster = std::make_unique<Cluster>(config);
    resident = static_cast<double>(g_live_bytes - live_before);
    peak = static_cast<double>(g_peak_live_bytes - live_before);
    image = static_cast<double>(cluster->server(0).app().SnapshotImage().size());
  }
  state.counters["image_bytes"] = image;
  state.counters["resident_bytes"] = resident;
  state.counters["resident_x_image"] = resident / image;
  state.counters["peak_bytes"] = peak;
  state.counters["peak_x_image"] = peak / image;
  state.counters["replay_alloc_bytes"] = static_cast<double>(replay_bytes);
  state.counters["replay_alloc_x_image"] = static_cast<double>(replay_bytes) / image;
}
BENCHMARK(BM_ClusterResidentBytes)->Unit(benchmark::kMillisecond)->Iterations(1);

// Heap allocated to preload one YCSB-E store (2000 conversations x 10 posts
// of 1 KB), as a multiple of the heap that store retains. The preload
// streams its commands through one reused KvCommand, so it allocates about
// what the store keeps. Counters:
//   alloc_bytes       bytes requested while generating and applying;
//   resident_bytes    g_live_bytes the store retains afterwards;
//   alloc_x_resident  the ratio, gated in CI (docs/performance.md).
// Both are a deterministic function of the code and the seed.
void BM_Preload(benchmark::State& state) {
  double allocated = 0;
  double resident = 0;
  for (auto _ : state) {
    const uint64_t bytes_before = g_alloc_bytes;
    const uint64_t live_before = g_live_bytes;
    auto svc = std::make_unique<KvService>();
    Rng rng(13);
    for (const KvCommand& cmd : YcsbEGenerator(YcsbEConfig{}).PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    allocated = static_cast<double>(g_alloc_bytes - bytes_before);
    resident = static_cast<double>(g_live_bytes - live_before);
  }
  state.counters["alloc_bytes"] = allocated;
  state.counters["resident_bytes"] = resident;
  state.counters["alloc_x_resident"] = allocated / resident;
}
BENCHMARK(BM_Preload)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace hovercraft

BENCHMARK_MAIN();
