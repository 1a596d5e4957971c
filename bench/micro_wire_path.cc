// Zero-copy wire path microbench + acceptance gate (ISSUE 9).
//
// Drives the R2P2 codec — gather Fragment into slab-pooled frames, bitmap
// reassembly, zero-copy view decode — through steady-state loops and *counts
// heap allocations per operation* with the interposed global operator new
// of bench/counting_allocator.h. The whole point of the slab/arena discipline is that
// the steady state allocates nothing, so this bench is a gate, not a report:
//
//   - allocations/op must be exactly 0 for every pooled scenario;
//   - the buffer pool must balance to 0 outstanding buffers at teardown;
//   - ns/op and bytes/sec are recorded for the perf-smoke regression check.
//
// With --metrics-out=..., gauges land under "micro_wire_path/<scenario>/...".
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/counting_allocator.h"
#include "src/common/check.h"
#include "src/r2p2/serdes.h"

namespace hovercraft {
namespace {

constexpr size_t kMtu = 1436;
constexpr uint64_t kWarmupOps = 2'000;
constexpr uint64_t kMeasureOps = 200'000;

std::vector<uint8_t> PatternBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return bytes;
}

struct ScenarioResult {
  double ns_per_op = 0;
  double bytes_per_sec = 0;
  uint64_t allocs = 0;  // over the whole measured window
  uint64_t ops = 0;
  int64_t payload_bytes = 0;
};

// Runs fn() kWarmupOps times (pool refills, vector capacity growth), then
// kMeasureOps times under the allocation counter and the wall clock.
template <typename Fn>
ScenarioResult RunScenario(int64_t payload_bytes, Fn&& fn) {
  ScenarioResult r;
  r.ops = kMeasureOps;
  r.payload_bytes = payload_bytes;
  for (uint64_t i = 0; i < kWarmupOps; ++i) {
    fn();
  }
  const uint64_t allocs_before = g_alloc_calls;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kMeasureOps; ++i) {
    fn();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.allocs = g_alloc_calls - allocs_before;
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  r.ns_per_op = seconds * 1e9 / static_cast<double>(kMeasureOps);
  r.bytes_per_sec =
      static_cast<double>(payload_bytes) * static_cast<double>(kMeasureOps) / seconds;
  return r;
}

void Report(benchutil::BenchIo& io, const char* name, const ScenarioResult& r,
            bool gate_zero_alloc) {
  std::printf("%-24s %8.1f ns/op  %8.1f MB/s  %llu allocs / %llu ops%s\n", name, r.ns_per_op,
              r.bytes_per_sec / 1e6, static_cast<unsigned long long>(r.allocs),
              static_cast<unsigned long long>(r.ops), gate_zero_alloc ? "  [gate: 0]" : "");
  const std::string scope = std::string("micro_wire_path/") + name + "/";
  io.RecordGauge(scope + "ns_per_op_x10", static_cast<int64_t>(r.ns_per_op * 10));
  io.RecordGauge(scope + "bytes_per_sec", static_cast<int64_t>(r.bytes_per_sec));
  io.RecordCounter(scope + "allocs_per_window", r.allocs);
  if (gate_zero_alloc && r.allocs != 0) {
    std::fprintf(stderr, "FAIL: %s allocated %llu times in steady state (gate: 0)\n", name,
                 static_cast<unsigned long long>(r.allocs));
    io.Fail();
  }
}

}  // namespace
}  // namespace hovercraft

int main(int argc, char** argv) {
  using namespace hovercraft;
  benchutil::BenchIo io(argc, argv);
  benchutil::PrintHeader("micro_wire_path: pooled zero-copy codec, allocations/op gate",
                         "ISSUE 9 (zero-copy wire path; eRPC-style pooling discipline)");

  {
    BufPool pool;
    {
      const RpcRequest small_req(RequestId{7, 42}, R2p2Policy::kReplicatedReq,
                                 MakeBody(PatternBytes(24)));
      const RpcRequest big_req(RequestId{7, 43}, R2p2Policy::kReplicatedReq,
                               MakeBody(PatternBytes(6000)));
      const FeedbackMsg feedback(RequestId{7, 44});

      std::vector<BufRef> frames;

      // Encode: gather header + extension + payload into pooled frames.
      Report(io, "encode_small",
             RunScenario(24,
                         [&]() {
                           SerializeRequestInto(pool, small_req, kMtu, frames);
                           frames.clear();
                         }),
             /*gate_zero_alloc=*/true);
      Report(io, "encode_multi_frame",
             RunScenario(6000,
                         [&]() {
                           SerializeRequestInto(pool, big_req, kMtu, frames);
                           frames.clear();
                         }),
             /*gate_zero_alloc=*/true);
      Report(io, "encode_feedback",
             RunScenario(0,
                         [&]() {
                           SerializeFeedbackInto(pool, feedback, frames);
                           frames.clear();
                         }),
             /*gate_zero_alloc=*/true);

      // Full round trip, single-fragment fast path: the arrival frame IS the
      // message body (zero memcpy); decode is a refcounted slice.
      {
        Reassembler reassembler(&pool);
        Report(io, "rtt_small_fastpath",
               RunScenario(24,
                           [&]() {
                             SerializeRequestInto(pool, small_req, kMtu, frames);
                             for (const BufRef& f : frames) {
                               auto done = reassembler.Feed(f, 0);
                               HC_CHECK(done.ok());
                             }
                             frames.clear();
                             auto view = DecodeR2p2View(reassembler.TakeCompleted());
                             HC_CHECK(view.ok());
                             HC_CHECK_EQ(view.value().body.size(), 24u);
                           }),
               /*gate_zero_alloc=*/true);

        // Multi-fragment: bitmap-tracked placement into one pooled buffer,
        // map nodes recycled through the free list.
        Report(io, "rtt_multi_frame",
               RunScenario(6000,
                           [&]() {
                             SerializeRequestInto(pool, big_req, kMtu, frames);
                             for (const BufRef& f : frames) {
                               auto done = reassembler.Feed(f, 0);
                               HC_CHECK(done.ok());
                             }
                             frames.clear();
                             auto view = DecodeR2p2View(reassembler.TakeCompleted());
                             HC_CHECK(view.ok());
                             HC_CHECK_EQ(view.value().body.size(), 6000u);
                           }),
               /*gate_zero_alloc=*/true);
      }
    }

    // Pool leak gate: every frame and body ref has been dropped.
    std::printf("pool: allocated=%llu outstanding=%llu slab_refills=%llu  [gate: outstanding 0]\n",
                static_cast<unsigned long long>(pool.allocated()),
                static_cast<unsigned long long>(pool.outstanding()),
                static_cast<unsigned long long>(pool.slab_refills()));
    io.RecordCounter("micro_wire_path/pool/allocated", pool.allocated());
    io.RecordCounter("micro_wire_path/pool/outstanding_at_teardown", pool.outstanding());
    io.RecordCounter("micro_wire_path/pool/slab_refills", pool.slab_refills());
    if (pool.outstanding() != 0) {
      std::fprintf(stderr, "FAIL: %llu pooled buffers leaked (gate: 0)\n",
                   static_cast<unsigned long long>(pool.outstanding()));
      io.Fail();
    }
  }

  return io.Finish();
}
