// Microbenchmarks for the R2P2 wire codec and packetizer (google-benchmark).
//
// Every benchmark reports an `allocs_per_op` counter from the interposed
// global operator new of bench/counting_allocator.h: the pooled frame paths
// must sit at 0.0 in steady state (micro_wire_path is the hard gate; the
// counters here are the per-benchmark breakdown).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/counting_allocator.h"
#include "src/common/check.h"
#include "src/r2p2/packetizer.h"
#include "src/r2p2/serdes.h"
#include "src/r2p2/wire.h"

namespace hovercraft {
namespace {

// Tracks heap allocations across the timed loop and reports them per
// iteration (first-iteration warmup — pool refills, vector growth — is
// amortized into the average, so steady-state-zero paths read as ~0.0).
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state) : state_(state), start_(g_alloc_calls) {}
  ~AllocCounter() {
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(g_alloc_calls - start_) / static_cast<double>(state_.iterations()));
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
};

WireHeader SampleHeader() {
  WireHeader h;
  h.type = WireType::kRequest;
  h.policy = 1;
  h.req_id = 1234;
  h.src_ip = 0x0A000001;
  h.src_port = 9999;
  return h;
}

void BM_EncodeHeader(benchmark::State& state) {
  const WireHeader h = SampleHeader();
  std::vector<uint8_t> buf(kWireHeaderBytes);
  AllocCounter allocs(state);
  for (auto _ : state) {
    EncodeWireHeader(h, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EncodeHeader);

void BM_DecodeHeader(benchmark::State& state) {
  std::vector<uint8_t> buf(kWireHeaderBytes);
  EncodeWireHeader(SampleHeader(), buf);
  AllocCounter allocs(state);
  for (auto _ : state) {
    auto result = DecodeWireHeader(buf);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeHeader);

void BM_FragmentMessage(benchmark::State& state) {
  BufPool pool;
  const std::vector<uint8_t> body(static_cast<size_t>(state.range(0)), 0xAB);
  const WireHeader h = SampleHeader();
  std::vector<BufRef> frames;
  AllocCounter allocs(state);
  for (auto _ : state) {
    Fragment(pool, h, body, 1436, frames);
    benchmark::DoNotOptimize(frames.data());
    frames.clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FragmentMessage)->Arg(24)->Arg(512)->Arg(6000)->Arg(65536);

void BM_ReassembleMessage(benchmark::State& state) {
  // Reassembly alone: the frames are cut once and fed again every
  // iteration (a completed message leaves no state behind its key).
  BufPool pool;
  const std::vector<uint8_t> body(static_cast<size_t>(state.range(0)), 0xCD);
  std::vector<BufRef> frames;
  Fragment(pool, SampleHeader(), body, 1436, frames);
  Reassembler reassembler(&pool);
  AllocCounter allocs(state);
  for (auto _ : state) {
    for (const BufRef& f : frames) {
      auto done = reassembler.Feed(f, 0);
      benchmark::DoNotOptimize(done);
    }
    auto complete = reassembler.TakeCompleted();
    benchmark::DoNotOptimize(complete);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ReassembleMessage)->Arg(1436)->Arg(6000)->Arg(65536);

void BM_SerializeRequestEndToEnd_Pooled(benchmark::State& state) {
  // Full wire path: typed message -> gather-encode into pooled frames ->
  // bitmap reassembly -> view decode. allocs_per_op must read ~0.
  BufPool pool;
  std::vector<uint8_t> body(static_cast<size_t>(state.range(0)), 0x5A);
  RpcRequest req(RequestId{1, 99}, R2p2Policy::kReplicatedReq, MakeBody(std::move(body)));
  Reassembler reassembler(&pool);
  std::vector<BufRef> frames;
  {
    AllocCounter allocs(state);
    for (auto _ : state) {
      SerializeRequestInto(pool, req, 1436, frames);
      for (const BufRef& f : frames) {
        auto done = reassembler.Feed(f, 0);
        benchmark::DoNotOptimize(done);
      }
      frames.clear();
      auto view = DecodeR2p2View(reassembler.TakeCompleted());
      HC_CHECK(view.ok());
      benchmark::DoNotOptimize(view);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SerializeRequestEndToEnd_Pooled)->Arg(24)->Arg(512)->Arg(6000);

void BM_FeedbackRoundTrip(benchmark::State& state) {
  // FEEDBACK is the highest-rate control message in HovercRaft (one per
  // committed request from every replier); its round trip must be pool-clean.
  BufPool pool;
  const FeedbackMsg feedback(RequestId{5, 77});
  Reassembler reassembler(&pool);
  std::vector<BufRef> frames;
  AllocCounter allocs(state);
  for (auto _ : state) {
    SerializeFeedbackInto(pool, feedback, frames);
    for (const BufRef& f : frames) {
      auto done = reassembler.Feed(f, 0);
      benchmark::DoNotOptimize(done);
    }
    frames.clear();
    auto view = DecodeR2p2View(reassembler.TakeCompleted());
    HC_CHECK(view.ok());
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FeedbackRoundTrip);

void BM_NackRoundTrip(benchmark::State& state) {
  BufPool pool;
  const NackMsg nack(RequestId{6, 88});
  Reassembler reassembler(&pool);
  std::vector<BufRef> frames;
  AllocCounter allocs(state);
  for (auto _ : state) {
    SerializeNackInto(pool, nack, frames);
    for (const BufRef& f : frames) {
      auto done = reassembler.Feed(f, 0);
      benchmark::DoNotOptimize(done);
    }
    frames.clear();
    auto view = DecodeR2p2View(reassembler.TakeCompleted());
    HC_CHECK(view.ok());
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NackRoundTrip);

}  // namespace
}  // namespace hovercraft

BENCHMARK_MAIN();
