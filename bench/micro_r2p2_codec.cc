// Microbenchmarks for the R2P2 wire codec and packetizer (google-benchmark).
//
// Every benchmark reports an `allocs_per_op` counter from an interposed
// global operator new: the pooled/zero-copy tier (*_Pooled, *RoundTrip)
// must sit at 0.0 in steady state, while the legacy copying tier shows the
// allocation churn the pool removes (micro_wire_path is the hard gate; the
// counters here are the per-benchmark breakdown).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/common/check.h"
#include "src/r2p2/packetizer.h"
#include "src/r2p2/serdes.h"
#include "src/r2p2/wire.h"

static uint64_t g_allocs = 0;

// Out of line: once inlined next to a delete-expression, the malloc/free
// pairing trips -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
[[gnu::noinline]] void* operator new[](size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace hovercraft {
namespace {

// Tracks heap allocations across the timed loop and reports them per
// iteration (first-iteration warmup — pool refills, vector growth — is
// amortized into the average, so steady-state-zero paths read as ~0.0).
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state) : state_(state), start_(g_allocs) {}
  ~AllocCounter() {
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(g_allocs - start_) / static_cast<double>(state_.iterations()));
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
  const std::vector<uint8_t> body(static_cast<size_t>(state.range(0)), 0xAB);
  const WireHeader h = SampleHeader();
  for (auto _ : state) {
    auto packets = Fragment(h, body, 1436);
    benchmark::DoNotOptimize(packets);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FragmentMessage)->Arg(24)->Arg(512)->Arg(6000)->Arg(65536);

void BM_ReassembleMessage(benchmark::State& state) {
  const std::vector<uint8_t> body(static_cast<size_t>(state.range(0)), 0xCD);
  WireHeader h = SampleHeader();
  uint16_t req = 0;
  for (auto _ : state) {
    state.PauseTiming();
    h.req_id = ++req;
    auto packets = Fragment(h, body, 1436);
    state.ResumeTiming();
    Reassembler r;
    for (const auto& pkt : packets) {
      auto done = r.Feed(pkt, 0);
      benchmark::DoNotOptimize(done);
    }
    auto complete = r.TakeCompleted();
    benchmark::DoNotOptimize(complete);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ReassembleMessage)->Arg(1436)->Arg(6000)->Arg(65536);

void BM_SerializeRequestEndToEnd(benchmark::State& state) {
  // Full wire path: typed message -> header + fragments -> reassemble -> typed.
  std::vector<uint8_t> body(static_cast<size_t>(state.range(0)), 0x5A);
  RpcRequest req(RequestId{1, 99}, R2p2Policy::kReplicatedReq, MakeBody(std::move(body)));
  for (auto _ : state) {
    auto packets = SerializeRequest(req, 1436);
    Reassembler r;
    for (const auto& pkt : packets) {
      auto done = r.Feed(pkt, 0);
      benchmark::DoNotOptimize(done);
    }
    auto decoded = DecodeR2p2Message(r.TakeCompleted());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SerializeRequestEndToEnd)->Arg(24)->Arg(512)->Arg(6000);

void BM_SerializeRequestEndToEnd_Pooled(benchmark::State& state) {
  // Same round trip through the zero-copy tier: gather-encode into pooled
  // frames, bitmap reassembly, view decode. allocs_per_op must read ~0.
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

void BM_DecodeR2p2Message(benchmark::State& state) {
  // Decode alone (legacy copying tier): reassemble once per iteration from a
  // pre-built packet stream, then typed decode with body copy-out.
  std::vector<uint8_t> body(static_cast<size_t>(state.range(0)), 0x77);
  RpcRequest req(RequestId{3, 21}, R2p2Policy::kReplicatedReq, MakeBody(std::move(body)));
  const std::vector<WirePacket> packets = SerializeRequest(req, 1436);
  AllocCounter allocs(state);
  for (auto _ : state) {
    Reassembler r;
    for (const auto& pkt : packets) {
      auto done = r.Feed(pkt, 0);
      benchmark::DoNotOptimize(done);
    }
    auto decoded = DecodeR2p2Message(r.TakeCompleted());
    HC_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DecodeR2p2Message)->Arg(24)->Arg(512)->Arg(6000);

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

void BM_FeedbackRoundTrip_Legacy(benchmark::State& state) {
  const FeedbackMsg feedback(RequestId{5, 77});
  AllocCounter allocs(state);
  for (auto _ : state) {
    auto packets = SerializeFeedback(feedback);
    Reassembler r;
    for (const auto& pkt : packets) {
      auto done = r.Feed(pkt, 0);
      benchmark::DoNotOptimize(done);
    }
    auto decoded = DecodeR2p2Message(r.TakeCompleted());
    HC_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FeedbackRoundTrip_Legacy);

}  // namespace
}  // namespace hovercraft

BENCHMARK_MAIN();
