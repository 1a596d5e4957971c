// Probes the benchmark attaches to the simulator from outside, through its
// public interfaces only: an exact per-request latency log (a
// ClientHost::Observer), wall-clock decorators around the StateMachine and
// Workload interfaces, an in-memory span log, and the allocation counters of
// alloc_counter.cc.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/app/state_machine.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/obs/critical_path.h"
#include "src/obs/flight_recorder.h"

namespace hovercraft::perfbench {

// Heap allocations made by the whole process so far (alloc_counter.cc).
struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
AllocCounts AllocCountsNow();

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans kept in memory and written out when the run ends (Chrome trace-event
// JSON). Ids are 1-based; parent 0 means a root span. Sampled spans hang
// under current(), the simulator slice that was running when they fired.
class SpanLog {
 public:
  uint32_t Begin(const char* name, uint32_t parent);
  void End(uint32_t id);
  void Add(const char* name, uint32_t parent, int64_t start_ns, int64_t dur_ns);
  uint32_t current() const { return current_; }
  void set_current(uint32_t id) { current_ = id; }
  size_t size() const { return spans_.size(); }

  void WriteChromeJson(std::ostream& out) const;
  // Per span name: count, total and self time (duration minus the part
  // covered by child spans).
  std::string SelfTimeTable() const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    uint32_t parent;
  };
  std::vector<Span> spans_;
  uint32_t current_ = 0;
};

// Wall time spent in one interface, accumulated by a decorator.
struct CallTimer {
  uint64_t calls = 0;
  int64_t ns = 0;
};

// Every this many calls, a decorator also records its call as a span.
constexpr uint64_t kSpanSampleEvery = 256;

// Transparent StateMachine decorator that times Execute().
class TimedStateMachine final : public StateMachine {
 public:
  TimedStateMachine(std::unique_ptr<StateMachine> inner, CallTimer* timer, SpanLog* spans)
      : inner_(std::move(inner)), timer_(timer), spans_(spans) {}

  ExecResult Execute(const RpcRequest& request) override;
  uint64_t Digest() const override { return inner_->Digest(); }
  uint64_t ApplyCount() const override { return inner_->ApplyCount(); }
  Body SnapshotState() const override { return inner_->SnapshotState(); }
  Status RestoreState(const Body& snapshot) override { return inner_->RestoreState(snapshot); }
  Body CaptureRange(uint32_t lo_slot, uint32_t hi_slot) const override {
    return inner_->CaptureRange(lo_slot, hi_slot);
  }
  Status InstallRange(const Body& range) override { return inner_->InstallRange(range); }
  Status DropRange(uint32_t lo_slot, uint32_t hi_slot) override {
    return inner_->DropRange(lo_slot, hi_slot);
  }

 private:
  std::unique_ptr<StateMachine> inner_;
  CallTimer* timer_;
  SpanLog* spans_;
};

// Transparent Workload decorator that times Next().
class TimedWorkload final : public Workload {
 public:
  TimedWorkload(std::unique_ptr<Workload> inner, CallTimer* timer, SpanLog* spans)
      : inner_(std::move(inner)), timer_(timer), spans_(spans) {}
  Op Next(Rng& rng) override;

 private:
  std::unique_ptr<Workload> inner_;
  CallTimer* timer_;
  SpanLog* spans_;
};

// Exact per-request record of one client: when each request was sent, and
// when it completed or was NACKed. Sequence numbers are dense from 1.
class RequestLog final : public ClientHost::Observer {
 public:
  static constexpr TimeNs kOpen = -1;    // never resolved
  static constexpr TimeNs kNacked = -2;  // pushed back by flow control
  struct Record {
    TimeNs sent = 0;
    TimeNs done = kOpen;  // completion time, or kOpen / kNacked
  };
  // Returns true when a reply body is well formed for the workload.
  using ReplyCheck = bool (*)(const Body& reply);

  explicit RequestLog(ReplyCheck check) : check_(check) {}

  void OnInvoke(HostId client, uint64_t seq, R2p2Policy policy, const Body& body,
                TimeNs at) override;
  void OnComplete(HostId client, uint64_t seq, const Body& reply, TimeNs at) override;
  void OnNack(HostId client, uint64_t seq, TimeNs at) override;

  const std::vector<Record>& records() const { return records_; }
  uint64_t body_bytes() const { return body_bytes_; }  // summed over requests sent
  uint64_t bad_replies() const { return bad_replies_; }
  // Callbacks that did not match the client's history (unknown seq, a
  // second resolution of one request).
  uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  ReplyCheck check_;
  std::vector<Record> records_;
  uint64_t body_bytes_ = 0;
  uint64_t bad_replies_ = 0;
  uint64_t protocol_errors_ = 0;
};

// Feeds one trial's stage marks into a CriticalPath shared by all trials of
// a run. Only requests sent in [from, to) are attributed, the population the
// exact percentiles cover: the analyzer ignores a request whose client-send
// mark it never saw. Each trial restarts the client sequence numbers, so the
// client id is shifted per trial to keep request ids of different trials
// apart.
class TrialBlameSink final : public obs::FlightRecorder::Sink {
 public:
  TrialBlameSink(obs::CriticalPath* path, uint64_t client_offset, TimeNs from, TimeNs to)
      : path_(path), client_offset_(client_offset), from_(from), to_(to) {}
  void OnFrEvent(const obs::FrEvent& event) override;

 private:
  obs::CriticalPath* path_;
  uint64_t client_offset_;
  TimeNs from_;
  TimeNs to_;
};

}  // namespace hovercraft::perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
