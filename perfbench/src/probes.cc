#include "probes.h"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace hovercraft::perfbench {

uint32_t SpanLog::Begin(const char* name, uint32_t parent) {
  spans_.push_back(Span{name, WallNs(), -1, parent});
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::End(uint32_t id) {
  Span& span = spans_[id - 1];
  span.dur_ns = WallNs() - span.start_ns;
}

void SpanLog::Add(const char* name, uint32_t parent, int64_t start_ns, int64_t dur_ns) {
  spans_.push_back(Span{name, start_ns, dur_ns, parent});
}

void SpanLog::WriteChromeJson(std::ostream& out) const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%" PRIu32 "}}",
                  i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, i + 1, s.parent);
    out << buf;
  }
  out << "\n]}\n";
}

std::string SpanLog::SelfTimeTable() const {
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.dur_ns > 0) {
      child_ns[s.parent] += s.dur_ns;
    }
  }
  struct Total {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Total> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Total& t = totals[s.name];
    ++t.count;
    t.total_ns += s.dur_ns;
    t.self_ns += s.dur_ns - child_ns[i + 1];
  }
  std::string out = "  span              count      total_ms       self_ms\n";
  char buf[128];
  for (const auto& [name, t] : totals) {
    std::snprintf(buf, sizeof(buf), "  %-12s %10" PRIu64 " %13.3f %13.3f\n", name.c_str(), t.count,
                  static_cast<double>(t.total_ns) / 1e6, static_cast<double>(t.self_ns) / 1e6);
    out += buf;
  }
  return out;
}

ExecResult TimedStateMachine::Execute(const RpcRequest& request) {
  const int64_t start = WallNs();
  ExecResult result = inner_->Execute(request);
  const int64_t dur = WallNs() - start;
  timer_->ns += dur;
  if (++timer_->calls % kSpanSampleEvery == 0 && spans_ != nullptr) {
    spans_->Add("app.exec", spans_->current(), start, dur);
  }
  return result;
}

Workload::Op TimedWorkload::Next(Rng& rng) {
  const int64_t start = WallNs();
  Op op = inner_->Next(rng);
  const int64_t dur = WallNs() - start;
  timer_->ns += dur;
  if (++timer_->calls % kSpanSampleEvery == 0 && spans_ != nullptr) {
    spans_->Add("loadgen.next", spans_->current(), start, dur);
  }
  return op;
}

void RequestLog::OnInvoke(HostId /*client*/, uint64_t seq, R2p2Policy /*policy*/,
                          const Body& body, TimeNs at) {
  if (seq != records_.size() + 1) {
    ++protocol_errors_;
    return;
  }
  records_.push_back(Record{at, kOpen});
  body_bytes_ += static_cast<uint64_t>(BodySize(body));
}

void RequestLog::OnComplete(HostId /*client*/, uint64_t seq, const Body& reply, TimeNs at) {
  if (seq == 0 || seq > records_.size() || records_[seq - 1].done != kOpen) {
    ++protocol_errors_;
    return;
  }
  records_[seq - 1].done = at;
  if (!check_(reply)) {
    ++bad_replies_;
  }
}

void RequestLog::OnNack(HostId /*client*/, uint64_t seq, TimeNs /*at*/) {
  if (seq == 0 || seq > records_.size() || records_[seq - 1].done != kOpen) {
    ++protocol_errors_;
    return;
  }
  records_[seq - 1].done = kNacked;
}

void TrialBlameSink::OnFrEvent(const obs::FrEvent& event) {
  if (event.type != obs::FrType::kStage) {
    return;
  }
  if (static_cast<obs::Stage>(event.c) == obs::Stage::kClientSend &&
      (event.ts < from_ || event.ts >= to_)) {
    return;
  }
  obs::FrEvent shifted = event;
  shifted.a += client_offset_;
  path_->OnFrEvent(shifted);
}

}  // namespace hovercraft::perfbench
