#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "src/common/check.h"

namespace hovercraft {
namespace obs {
namespace {

// Latest-constructed recorder; the CHECK-failure hook dumps this one.
FlightRecorder* g_active = nullptr;

void DumpActiveOnCheckFailure() {
  if (g_active != nullptr) {
    g_active->DumpNow("CHECK failure");
  }
}

// Chrome trace timestamps are microseconds; keep nanosecond precision as a
// fixed three-decimal fraction so the output is deterministic.
void AppendTs(std::string& out, TimeNs ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000, ns % 1000);
  out += buf;
}

// Escapes a string for inclusion inside a JSON string literal.
std::string JsonEscape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* ResourceName(uint32_t resource) {
  switch (static_cast<FrResource>(resource)) {
    case FrResource::kNet:
      return "net thread";
    case FrResource::kNic:
      return "nic tx";
    case FrResource::kApp:
      return "app thread";
  }
  return "?";
}

// Track layout of the export. Process 0 is the cluster (ring 0: clients,
// middleboxes, the fabric); node n is process n + 1. Thread 0 of every
// process carries its instants (and, on the cluster, the request spans);
// busy spans get one thread per resource — per host on the cluster, whose
// ring several clients share.
int32_t ProcessOf(const FrEvent& e) {
  return e.type == FrType::kStage ? 0 : static_cast<int32_t>(e.node + 1);
}

int32_t ThreadOf(const FrEvent& e) {
  if (e.type != FrType::kBusy) {
    return 0;
  }
  const auto resource = static_cast<int32_t>(e.c & 0xff);
  const auto host = static_cast<int32_t>(e.c >> 8);
  return ProcessOf(e) == 0 ? 4 * (host + 1) + resource : 1 + resource;
}

std::string ThreadName(const FrEvent& e) {
  if (e.type != FrType::kBusy) {
    return "events";
  }
  const std::string resource = ResourceName(e.c & 0xff);
  return ProcessOf(e) == 0 ? "host " + std::to_string(e.c >> 8) + " " + resource : resource;
}

// A kBusy span is recorded at submit time but starts once the resource
// frees; the export places it at its start.
TimeNs EmitTs(const FrEvent& e) {
  return e.type == FrType::kBusy ? static_cast<TimeNs>(e.a) : e.ts;
}

std::string RidKey(uint64_t client, uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "c%" PRIu64 ":%" PRIu64, client, seq);
  return buf;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kClientSend:
      return "client_send";
    case Stage::kRetransmit:
      return "retransmit";
    case Stage::kReplicaRx:
      return "replica_rx";
    case Stage::kOrdered:
      return "ordered";
    case Stage::kCommitted:
      return "committed";
    case Stage::kDispatched:
      return "dispatched";
    case Stage::kReadGranted:
      return "read_granted";
    case Stage::kApplyStart:
      return "apply_start";
    case Stage::kApplyEnd:
      return "apply_end";
    case Stage::kReplySent:
      return "reply_sent";
    case Stage::kComplete:
      return "complete";
    case Stage::kNacked:
      return "nacked";
  }
  return "?";
}

const char* FrTypeName(FrType type) {
  switch (type) {
    case FrType::kStage:
      return "stage";
    case FrType::kRole:
      return "role";
    case FrType::kCommit:
      return "commit";
    case FrType::kCommitLoss:
      return "commit_loss";
    case FrType::kDurable:
      return "durable";
    case FrType::kLeaseGrant:
      return "lease_grant";
    case FrType::kLeaseExpire:
      return "lease_expire";
    case FrType::kConfig:
      return "config";
    case FrType::kWalFlush:
      return "wal_flush";
    case FrType::kRecovery:
      return "recovery";
    case FrType::kApply:
      return "apply";
    case FrType::kFlow:
      return "flow";
    case FrType::kViolation:
      return "violation";
    case FrType::kBusy:
      return "busy";
    case FrType::kDrop:
      return "drop";
    case FrType::kNote:
      return "note";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t depth) {
  size_t rounded = 1;
  while (rounded < depth) {
    rounded <<= 1;
  }
  mask_ = rounded - 1;
  rings_.reserve(8);
  g_active = this;
  SetCheckFailureHook(&DumpActiveOnCheckFailure);
}

FlightRecorder::~FlightRecorder() {
  if (g_active == this) {
    g_active = nullptr;
  }
}

FlightRecorder* FlightRecorder::active() { return g_active; }

static_assert(alignof(FrEvent) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
              "a slab from plain operator new[] holds aligned events");

void FlightRecorder::GrowRing(size_t idx) {
  // Allocate densely through idx so the hot-path guard stays a single
  // limit compare (no per-ring null check). Node ids are small and dense in
  // practice, so the worst case is a handful of idle slabs.
  rings_.resize(idx + 1);
  for (size_t i = ring_limit_; i <= idx; ++i) {
    slabs_.emplace_back(static_cast<FrEvent*>(::operator new[]((mask_ + 1) * sizeof(FrEvent))));
    rings_[i].events = slabs_.back().get();
  }
  ring_limit_ = idx + 1;
}

void FlightRecorder::Dispatch(const FrEvent& event) {
  for (int i = 0; i < sink_count_; ++i) {
    sinks_[i]->OnFrEvent(event);
  }
}

void FlightRecorder::AddSink(Sink* sink) {
  HC_CHECK(sink != nullptr);
  HC_CHECK_LT(sink_count_, kMaxSinks);
  sinks_[sink_count_++] = sink;
}

void FlightRecorder::RemoveSink(Sink* sink) {
  for (int i = 0; i < sink_count_; ++i) {
    if (sinks_[i] == sink) {
      for (int j = i; j + 1 < sink_count_; ++j) {
        sinks_[j] = sinks_[j + 1];
      }
      sinks_[--sink_count_] = nullptr;
      return;
    }
  }
}

void FlightRecorder::Note(TimeNs ts, NodeId node, std::string_view text, uint64_t b,
                          uint32_t c) {
  size_t index = 0;
  while (index < notes_.size() && notes_[index] != text) {
    ++index;
  }
  if (index == notes_.size()) {
    notes_.emplace_back(text);
  }
  Record(ts, node, FrType::kNote, index, b, c);
}

void FlightRecorder::WriteDump(std::ostream& out) const {
  // Collect the surviving window of every ring, then merge by (emitted ts,
  // node, seq) so the dump is a single deterministic cluster-wide timeline.
  std::vector<const FrEvent*> merged;
  for (const Ring& ring : rings_) {
    const uint64_t kept = std::min<uint64_t>(ring.count, mask_ + 1);
    for (uint64_t i = ring.count - kept; i < ring.count; ++i) {
      merged.push_back(&ring.events[i & mask_]);
    }
  }
  std::sort(merged.begin(), merged.end(), [](const FrEvent* a, const FrEvent* b) {
    if (EmitTs(*a) != EmitTs(*b)) return EmitTs(*a) < EmitTs(*b);
    if (a->node != b->node) return a->node < b->node;
    return a->seq < b->seq;
  });

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    out << (first ? "\n" : ",\n") << obj;
    first = false;
  };
  // Track metadata first: every process and thread the events use, named
  // after the first event seen on it.
  std::map<std::pair<int32_t, int32_t>, const FrEvent*> tracks;
  for (const FrEvent* e : merged) {
    tracks.try_emplace({ProcessOf(*e), ThreadOf(*e)}, e);
  }
  int32_t named_pid = -1;
  for (const auto& [track, e] : tracks) {
    const auto [pid, tid] = track;
    if (pid != named_pid) {
      emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"args\":{\"name\":\"" +
           (pid == 0 ? std::string("cluster") : "node " + std::to_string(pid - 1)) + "\"}}");
      named_pid = pid;
    }
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":\"" + ThreadName(*e) +
         "\"}}");
  }

  // One async span per request: opened by its first surviving stage mark,
  // closed by its terminal mark (complete / nacked). A terminal mark whose
  // opening rotated out of the ring opens and closes in place, and spans
  // still open at the end close at the last timestamp, so begin/end always
  // balance.
  auto request_event = [&](char phase, const std::string& id, TimeNs ts, const char* stage,
                           NodeId node) {
    std::string obj = "{\"ph\":\"";
    obj += phase;
    obj += "\",\"cat\":\"req\",\"id\":\"" + id + "\",\"name\":\"req " + id +
           "\",\"pid\":0,\"tid\":0,\"ts\":";
    AppendTs(obj, ts);
    obj += ",\"args\":{\"stage\":\"";
    obj += stage;
    obj += "\"";
    if (node != kInvalidNode) {
      obj += ",\"node\":" + std::to_string(node);
    }
    obj += "}}";
    emit(obj);
  };
  std::map<std::pair<uint64_t, uint64_t>, bool> open;  // (client, seq) -> span open
  TimeNs last_ts = 0;
  for (const FrEvent* e : merged) {
    last_ts = EmitTs(*e);
    if (e->type == FrType::kStage) {
      const auto stage = static_cast<Stage>(e->c);
      const std::string id = RidKey(e->a, e->b);
      bool& is_open = open[{e->a, e->b}];
      if (!is_open) {
        request_event('b', id, e->ts, StageName(stage), e->node);
        is_open = true;
      } else if (stage != Stage::kComplete && stage != Stage::kNacked) {
        request_event('n', id, e->ts, StageName(stage), e->node);
      }
      if (stage == Stage::kComplete || stage == Stage::kNacked) {
        request_event('e', id, e->ts, StageName(stage), e->node);
        is_open = false;
      }
      continue;
    }
    const int32_t pid = ProcessOf(*e);
    std::string obj;
    if (e->type == FrType::kBusy) {
      obj = "{\"ph\":\"X\",\"name\":\"";
      obj += ResourceName(e->c & 0xff);
      obj += "\",\"cat\":\"busy\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(ThreadOf(*e)) + ",\"ts\":";
      AppendTs(obj, static_cast<TimeNs>(e->a));
      obj += ",\"dur\":";
      AppendTs(obj, static_cast<TimeNs>(e->b));
      obj += ",\"args\":{\"seq\":" + std::to_string(e->seq) + "}}";
      emit(obj);
      continue;
    }
    obj = "{\"ph\":\"i\",\"name\":\"";
    obj += FrTypeName(e->type);
    obj += "\",\"cat\":\"fr\",\"pid\":" + std::to_string(pid) + ",\"tid\":0,\"ts\":";
    AppendTs(obj, e->ts);
    obj += ",\"s\":\"t\",\"args\":{\"a\":" + std::to_string(e->a) +
           ",\"b\":" + std::to_string(e->b) + ",\"c\":" + std::to_string(e->c) +
           ",\"seq\":" + std::to_string(e->seq);
    if (e->type == FrType::kNote && e->a < notes_.size()) {
      obj += ",\"detail\":\"" + JsonEscape(notes_[e->a]) + "\"";
    }
    obj += "}}";
    emit(obj);
  }
  for (const auto& [rid, is_open] : open) {
    if (is_open) {
      request_event('e', RidKey(rid.first, rid.second), last_ts, "unresolved", kInvalidNode);
    }
  }
  out << "\n],\"otherData\":{\"recorded\":" << recorded() << ",\"dumped\":" << merged.size()
      << ",\"repro\":\"" << JsonEscape(repro_) << "\"}}";
  out << "\n";
}

std::vector<FrEvent> FlightRecorder::NodeEvents(NodeId node) const {
  std::vector<FrEvent> out;
  const size_t idx = static_cast<size_t>(node + 1);
  if (idx >= rings_.size()) {
    return out;
  }
  const Ring& ring = rings_[idx];
  const uint64_t kept = std::min<uint64_t>(ring.count, mask_ + 1);
  out.reserve(kept);
  for (uint64_t i = ring.count - kept; i < ring.count; ++i) {
    out.push_back(ring.events[i & mask_]);
  }
  return out;
}

void FlightRecorder::DumpNow(const char* reason) {
  if (dumped_) {
    return;
  }
  dumped_ = true;
  if (!dump_path_.empty()) {
    std::ofstream out(dump_path_, std::ios::binary);
    if (out) {
      WriteDump(out);
      std::fprintf(stderr, "flight recorder: %s — dumped last events to %s (%llu recorded)\n",
                   reason, dump_path_.c_str(), static_cast<unsigned long long>(recorded()));
    } else {
      std::fprintf(stderr, "flight recorder: %s — cannot write %s\n", reason,
                   dump_path_.c_str());
    }
  } else {
    std::fprintf(stderr, "flight recorder: %s — %llu events recorded (no --dump-out path)\n",
                 reason, static_cast<unsigned long long>(recorded()));
  }
  if (!repro_.empty()) {
    std::fprintf(stderr, "flight recorder: repro: %s\n", repro_.c_str());
  }
}

}  // namespace obs
}  // namespace hovercraft
