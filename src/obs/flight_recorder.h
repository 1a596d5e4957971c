// Always-on flight recorder: a fixed-size, slab-allocated per-node ring of
// compact binary events — the simulator's only event store.
//
// The recorder is the black box of a run. Every node continuously records
// stage marks, role/term changes, commit/durable-index advances, lease
// grants, config changes, WAL flush boundaries and the busy intervals of its
// net thread, NIC and app thread into a power-of-two ring; the hot path is
// one branch (is a recorder installed?) plus one 48-byte store, with zero
// allocation after construction. WriteDump exports the surviving events as a
// deterministic, replay-matching Chrome trace (per-request async spans, busy
// spans per resource, protocol instants). The same export serves the failure
// path — a CHECK failure, a watchdog violation, a chaos verdict failure dumps
// the last `depth` events per node with a one-line repro command — and a full
// trace of a run, which is the same dump taken with a ring deep enough that
// nothing rotated out.
//
// Subscribers (obs::Watchdog, obs::CriticalPath) observe the same hook
// stream through Sink; they are passive readers and never schedule simulator
// events, so recording cannot perturb the run it observes (the
// zero-perturbation contract asserted by tests and CI).
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/r2p2/request_id.h"
#include "src/sim/simulator.h"

namespace hovercraft {
namespace obs {

// Canonical pipeline stages of one request, in pipeline order (kStage
// payload c). The critical-path analyzer blames each delta between
// consecutive marks on the stage it ended at.
enum class Stage : uint8_t {
  kClientSend = 0,  // client hands the request to its NIC
  kRetransmit,      // a retry attempt left the client (annotation only)
  kReplicaRx,       // request arrived at a server (multicast replication)
  kOrdered,         // leader appended the entry (append_entries ordering)
  kCommitted,       // entry covered by the commit index
  kDispatched,      // JBSQ/random replier assignment announced
  kReadGranted,     // ReadIndex lease grant covered this read-only request
  kApplyStart,      // state-machine execution began on the app thread
  kApplyEnd,        // state-machine execution finished
  kReplySent,       // reply handed to the replier's NIC
  kComplete,        // client received the (first) reply
  kNacked,          // flow control pushed the request back (terminal)
};
constexpr size_t kStageCount = 12;
const char* StageName(Stage stage);

// Event kinds. The a/b/c payload fields are typed per kind (see the comment
// on each); `node` is the acting Raft node, kInvalidNode for cluster-scope
// events (client stages, flow control).
enum class FrType : uint8_t {
  kStage = 0,     // a=rid.client, b=rid.seq, c=Stage
  kRole,          // a=term, b=FrRole, c=1 if the node is recovery-suspect
  kCommit,        // a=committed idx, b=entry term at idx, c=raft term (low 32)
  kCommitLoss,    // a=new last idx, b=old commit idx (committed entries overwritten)
  kDurable,       // a=durable idx, b=restart epoch
  kLeaseGrant,    // a=read_index, b=designated replier (as u64), c=term (low 32)
  kLeaseExpire,   // a=rejection count, c=term (low 32) — grant refused, lease stale
  kConfig,        // a=config log idx, b=member count
  kWalFlush,      // a=durable idx covered, b=flush latency ns
  kRecovery,      // a=FrRecovery, b=kind-specific (floor, bytes, idx)
  kApply,         // a=rid.client, b=rid.seq, c=1 if session table says duplicate
  kFlow,          // a=open slots after the op, b=threshold, c=FrFlowOp
  kViolation,     // a=WatchdogCode — recorded by the watchdog at detection
  kBusy,          // a=span start, b=duration, c=FrResource | host id << 8; ts is
                  // the submit time (the span starts once the resource frees)
  kDrop,          // a=src host, b=dst host, c=FrDropCause — fabric dropped a message
  kNote,          // a=note-table index (see Note), b/c=note-specific payload
};
constexpr size_t kFrTypeCount = 16;
const char* FrTypeName(FrType type);

// kRole payload b.
enum class FrRole : uint8_t { kFollower = 0, kPreCandidate, kCandidate, kLeader };

// kRecovery payload a.
enum class FrRecovery : uint8_t {
  kRestart = 0,    // node restarted from WAL; b = recovered commit baseline
  kTornTail,       // torn unsynced tail truncated; b = bytes dropped
  kCrcHole,        // CRC-failed record, durable bytes lost; b = record offset
  kSuspectEnter,   // recovery lost durable data; b = suspect_floor
  kSuspectRepair,  // commit caught back up to the suspect floor; b = commit
  kTruncate,       // conflicting (uncommitted) log suffix cut; b = new durable idx.
                   // Legitimately lowers the durable index — the watchdog resets
                   // its durable-monotonicity floor here, never the commit floor.
};

// kFlow payload c.
enum class FrFlowOp : uint8_t { kOpen = 0, kClose, kNack, kForceRelease };

// kBusy payload c (low 8 bits): the serial resource that was busy.
enum class FrResource : uint8_t { kNet = 0, kNic, kApp };

// kDrop payload c.
enum class FrDropCause : uint8_t { kFault = 0, kFilter, kLoss };

struct alignas(16) FrEvent {
  TimeNs ts = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t seq = 0;  // per-node record order; (ts, node, seq) is the
                     // deterministic dump ordering (a kBusy span sorts by
                     // its start, payload a)
  uint32_t c = 0;
  NodeId node = kInvalidNode;
  FrType type = FrType::kStage;
};
static_assert(sizeof(FrEvent) == 48, "hot-path store is three 16-byte writes");

class FlightRecorder {
 public:
  // Passive subscriber to the recorded stream. Sinks must not schedule
  // simulator events or mutate simulation state.
  class Sink {
   public:
    virtual ~Sink() = default;
    virtual void OnFrEvent(const FrEvent& event) = 0;
  };

  static constexpr size_t kDefaultDepth = 512;

  // `depth` is the per-node ring capacity, rounded up to a power of two.
  explicit FlightRecorder(size_t depth = kDefaultDepth);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Hot path: one bounds check, one ring store, one sink branch. Inline so
  // the always-on cost stays within the perf-smoke gate (<= 5% on
  // sim_throughput's event loop).
  void Record(TimeNs ts, NodeId node, FrType type, uint64_t a = 0, uint64_t b = 0,
              uint32_t c = 0) {
    const size_t idx = static_cast<size_t>(node + 1);  // kInvalidNode -> ring 0
    if (idx >= ring_limit_) [[unlikely]] {
      GrowRing(idx);  // allocates slabs densely, so idx < ring_limit_ => slab exists
    }
    Ring& ring = rings_[idx];
    const uint64_t n = ring.count++;
    FrEvent* slot = ring.events + (n & mask_);
    *slot = FrEvent{ts, a, b, n, c, node, type};  // one aligned 48-byte store
    if (sink_count_ != 0) [[unlikely]] {
      Dispatch(*slot);
    }
  }

  void AddSink(Sink* sink);
  void RemoveSink(Sink* sink);

  // Rare free-text annotation (nemesis faults, shard moves, config
  // proposals): interns `text` in the recorder's note table and records a
  // kNote whose `a` indexes it; the export carries the text in args.detail.
  // Interning only builds a string the first time a text is seen, so a
  // constant text is cheap enough for a message path.
  void Note(TimeNs ts, NodeId node, std::string_view text, uint64_t b = 0, uint32_t c = 0);

  // Total events recorded (including those that have rotated out of a ring).
  uint64_t recorded() const {
    uint64_t total = 0;
    for (const Ring& ring : rings_) {
      total += ring.count;
    }
    return total;
  }
  size_t depth() const { return mask_ + 1; }

  // One-line command that reproduces the run being recorded, e.g.
  // "chaos_runner --schedule=flap --seed=3". Printed with every dump.
  void set_repro(std::string command) { repro_ = std::move(command); }
  const std::string& repro() const { return repro_; }

  // File the next DumpNow writes ("" = stderr summary only).
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  // Writes the surviving events of every ring as deterministic Chrome
  // trace-event JSON, the format Perfetto and chrome://tracing load. Each
  // node is one process with an "events" thread for protocol instants and
  // "net thread" / "nic tx" / "app thread" tracks of X spans from kBusy;
  // process 0 ("cluster") carries the cluster-scope instants, the clients'
  // busy tracks, and one async span per request built from its stage marks
  // (balanced even when a ring rotated out the span's start). Emitted
  // timestamps are non-decreasing. The same run at the same seed produces
  // byte-identical output (the events are a pure function of the simulation);
  // otherData.recorded vs .dumped tells whether anything rotated out.
  void WriteDump(std::ostream& out) const;

  // Surviving events of one node's ring, oldest first. Test-facing: the
  // shard determinism test compares group-0 rings byte-for-byte between runs
  // with different group counts.
  std::vector<FrEvent> NodeEvents(NodeId node) const;

  // Failure path: writes dump_path_ (when set) and prints a one-line summary
  // plus the repro command to stderr. Reentrancy-safe and idempotent per
  // process — only the first dump writes, so a violation dump is not
  // overwritten by the verdict-failure dump that follows it.
  void DumpNow(const char* reason);

  // The process-wide recorder the CHECK-failure hook dumps (latest
  // constructed recorder wins; cleared on destruction).
  static FlightRecorder* active();

 private:
  // 16 bytes so rings_[idx] is shift addressing on the hot path; the slab
  // itself is owned by slabs_.
  struct Ring {
    FrEvent* events = nullptr;  // slab of `depth` slots
    uint64_t count = 0;         // total records; head = count & mask
  };

  void GrowRing(size_t idx);
  void Dispatch(const FrEvent& event);

  // Hot-path members first: Record touches mask_, ring_limit_, sink_count_
  // and the rings_ data pointer, all within the object's first cache line.
  size_t mask_;
  size_t ring_limit_ = 0;  // rings_[0..ring_limit_) all have slabs
  int sink_count_ = 0;
  std::vector<Ring> rings_;
  // Slabs are allocated unfilled: every reader stops at a ring's count, so
  // a slot is read only after Record wrote it, and zeroing each node's slab
  // up front would be work no run reads. FrEvent is an aggregate, so the
  // allocation itself creates the slab's events.
  struct SlabDelete {
    void operator()(FrEvent* slab) const { ::operator delete[](slab); }
  };
  std::vector<std::unique_ptr<FrEvent[], SlabDelete>> slabs_;
  // Sized for sharded runs: one node-filtered watchdog per consensus group
  // (src/shard supports several groups on one fabric) plus the critical-path
  // analyzer.
  static constexpr int kMaxSinks = 10;
  Sink* sinks_[kMaxSinks] = {};
  std::vector<std::string> notes_;  // kNote texts, indexed by payload a
  std::string repro_;
  std::string dump_path_;
  bool dumped_ = false;
};

// Hot-path accessor: one pointer load + branch when no recorder is installed.
inline FlightRecorder* FrOf(const Simulator* sim) { return sim->flight_recorder(); }

// Pipeline stage mark for one request on `fr` (null: none); `node` is the
// acting Raft node (kInvalidNode for client-side stages).
inline void MarkStage(FlightRecorder* fr, const RequestId& rid, Stage stage, NodeId node,
                      TimeNs ts) {
  if (fr != nullptr) {
    fr->Record(ts, node, FrType::kStage, static_cast<uint64_t>(rid.client), rid.seq,
               static_cast<uint32_t>(stage));
  }
}
inline void MarkStage(const Simulator* sim, const RequestId& rid, Stage stage, NodeId node,
                      TimeNs ts) {
  MarkStage(FrOf(sim), rid, stage, node, ts);
}

}  // namespace obs
}  // namespace hovercraft

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
