// Deterministic discrete-event simulator core.
//
// All protocol and application code in this repository executes against this
// event loop. Determinism contract: with the same seed and configuration, a
// run produces an identical event sequence (ties in time are broken by
// scheduling order).
//
// Scheduling core (see docs/performance.md for the design and measurements):
//   - a hierarchical timer wheel — four levels of 256 one-shot buckets
//     covering the next ~4.3s of virtual time at 1ns resolution — with a
//     sorted overflow tier for events beyond the horizon;
//   - events live in a pooled slab allocator as intrusive doubly-linked list
//     nodes; callbacks are stored inline (InlineFunction) so the dominant
//     paths schedule with zero heap allocations;
//   - cancellation is O(1) by generation-checked handle: the slot is
//     unlinked and recycled immediately (overflow-tier events are marked and
//     reclaimed when their block is reached).
// Event order is identical to the reference binary-heap core
// (src/sim/reference_heap.h): strictly by (time, schedule order).
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/sim/callback.h"

namespace hovercraft {

namespace obs {
class Observability;   // src/obs/observability.h; attached but never owned
class FlightRecorder;  // src/obs/flight_recorder.h; attached but never owned
}

// Token for a scheduled event, usable with Simulator::Cancel. Encodes a pool
// slot and a generation, so a stale handle (event already ran or was
// cancelled) is rejected in O(1) without any lookup structure.
using EventId = uint64_t;
constexpr EventId kInvalidEvent = 0;

// Vtable-dispatched callback for recurring events (NIC/net-thread
// completions, periodic maintenance): the scheduler stores only the pointer,
// so re-arming a handler allocates and copies nothing.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void OnEvent() = 0;
};

class Simulator {
 public:
  // Inline capture budget for scheduled callbacks. Sized so every audited
  // hot-path lambda (packet delivery, serial-resource completion, the apply
  // pipeline) stays allocation-free; larger captures fall back to a heap-
  // allocating std::function.
  static constexpr size_t kInlineCallbackBytes = 56;
  using Callback = InlineFunction<kInlineCallbackBytes>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Optional observability bundle (metrics + samplers). Null by default: the
  // metric hooks throughout the codebase reduce to one pointer load and
  // branch when nothing is installed. The simulator does not own it.
  obs::Observability* observability() const { return observability_; }
  void set_observability(obs::Observability* observability) { observability_ = observability; }

  // Always-on flight recorder (src/obs/flight_recorder.h). Unlike the
  // observability bundle, the topology owner (Cluster) installs one by
  // default; the hooks cost one branch and one ring store when present and
  // one pointer load and branch when absent. The simulator does not own it.
  obs::FlightRecorder* flight_recorder() const { return flight_recorder_; }
  void set_flight_recorder(obs::FlightRecorder* recorder) { flight_recorder_ = recorder; }

  // Schedules `fn` to run at absolute virtual time `when`. CHECK-fails when
  // `when < Now()`: scheduling into the past would silently reorder history.
  template <typename F, std::enable_if_t<!std::is_convertible_v<F&&, EventHandler*>, int> = 0>
  EventId At(TimeNs when, F&& fn) {
    return ScheduleCallback(when, Callback(std::forward<F>(fn)));
  }
  // Handler flavour: fires handler->OnEvent() at `when`. The handler is not
  // owned and must outlive the event (or cancel it).
  EventId At(TimeNs when, EventHandler* handler);

  // Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F, std::enable_if_t<!std::is_convertible_v<F&&, EventHandler*>, int> = 0>
  EventId After(TimeNs delay, F&& fn) {
    return ScheduleCallback(now_ + delay, Callback(std::forward<F>(fn)));
  }
  EventId After(TimeNs delay, EventHandler* handler) { return At(now_ + delay, handler); }

  // Cancels a pending event. Returns false if it already ran or was
  // cancelled. O(1): the handle's generation check rejects stale ids and the
  // slot is unlinked from its wheel bucket in place.
  bool Cancel(EventId id);

  // Runs events until the queue is empty or the next event lies beyond
  // `until`. Returns the number of events executed. Cancelled events neither
  // run nor count, and never cause an event beyond `until` to run.
  uint64_t RunUntil(TimeNs until);

  // Runs until no events remain.
  uint64_t RunToCompletion();

  // Runs exactly one event if available; returns false when idle.
  bool Step();

  // Live scheduled events: scheduled minus executed minus cancelled.
  size_t pending_events() const { return live_; }
  // Events whose callback actually ran. A cancelled event is never counted
  // here, even if its slot is reclaimed while popping.
  uint64_t executed_events() const { return executed_; }
  // Successful Cancel() calls.
  uint64_t cancelled_events() const { return cancelled_; }

 private:
  // --- timer wheel geometry -------------------------------------------------
  // Level L buckets span 2^(8L) ns; the four wheels jointly cover the 2^32ns
  // (~4.3s) block of virtual time containing wheel_pos_ — deep enough that
  // even the slowest recurring timers (Raft elections, maintenance ticks)
  // never leave the wheel. Everything beyond goes to the sorted overflow map
  // keyed by (when, seq).
  static constexpr int kWheelBits = 8;
  static constexpr int kWheelSize = 1 << kWheelBits;  // 256 buckets per level
  static constexpr int kLevels = 4;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr uint8_t kLevelOverflow = kLevels;
  static constexpr int kSlabBits = 8;
  static constexpr int kSlabSize = 1 << kSlabBits;

  enum class SlotState : uint8_t {
    kFree,
    kPending,
    kCancelledOverflow,  // cancelled while in the overflow map; reclaimed lazily
  };

  // Pooled event slot. Slots live in fixed slabs (stable addresses) and are
  // recycled through a freelist; `gen` increments on every recycle so stale
  // EventIds never alias a reused slot.
  struct Event {
    TimeNs when = 0;
    uint64_t seq = 0;  // strictly increasing scheduling order; the tie-break
    uint32_t next = kNil;
    uint32_t prev = kNil;
    uint32_t gen = 0;
    SlotState state = SlotState::kFree;
    uint8_t level = 0;     // 0..kLevels-1 in the wheel, kLevelOverflow beyond
    uint16_t bucket = 0;   // bucket index within the level
    Callback fn;
  };

  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  // 256-bit occupancy map per level; lets the pop path skip empty buckets in
  // O(1) instead of walking virtual time tick by tick.
  struct Bitmap {
    uint64_t w[kWheelSize / 64] = {};
    void Set(int i) { w[i >> 6] |= uint64_t{1} << (i & 63); }
    void Clear(int i) { w[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
    // First set index >= from, or -1.
    int FindAtOrAfter(int from) const {
      if (from >= kWheelSize) {
        return -1;
      }
      int word = from >> 6;
      uint64_t bits = w[word] & (~uint64_t{0} << (from & 63));
      while (true) {
        if (bits != 0) {
          return (word << 6) + __builtin_ctzll(bits);
        }
        if (++word == kWheelSize / 64) {
          return -1;
        }
        bits = w[word];
      }
    }
  };

  EventId ScheduleCallback(TimeNs when, Callback fn);

  Event& slot(uint32_t idx) { return slabs_[idx >> kSlabBits][idx & (kSlabSize - 1)]; }
  uint32_t AllocSlot();
  void FreeSlot(uint32_t idx);
  static EventId MakeId(uint32_t gen, uint32_t idx) {
    return (static_cast<uint64_t>(gen) << 32) | (idx + 1);
  }

  // Files the slot into the wheel or the overflow tier based on wheel_pos_.
  void Place(uint32_t idx);
  // Wheel-only placement; requires when >> 32 == wheel_pos_ >> 32.
  void PlaceInWheel(uint32_t idx);
  void AppendToBucket(int level, int bucket, uint32_t idx);
  void UnlinkFromBucket(uint32_t idx);
  // Redistributes bucket (level, idx) into lower levels; wheel_pos_ must
  // already point at the start of the bucket's time range.
  void CascadeBucket(int level, int bucket);
  // Moves the earliest overflow block into the wheels (dropping cancelled
  // slots); wheels must be empty.
  void MigrateOverflowBlock();
  // Finds the slot of the earliest pending event with when <= limit and
  // advances wheel_pos_ to it; returns kNil if there is none (wheel_pos_
  // then stops at min(limit, next event time) so later schedules stay
  // reachable). Cascades and migrations happen here.
  uint32_t FindNext(TimeNs limit);
  void ExecuteSlot(uint32_t idx);

  TimeNs now_ = 0;
  obs::Observability* observability_ = nullptr;
  obs::FlightRecorder* flight_recorder_ = nullptr;

  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  uint64_t cancelled_ = 0;
  size_t live_ = 0;

  // Scan cursor: every pending wheel event has when >= wheel_pos_ and shares
  // its 2^32ns block. Invariant: wheel_pos_ <= now_ whenever control is
  // outside FindNext, so At(when >= Now()) can never place an event behind
  // the cursor.
  TimeNs wheel_pos_ = 0;
  Bucket buckets_[kLevels][kWheelSize];
  Bitmap bitmap_[kLevels];
  std::map<std::pair<TimeNs, uint64_t>, uint32_t> overflow_;

  std::vector<std::unique_ptr<Event[]>> slabs_;
  uint32_t freelist_ = kNil;
};

}  // namespace hovercraft

#endif  // SRC_SIM_SIMULATOR_H_
