// Wire-level sharding primitives shared by the R2P2 layer, the servers and
// the management plane (src/shard): the keyspace hash-slot function, the
// shard-control operations that ride consensus logs during a range move, and
// the per-server serve-state that decides which slots a replica executes.
//
// The design follows the "reconfigurable SMR from non-reconfigurable
// building blocks" recipe (see docs/sharding.md): each consensus group is a
// fixed building block, and shard moves are a protocol layered above the
// groups whose commit points ride *inside* the group logs as ordinary
// replicated requests tagged with kShardCtlSlot.
#ifndef SRC_R2P2_SHARD_H_
#define SRC_R2P2_SHARD_H_

#include <cstdint>
#include <set>
#include <string_view>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/r2p2/messages.h"

namespace hovercraft {

// The keyspace is hash-partitioned into a fixed number of slots (Redis
// Cluster style); the ShardMap assigns slots to groups and moves rebalance
// whole slot ranges. Small enough that a map fits in one packet, large
// enough that a 16-group deployment still gets 4 slots per group.
constexpr uint32_t kShardSlots = 64;

// Slot tag for shard-control operations (freeze/install/gc). Control ops are
// replicated through the same log as data but are never gated by serve
// state — a group must accept a freeze for a range it owns and an install
// for a range it does not own yet.
constexpr uint32_t kShardCtlSlot = 0xFFFFFFFEu;

// True for real keyspace slots; false for kNoShardSlot / kShardCtlSlot.
constexpr bool IsDataSlot(uint32_t slot) { return slot < kShardSlots; }

// Stable 64-bit FNV-1a over the key bytes. Deterministic across runs and
// platforms; every component (clients, middleboxes, servers, the move
// coordinator) must agree on it.
uint64_t ShardKeyHash(std::string_view key);

inline uint32_t ShardSlotOf(std::string_view key) {
  return static_cast<uint32_t>(ShardKeyHash(key) % kShardSlots);
}

// --- shard-control operations -----------------------------------------------
// The log-riding steps of a two-phase range move (docs/sharding.md):
//   kFreeze  [lo,hi]          source stops serving the range; the designated
//                             replier captures sessions+app state for it and
//                             returns the capture to the coordinator.
//   kInstall [lo,hi]+payload  destination merges the capture and starts
//                             serving the range (its commit IS the cutover
//                             point inside the destination group).
//   kGc      [lo,hi]          source deletes the moved range and its cached
//                             replies; the range is now redirect-only there.
// and the two abort steps a move that gives up before its cutover commits
// through the same logs (so aborting is replicated state, like the move):
//   kUninstall [lo,hi]        destination discards whatever the aborted move
//                             installed (data, session entries, serve state)
//                             and fences the move's parked install copies.
//   kUnfreeze  [lo,hi]        source serves the range again and fences the
//                             move's parked freeze copies.

enum class ShardOpKind : uint8_t {
  kFreeze = 0,
  kInstall = 1,
  kGc = 2,
  kUnfreeze = 3,
  kUninstall = 4,
};

struct ShardOp {
  ShardOpKind kind = ShardOpKind::kFreeze;
  // Fencing tag: which move (coordinator-issued, strictly increasing) this op
  // belongs to. See ShardCtlKeyOf.
  uint64_t move_id = 0;
  uint32_t lo = 0;  // inclusive slot range
  uint32_t hi = 0;  // inclusive
  Body payload;     // kInstall only: [session range][app range] capture
};

Body EncodeShardOp(const ShardOp& op);
Status DecodeShardOp(const Body& body, ShardOp* out);

// Fencing key of a control op: move id, then the op's protocol step within
// the move (freeze < install < gc < unfreeze/uninstall). The coordinator
// issues moves with strictly increasing ids and drives the phases of a move
// strictly in sequence (it only advances after the previous phase's op
// committed), so the sequence of control ops a group legitimately applies has
// strictly increasing keys. Any op ordered at or below the group's applied
// watermark is therefore a stale duplicate — typically an abandoned retry
// (the coordinator retries under fresh rids) that sat parked in a follower's
// unordered store and was re-drained into the log by a later leader — and is
// rejected at apply time; re-running it could roll a moved range back below
// post-cutover writes or GC a range the group owns again.
uint64_t ShardCtlKeyOf(uint64_t move_id, ShardOpKind kind);

// --- per-server serve state -------------------------------------------------
// Which slots this replica executes. Mutated ONLY by applying shard-control
// log entries (and by snapshot restore), so it is identical across the
// replicas of a group at equal apply points — the property that makes
// apply-time gating deterministic. Two rejection sets:
//   frozen:  owned but mid-move at the source; ordered data entries for these
//            slots are rejected at apply time (the capture preceding them in
//            the log already excludes their effects).
//   dropped: not owned here (never were, or moved away and GC'd); rejected
//            the same way. An install removes slots from `dropped`.
class ShardServeState {
 public:
  bool sharded = false;  // false = single-group deployment, serve everything

  bool Serves(uint32_t slot) const {
    if (!sharded || !IsDataSlot(slot)) {
      return true;
    }
    return frozen_.count(slot) == 0 && dropped_.count(slot) == 0;
  }

  void Freeze(uint32_t lo, uint32_t hi);
  // kGc: the range leaves this replica for good (frozen -> dropped).
  void Drop(uint32_t lo, uint32_t hi);
  // kInstall: the range arrives here (clears dropped/frozen for it).
  void Install(uint32_t lo, uint32_t hi);
  // kUnfreeze (move abort at the source): the range serves again. Dropped
  // slots stay dropped — an abort never grants ownership.
  void Unfreeze(uint32_t lo, uint32_t hi);

  // Control-op fence (ShardCtlKeyOf). Advances the watermark and returns
  // true when `key` is newer than everything applied so far; returns false —
  // and the caller must treat the op as a stale no-op — otherwise. Replicated
  // state: advanced only at the apply point, so identical across a group's
  // replicas at equal positions and carried by snapshots.
  bool AdvanceCtlWatermark(uint64_t key);
  uint64_t ctl_watermark() const { return ctl_watermark_; }

  const std::set<uint32_t>& frozen() const { return frozen_; }
  const std::set<uint32_t>& dropped() const { return dropped_; }

  // Rides inside server snapshots between the session table and the app
  // bytes; an unsharded server serializes an empty state (16 bytes).
  void Serialize(BufferWriter* w) const;
  Status Restore(BufferReader* r);

 private:
  std::set<uint32_t> frozen_;
  std::set<uint32_t> dropped_;
  uint64_t ctl_watermark_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_R2P2_SHARD_H_
