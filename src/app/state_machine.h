// The deterministic application interface.
//
// HovercRaft's promise (paper section 3.1) is that any RPC service with
// deterministic behaviour becomes fault-tolerant with no code changes: the
// SMR layer feeds it totally-ordered requests. A StateMachine implementation
// must satisfy: identical request sequences produce identical state and
// identical replies on every replica (checked by Digest() in tests).
//
// Execution cost is returned as virtual nanoseconds and charged to the
// executing node's app thread — the simulator's substitute for really
// burning CPU (see DESIGN.md, substitution table).
#ifndef SRC_APP_STATE_MACHINE_H_
#define SRC_APP_STATE_MACHINE_H_

#include <cstdint>

#include "src/common/image.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/r2p2/messages.h"

namespace hovercraft {

struct ExecResult {
  TimeNs service_time = 0;  // app-thread CPU consumed
  Body reply;               // reply body (may be null for empty replies)
};

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  // Executes one request. Called in log order; mutates state for read-write
  // requests. Read-only requests (request.read_only()) must not mutate.
  virtual ExecResult Execute(const RpcRequest& request) = 0;

  // Order-sensitive digest of the current state; equal digests on two
  // replicas imply identical state. Used by the replication tests.
  virtual uint64_t Digest() const = 0;

  // Number of read-write operations applied (convenience for tests).
  virtual uint64_t ApplyCount() const = 0;

  // Serializes the complete state for InstallSnapshot transfers. Restore on
  // a fresh instance must reproduce Digest()/ApplyCount() exactly.
  virtual Body SnapshotState() const = 0;
  virtual Status RestoreState(const Body& snapshot) = 0;

  // The SnapshotState() bytes as a rope of shared parts: local snapshots and
  // compactions persist this, so a snapshot costs only what changed. The
  // default wraps SnapshotState() as one part; an application that keeps
  // parts of its image from one snapshot to the next overrides it (KvService
  // keeps one part per key).
  //
  // Replicas hold identical state, so an application that images its state
  // in named parts may also share them across the deployment: built inside
  // an ImagePartIndex::Scope (Cluster builds every app in one over its
  // fabric's index), it binds ImagePartIndex::Current() and adopts a part
  // another replica published when it holds exactly the bytes it would
  // encode (src/common/image.h). Its images stay byte for byte what they
  // would be without the index.
  virtual Image SnapshotImage() const { return Image::Of(SnapshotState()); }

  // --- Shard-move range handoff (src/shard, docs/sharding.md). A live shard
  // move freezes a slot range at the source group, captures exactly that
  // range, installs it at the destination, and finally drops it from the
  // source. Slots are ShardSlotOf(key) values (src/r2p2/shard.h). The
  // defaults refuse, so only shard-aware applications participate. ---
  virtual Body CaptureRange(uint32_t lo_slot, uint32_t hi_slot) const {
    (void)lo_slot;
    (void)hi_slot;
    return nullptr;
  }
  virtual Status InstallRange(const Body& range) {
    (void)range;
    return FailedPreconditionError("state machine does not support shard moves");
  }
  virtual Status DropRange(uint32_t lo_slot, uint32_t hi_slot) {
    (void)lo_slot;
    (void)hi_slot;
    return FailedPreconditionError("state machine does not support shard moves");
  }
};

}  // namespace hovercraft

#endif  // SRC_APP_STATE_MACHINE_H_
