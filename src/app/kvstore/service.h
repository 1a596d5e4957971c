// StateMachine adapter for the KvStore: decodes commands, executes them on
// real data structures (every replica holds real state — convergence is
// checked by digest), and charges a calibrated virtual CPU cost.
//
// Substitution note (see DESIGN.md): the paper runs real Redis and measures
// wall-clock CPU; we execute a real store but account CPU through this cost
// model, calibrated so YCSB-E reproduces the paper's operating points
// (unreplicated capacity ~35 kRPS; INSERT/SCAN cost ratio giving the Amdahl
// 4x cap at 7 nodes).
#ifndef SRC_APP_KVSTORE_SERVICE_H_
#define SRC_APP_KVSTORE_SERVICE_H_

#include <cstdint>

#include "src/app/kvstore/command.h"
#include "src/app/kvstore/store.h"
#include "src/app/state_machine.h"
#include "src/common/types.h"

namespace hovercraft {

class KvService final : public StateMachine {
 public:
  // Virtual CPU cost model (docs/CALIBRATION.md).
  // Fixed dispatch cost per command (parse, lookup, reply build).
  static constexpr TimeNs kBaseNs = Micros(2);
  // Per byte written into the store (allocation + copy + index update).
  static constexpr double kWriteByteNs = 65.0;
  // Per byte read out of the store into the reply.
  static constexpr double kReadByteNs = 1.0;
  // Per record visited by a scan (pointer chase + serialization setup).
  static constexpr TimeNs kScanRecordNs = 1'500;

  ExecResult Execute(const RpcRequest& request) override;
  uint64_t Digest() const override { return store_.ContentDigest() ^ mutation_digest_; }
  uint64_t ApplyCount() const override { return applied_; }
  // The flat bytes of SnapshotImage().
  Body SnapshotState() const override;
  Status RestoreState(const Body& snapshot) override;
  // [applied][mutation digest] followed by the store's image, which shares
  // the part of every key unchanged since the last snapshot and leaves every
  // key held only as its part.
  Image SnapshotImage() const override;

  // Shard-move range handoff: keys are selected by ShardSlotOf(key), the
  // same hash the router uses, so a moved range carries exactly the keys
  // whose requests will be redirected to the destination group.
  Body CaptureRange(uint32_t lo_slot, uint32_t hi_slot) const override;
  Status InstallRange(const Body& range) override;
  Status DropRange(uint32_t lo_slot, uint32_t hi_slot) override;

  const KvStore& store() const { return store_; }
  uint64_t mutation_digest() const { return mutation_digest_; }
  KvStore& store() { return store_; }

  // Convenience for direct (non-replicated) use and tests.
  KvReply Apply(const KvCommand& cmd, TimeNs* cost_out = nullptr);

 private:
  KvStore store_;
  uint64_t applied_ = 0;
  uint64_t mutation_digest_ = 0xCBF29CE484222325ull;
};

}  // namespace hovercraft

#endif  // SRC_APP_KVSTORE_SERVICE_H_
