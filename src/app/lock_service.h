// A coordination/lock service in the style of Chubby and etcd — the
// archetypal consumer of state machine replication (paper section 2.1:
// "SMR systems ... manage the hard, centralized state at the core of
// large-scale distributed services"). Demonstrates a second realistic
// application running unmodified on HovercRaft.
//
// Locks are owned by string-named clients with fencing tokens: every
// successful acquisition returns a monotonically increasing token, so a
// delayed or replayed holder can be rejected by downstream services — the
// standard defence against zombie lock holders.
#ifndef SRC_APP_LOCK_SERVICE_H_
#define SRC_APP_LOCK_SERVICE_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/app/state_machine.h"
#include "src/common/status.h"

namespace hovercraft {

enum class LockOpcode : uint8_t {
  kAcquire = 0,   // take the lock if free (or already held by this owner)
  kRelease = 1,   // release if held by this owner
  kGetHolder = 2, // read-only: current holder + token
};

struct LockCommand {
  LockOpcode op = LockOpcode::kGetHolder;
  std::string lock;
  std::string owner;  // unused for kGetHolder

  bool IsReadOnly() const { return op == LockOpcode::kGetHolder; }
};

Body EncodeLockCommand(const LockCommand& cmd);
Result<LockCommand> DecodeLockCommand(const Body& body);

enum class LockReplyStatus : uint8_t {
  kGranted = 0,   // acquire succeeded (token in the reply)
  kHeld = 1,      // acquire failed: someone else holds it
  kReleased = 2,  // release succeeded
  kNotHolder = 3, // release failed: not the holder
  kFree = 4,      // get: nobody holds it
  kHolder = 5,    // get: holder + token in the reply
  kError = 6,
};

struct LockReply {
  LockReplyStatus status = LockReplyStatus::kError;
  std::string holder;
  uint64_t fencing_token = 0;
};

Body EncodeLockReply(const LockReply& reply);
Result<LockReply> DecodeLockReply(const Body& body);

class LockService final : public StateMachine {
 public:
  // Virtual CPU cost: a map probe + reply build, plus hashing and compares
  // over the lock and owner names.
  static constexpr TimeNs kBaseNs = 500;
  static constexpr double kNameByteNs = 2.0;

  ExecResult Execute(const RpcRequest& request) override;
  uint64_t Digest() const override;
  uint64_t ApplyCount() const override { return applied_; }
  Body SnapshotState() const override;
  Status RestoreState(const Body& snapshot) override;

  // Direct (non-replicated) application; used by tests and the example.
  LockReply Apply(const LockCommand& cmd);

  size_t held_locks() const { return holders_.size(); }

 private:
  struct Holder {
    std::string owner;
    uint64_t token;
  };

  std::unordered_map<std::string, Holder> holders_;
  uint64_t next_token_ = 1;
  uint64_t applied_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_APP_LOCK_SERVICE_H_
