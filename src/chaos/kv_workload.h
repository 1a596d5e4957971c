// A KV workload tailored for linearizability checking: a small hot keyspace
// (so reads and writes genuinely race), a mixed op set exercising replies of
// every status, and globally unique written values (so a stale or lost write
// is observable, not coincidentally identical).
#ifndef SRC_CHAOS_KV_WORKLOAD_H_
#define SRC_CHAOS_KV_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "src/app/kvstore/command.h"
#include "src/loadgen/workload.h"

namespace hovercraft {

struct ChaosKvWorkloadConfig {
  int32_t keys = 8;
  double get_fraction = 0.30;
  double exists_fraction = 0.05;
  double del_fraction = 0.05;
  double incr_fraction = 0.10;
  double append_fraction = 0.10;
  double setnx_fraction = 0.05;
  // Remainder: plain SET.
  // Tag written values with this so values are unique across clients too.
  uint64_t value_tag = 0;
};

class ChaosKvWorkload final : public Workload {
 public:
  explicit ChaosKvWorkload(ChaosKvWorkloadConfig config) : config_(config) {}

  Op Next(Rng& rng) override {
    KvCommand cmd;
    cmd.key = "k";
    cmd.key += std::to_string(rng.NextBelow(static_cast<uint64_t>(config_.keys)));
    double p = rng.NextDouble();
    if ((p -= config_.get_fraction) < 0) {
      cmd.op = KvOpcode::kGet;
    } else if ((p -= config_.exists_fraction) < 0) {
      cmd.op = KvOpcode::kExists;
    } else if ((p -= config_.del_fraction) < 0) {
      cmd.op = KvOpcode::kDel;
    } else if ((p -= config_.incr_fraction) < 0) {
      cmd.op = KvOpcode::kIncr;
    } else if ((p -= config_.append_fraction) < 0) {
      cmd.op = KvOpcode::kAppend;
      cmd.value = UniqueValue();
    } else if ((p -= config_.setnx_fraction) < 0) {
      cmd.op = KvOpcode::kSetnx;
      cmd.value = UniqueValue();
    } else {
      cmd.op = KvOpcode::kSet;
      cmd.value = UniqueValue();
    }
    Op out;
    out.body = EncodeKvCommand(cmd);
    out.read_only = cmd.IsReadOnly();
    out.shard_slot = ShardSlotOf(cmd.key);
    return out;
  }

 private:
  std::string UniqueValue() {
    std::string value = "v";
    value += std::to_string(config_.value_tag);
    value += '.';
    value += std::to_string(++counter_);
    return value;
  }

  ChaosKvWorkloadConfig config_;
  uint64_t counter_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_CHAOS_KV_WORKLOAD_H_
