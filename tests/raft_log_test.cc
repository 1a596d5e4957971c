#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/raft/log.h"

namespace hovercraft {
namespace {

LogEntry MakeEntry(Term term, HostId client, uint64_t seq, bool read_only = false) {
  LogEntry e;
  e.term = term;
  e.read_only = read_only;
  e.rid = RequestId{client, seq};
  e.request = std::make_shared<RpcRequest>(e.rid, R2p2Policy::kReplicatedReq,
                                           MakeBody(std::vector<uint8_t>(24)));
  return e;
}

LogEntry Noop(Term term) {
  LogEntry e;
  e.term = term;
  e.noop = true;
  return e;
}

TEST(RaftLogTest, EmptyLog) {
  RaftLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.first_index(), 1u);
  EXPECT_EQ(log.last_index(), 0u);
  EXPECT_EQ(log.last_term(), 0u);
  EXPECT_EQ(log.TermAt(0), 0u);
  EXPECT_FALSE(log.Contains(1));
}

TEST(RaftLogTest, AppendAssignsSequentialIndices) {
  RaftLog log;
  EXPECT_EQ(log.Append(MakeEntry(1, 1, 1)), 1u);
  EXPECT_EQ(log.Append(MakeEntry(1, 1, 2)), 2u);
  EXPECT_EQ(log.Append(MakeEntry(2, 1, 3)), 3u);
  EXPECT_EQ(log.last_index(), 3u);
  EXPECT_EQ(log.last_term(), 2u);
  EXPECT_EQ(log.TermAt(1), 1u);
  EXPECT_EQ(log.TermAt(3), 2u);
  EXPECT_TRUE(log.Contains(1));
  EXPECT_TRUE(log.Contains(3));
  EXPECT_FALSE(log.Contains(4));
}

TEST(RaftLogTest, FindRequestByRid) {
  RaftLog log;
  log.Append(MakeEntry(1, 5, 100));
  log.Append(Noop(1));
  log.Append(MakeEntry(1, 5, 101));
  EXPECT_EQ(log.FindRequest(RequestId{5, 100}), 1u);
  EXPECT_EQ(log.FindRequest(RequestId{5, 101}), 3u);
  EXPECT_EQ(log.FindRequest(RequestId{5, 999}), kNoLogIndex);
}

TEST(RaftLogTest, TruncateRemovesSuffixAndRidIndex) {
  RaftLog log;
  log.Append(MakeEntry(1, 1, 1));
  log.Append(MakeEntry(1, 1, 2));
  log.Append(MakeEntry(1, 1, 3));
  log.TruncateFrom(2);
  EXPECT_EQ(log.last_index(), 1u);
  EXPECT_EQ(log.FindRequest(RequestId{1, 2}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{1, 3}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{1, 1}), 1u);
  // Re-append after truncation continues from the new tail.
  EXPECT_EQ(log.Append(MakeEntry(2, 1, 4)), 2u);
  EXPECT_EQ(log.TermAt(2), 2u);
}

TEST(RaftLogTest, CompactPrefixKeepsTailAndBaseTerm) {
  RaftLog log;
  for (uint64_t i = 1; i <= 10; ++i) {
    log.Append(MakeEntry(i <= 5 ? 1 : 2, 1, i));
  }
  log.CompactPrefix(6);
  EXPECT_EQ(log.first_index(), 7u);
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.base_term(), 2u);   // term of entry 6
  EXPECT_EQ(log.TermAt(6), 2u);     // the compaction point keeps its term
  EXPECT_FALSE(log.Contains(6));
  EXPECT_TRUE(log.Contains(7));
  EXPECT_EQ(log.At(7).rid.seq, 7u);
  // Compacted rids are forgotten.
  EXPECT_EQ(log.FindRequest(RequestId{1, 3}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{1, 8}), 8u);
}

TEST(RaftLogTest, CompactIsIdempotentAndMonotone) {
  RaftLog log;
  for (uint64_t i = 1; i <= 5; ++i) {
    log.Append(MakeEntry(1, 1, i));
  }
  log.CompactPrefix(3);
  log.CompactPrefix(2);  // below the base: no-op
  EXPECT_EQ(log.first_index(), 4u);
  log.CompactPrefix(5);
  EXPECT_EQ(log.first_index(), 6u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.last_index(), 5u);
  EXPECT_EQ(log.last_term(), 1u);  // falls back to base term
  // Appending after full compaction continues the sequence.
  EXPECT_EQ(log.Append(MakeEntry(2, 1, 6)), 6u);
}

TEST(RaftLogTest, TruncateAfterCompaction) {
  RaftLog log;
  for (uint64_t i = 1; i <= 6; ++i) {
    log.Append(MakeEntry(1, 1, i));
  }
  log.CompactPrefix(2);
  log.TruncateFrom(5);
  EXPECT_EQ(log.last_index(), 4u);
  EXPECT_EQ(log.first_index(), 3u);
  EXPECT_TRUE(log.Contains(3));
  EXPECT_FALSE(log.Contains(5));
}

TEST(RaftLogTest, NoopEntriesHaveNoRid) {
  RaftLog log;
  log.Append(Noop(1));
  EXPECT_EQ(log.At(1).request, nullptr);
  EXPECT_TRUE(log.At(1).noop);
}

TEST(RaftLogTest, TruncatingNewerDuplicateForgetsRid) {
  // A retransmitted rid can be ordered twice (the allow_duplicate path). The
  // latest append wins, and dropping it forgets the rid even though the older
  // copy is still in the log: a lookup then reports "not ordered".
  RaftLog log;
  log.Append(MakeEntry(1, 3, 7));
  log.Append(MakeEntry(1, 3, 8));
  log.Append(MakeEntry(2, 3, 7));
  EXPECT_EQ(log.FindRequest(RequestId{3, 7}), 3u);
  log.TruncateFrom(3);
  EXPECT_EQ(log.At(1).rid, (RequestId{3, 7}));
  EXPECT_EQ(log.FindRequest(RequestId{3, 7}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{3, 8}), 2u);
  // Compacting the older copy is then a no-op for the index.
  log.CompactPrefix(1);
  EXPECT_EQ(log.FindRequest(RequestId{3, 7}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{3, 8}), 2u);
}

TEST(RaftLogTest, FarSeqsAreFoundAndForgotten) {
  // Seqs far apart, up to the top of the range, are tracked exactly like
  // dense ones.
  RaftLog log;
  const uint64_t far = uint64_t{1} << 63;
  log.Append(MakeEntry(1, 2, 5));
  log.Append(MakeEntry(1, 2, far));
  log.Append(MakeEntry(1, 2, UINT64_MAX));
  log.Append(MakeEntry(1, 2, 6));
  log.Append(MakeEntry(1, 2, 0));
  EXPECT_EQ(log.FindRequest(RequestId{2, 5}), 1u);
  EXPECT_EQ(log.FindRequest(RequestId{2, far}), 2u);
  EXPECT_EQ(log.FindRequest(RequestId{2, UINT64_MAX}), 3u);
  EXPECT_EQ(log.FindRequest(RequestId{2, 6}), 4u);
  EXPECT_EQ(log.FindRequest(RequestId{2, 0}), 5u);
  EXPECT_EQ(log.FindRequest(RequestId{2, far + 1}), kNoLogIndex);
  log.CompactPrefix(2);
  EXPECT_EQ(log.FindRequest(RequestId{2, far}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{2, UINT64_MAX}), 3u);
  log.TruncateFrom(4);
  EXPECT_EQ(log.FindRequest(RequestId{2, 6}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{2, UINT64_MAX}), 3u);
  log.ResetTo(10, 1);
  EXPECT_EQ(log.FindRequest(RequestId{2, UINT64_MAX}), kNoLogIndex);
}

TEST(RaftLogTest, ReappendAfterRehashesReplacesTheMapping) {
  // Rid 4/200 is mapped early; two hundred appends later (the rid index has
  // been rebuilt several times on the way) a re-append of it must replace
  // that mapping, so dropping the re-append forgets the rid.
  RaftLog log;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    log.Append(MakeEntry(1, 4, seq));
  }
  log.Append(MakeEntry(1, 4, 200));  // idx 5
  for (uint64_t seq = 5; seq <= 199; ++seq) {
    log.Append(MakeEntry(1, 4, seq));
  }
  log.Append(MakeEntry(1, 4, 201));
  EXPECT_EQ(log.FindRequest(RequestId{4, 200}), 5u);
  EXPECT_EQ(log.FindRequest(RequestId{4, 201}), log.last_index());
  const LogIndex again = log.Append(MakeEntry(2, 4, 200));
  EXPECT_EQ(log.FindRequest(RequestId{4, 200}), again);
  log.TruncateFrom(again);
  EXPECT_EQ(log.FindRequest(RequestId{4, 200}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{4, 199}), again - 2);
}

// Compaction leaves its entries' rid slots dead and new rids reuse them.
// Over many compaction cycles every live rid stays found and every compacted
// one is forgotten, and a re-append of a live rid, from this round or from
// before the last compaction, still replaces its mapping rather than taking
// a dead slot ahead of it, so dropping the re-append forgets the rid.
TEST(RaftLogTest, DeadRidSlotsAreReusedAcrossCompactions) {
  constexpr uint64_t kKept = 150;
  RaftLog log;
  uint64_t seq = 0;  // seq s sits at index s: every re-append is truncated
  std::set<uint64_t> forgotten;
  for (int round = 0; round < 60; ++round) {
    // Re-append every fifth live rid, right after the last compaction left
    // its dead slots, then drop the re-appends.
    std::vector<uint64_t> again;
    for (uint64_t s = log.first_index(); s <= seq; s += 5) {
      if (forgotten.count(s) == 0) {
        again.push_back(s);
      }
    }
    const LogIndex first_again = log.last_index() + 1;
    for (uint64_t s : again) {
      const LogIndex idx = log.Append(MakeEntry(1, 7, s));
      ASSERT_EQ(log.FindRequest(RequestId{7, s}), idx) << "round " << round << " seq " << s;
    }
    log.TruncateFrom(first_again);
    for (uint64_t s : again) {
      ASSERT_EQ(log.FindRequest(RequestId{7, s}), kNoLogIndex) << "round " << round << " seq " << s;
      forgotten.insert(s);
    }
    for (int i = 0; i < 100; ++i) {
      log.Append(MakeEntry(1, 7, ++seq));
    }
    log.CompactPrefix(seq > kKept ? seq - kKept : 0);
    for (uint64_t s = 1; s <= seq; ++s) {
      const bool live = s >= log.first_index() && forgotten.count(s) == 0;
      ASSERT_EQ(log.FindRequest(RequestId{7, s}), live ? s : kNoLogIndex)
          << "round " << round << " seq " << s;
    }
  }
}

// Bounded append/compact cycles, as a node that compacts on log length runs
// them: the live rids stay between 1,500 and 2,000, so the table settles at
// one capacity, and each rehash that purges the slots compaction left dead
// rebuilds it in place. Every live rid stays found, every compacted one is
// forgotten.
TEST(RaftLogTest, BoundedCyclesPurgeDeadRidsAtOneCapacity) {
  constexpr uint64_t kRetained = 1'500;
  constexpr uint64_t kPerCycle = 500;
  constexpr HostId kClients = 8;
  RaftLog log;
  std::vector<uint64_t> next_seq(kClients, 1);
  std::vector<RequestId> rids;  // the rid at index i is rids[i - 1]
  size_t capacity = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    for (uint64_t i = 0; i < kPerCycle; ++i) {
      const auto c = static_cast<HostId>(rids.size() % kClients);
      rids.push_back(RequestId{c, next_seq[static_cast<size_t>(c)]});
      // Each client's seqs are spread, as a shard group's log sees them.
      next_seq[static_cast<size_t>(c)] += 1 + rids.size() % 3;
      log.Append(MakeEntry(1, c, rids.back().seq));
    }
    if (log.size() > kRetained) {
      log.CompactPrefix(log.last_index() - kRetained);
    }
    if (cycle == 4) {
      capacity = log.rid_capacity();
    } else if (cycle > 4) {
      ASSERT_EQ(log.rid_capacity(), capacity) << "cycle " << cycle;
    }
    for (LogIndex idx = 1; idx <= log.last_index(); ++idx) {
      ASSERT_EQ(log.FindRequest(rids[idx - 1]), idx >= log.first_index() ? idx : kNoLogIndex)
          << "cycle " << cycle << " index " << idx;
    }
  }
  EXPECT_EQ(capacity, 4'096u);
}

// Reference model: the rid index as a plain hash map, with the log's
// documented rules (latest append wins; dropping the mapped index forgets
// the rid; ResetTo forgets everything).
class RidModel {
 public:
  void Appended(const LogEntry& e, LogIndex idx) {
    if (!e.noop) {
      map_[e.rid] = idx;
    }
  }
  void Dropped(const LogEntry& e, LogIndex idx) {
    auto it = e.noop ? map_.end() : map_.find(e.rid);
    if (it != map_.end() && it->second == idx) {
      map_.erase(it);
    } else if (it != map_.end()) {
      ++superseded_drops_;  // an older copy of a rid that was ordered again
    }
  }
  void Clear() { map_.clear(); }
  LogIndex Find(const RequestId& rid) const {
    auto it = map_.find(rid);
    return it == map_.end() ? kNoLogIndex : it->second;
  }
  const std::unordered_map<RequestId, LogIndex, RequestIdHash>& map() const { return map_; }
  int superseded_drops() const { return superseded_drops_; }

 private:
  std::unordered_map<RequestId, LogIndex, RequestIdHash> map_;
  int superseded_drops_ = 0;
};

TEST(RaftLogTest, FindRequestMatchesHashMapModel) {
  constexpr int kClients = 8;
  constexpr int kOps = 30'000;
  std::mt19937_64 rng(20201);
  RaftLog log;
  RidModel model;
  std::vector<uint64_t> next_seq(kClients, 1);
  std::vector<RequestId> history;  // every rid ever appended
  Term term = 1;
  int compactions = 0;

  auto check = [&](int op) {
    for (const auto& [rid, idx] : model.map()) {
      ASSERT_EQ(log.FindRequest(rid), idx) << "op " << op << " rid " << rid.client << "/"
                                           << rid.seq;
    }
    for (int i = 0; i < 16 && !history.empty(); ++i) {
      const RequestId rid = history[rng() % history.size()];
      ASSERT_EQ(log.FindRequest(rid), model.Find(rid))
          << "op " << op << " rid " << rid.client << "/" << rid.seq;
    }
    const RequestId never{static_cast<HostId>(rng() % kClients), next_seq[0] + 1'000'000};
    ASSERT_EQ(log.FindRequest(never), model.Find(never)) << "op " << op;
  };

  for (int op = 0; op < kOps; ++op) {
    const uint64_t dice = rng() % 10'000;
    if (dice < 8'000 || log.size() < 8) {
      LogEntry e;
      const auto c = static_cast<HostId>(rng() % kClients);
      const uint64_t kind = rng() % 100;
      if (kind < 5) {
        e = Noop(term);
      } else if (kind < 10 && !history.empty()) {
        // A duplicate: a recent rid ordered again (allow_duplicate).
        const RequestId rid =
            history[history.size() - 1 - rng() % std::min<size_t>(history.size(), 64)];
        e = MakeEntry(term, rid.client, rid.seq);
      } else if (kind < 20 && next_seq[c] > 1) {
        // A retransmit after failover: an older seq ordered late.
        e = MakeEntry(term, c, next_seq[c] - 1 - rng() % std::min<uint64_t>(next_seq[c] - 1, 40));
      } else if (kind < 22) {
        e = MakeEntry(term, c, (uint64_t{1} << 63) - rng() % 4);
      } else {
        if (rng() % 10 == 0) {
          next_seq[c] += rng() % 5;  // a lost request leaves a hole
        } else if (rng() % 200 == 0) {
          next_seq[c] += 100 + rng() % 200;  // a long run of lost requests
        }
        e = MakeEntry(term, c, next_seq[c]++);
      }
      const LogIndex idx = log.Append(e);
      model.Appended(log.At(idx), idx);
      if (!e.noop) {
        history.push_back(e.rid);
      }
    } else if (dice < 9'000) {
      // Conflict resolution: usually a short suffix, sometimes a long one.
      const uint64_t drop = rng() % 50 == 0 ? rng() % (log.size() / 4) : rng() % 8;
      const LogIndex from = log.last_index() + 1 - std::min<uint64_t>(drop, log.size());
      for (LogIndex i = log.last_index(); i >= from; --i) {
        model.Dropped(log.At(i), i);
      }
      log.TruncateFrom(from);
      ++term;
    } else if (dice < 9'995) {
      if (log.size() < 300) {
        continue;
      }
      ++compactions;
      // Usually up to half the log; sometimes all but a few entries, which
      // shrinks the rid index.
      const LogIndex upto = rng() % 4 == 0 ? log.last_index() - rng() % 4
                                           : log.first_index() + rng() % (log.size() / 2);
      for (LogIndex i = log.first_index(); i <= upto; ++i) {
        model.Dropped(log.At(i), i);
      }
      log.CompactPrefix(upto);
    } else {
      // A snapshot past the tail, or one behind it whose indices the next
      // appends reuse.
      model.Clear();
      log.ResetTo(log.first_index() - 1 + rng() % (log.size() + 10), term);
    }
    check(op);
  }
  // The sequence reached the cases it is meant to cover.
  EXPECT_GT(history.size(), 10'000u);
  EXPECT_GT(compactions, 50);
  EXPECT_GT(model.superseded_drops(), 100);
}

}  // namespace
}  // namespace hovercraft
