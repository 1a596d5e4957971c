#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/counting_allocator.h"  // heap a push requests
#include "src/app/kvstore/command.h"
#include "src/app/kvstore/service.h"
#include "src/app/kvstore/store.h"
#include "src/common/buffer.h"
#include "src/common/checksum.h"
#include "src/common/image.h"
#include "src/common/random.h"
#include "src/common/slab_pool.h"
#include "src/r2p2/shard.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// KvStore data structures
// ---------------------------------------------------------------------------

TEST(KvStoreTest, StringSetGetDel) {
  KvStore store;
  store.Set("k", "v1");
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_EQ(store.Get("k").value(), "v1");
  store.Set("k", "v2");  // overwrite
  EXPECT_EQ(store.Get("k").value(), "v2");
  EXPECT_TRUE(store.Del("k"));
  EXPECT_FALSE(store.Del("k"));
  EXPECT_EQ(store.Get("k").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, HashOperations) {
  KvStore store;
  ASSERT_TRUE(store.Hset("h", "f1", "a").ok());
  ASSERT_TRUE(store.Hset("h", "f2", "b").ok());
  ASSERT_TRUE(store.Hset("h", "f1", "c").ok());
  EXPECT_EQ(store.Hget("h", "f1").value(), "c");
  EXPECT_EQ(store.Hget("h", "f2").value(), "b");
  EXPECT_EQ(store.Hget("h", "nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Hget("missing", "f").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, WrongTypeErrors) {
  KvStore store;
  store.Set("s", "x");
  EXPECT_EQ(store.Hset("s", "f", "v").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Hget("s", "f").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(store.Rpush("s", "v").ok());
  EXPECT_FALSE(store.Lrange("s", 0, -1).ok());
  ASSERT_TRUE(store.Hset("h", "f", "v").ok());
  EXPECT_EQ(store.Get("h").status().code(), StatusCode::kFailedPrecondition);
}

TEST(KvStoreTest, ListPushAndRange) {
  KvStore store;
  EXPECT_EQ(store.Rpush("l", "a").value(), 1u);
  EXPECT_EQ(store.Rpush("l", "b").value(), 2u);
  EXPECT_EQ(store.Rpush("l", "c").value(), 3u);
  EXPECT_EQ(store.Lrange("l", 0, -1).value(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(store.Lrange("l", 1, 1).value(), (std::vector<std::string>{"b"}));
  EXPECT_EQ(store.Lrange("l", -2, -1).value(), (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(store.Lrange("l", 5, 9).value().empty());
}

TEST(KvStoreTest, ScanTailNewestFirst) {
  KvStore store;
  for (const char* v : {"p1", "p2", "p3", "p4"}) {
    ASSERT_TRUE(store.Rpush("conv", v).ok());
  }
  EXPECT_EQ(store.ScanTail("conv", 2).value(), (std::vector<std::string>{"p4", "p3"}));
  EXPECT_EQ(store.ScanTail("conv", 10).value(),
            (std::vector<std::string>{"p4", "p3", "p2", "p1"}));
  EXPECT_EQ(store.ScanTail("conv", 0).value().size(), 0u);
  EXPECT_EQ(store.ScanTail("missing", 3).status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, ContentDigestDetectsDifferences) {
  KvStore a;
  KvStore b;
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
  a.Set("k", "v");
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
  b.Set("k", "v");
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
  // List order matters.
  a.Rpush("l", "1");
  a.Rpush("l", "2");
  b.Rpush("l", "2");
  b.Rpush("l", "1");
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());
}

TEST(KvStoreTest, DigestInsensitiveToKeyInsertionOrder) {
  KvStore a;
  KvStore b;
  a.Set("x", "1");
  a.Set("y", "2");
  b.Set("y", "2");
  b.Set("x", "1");
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
}

// ---------------------------------------------------------------------------
// Command codec
// ---------------------------------------------------------------------------

TEST(KvCommandTest, RoundTripAllOpcodes) {
  std::vector<KvCommand> commands;
  {
    KvCommand c;
    c.op = KvOpcode::kSet;
    c.key = "k";
    c.value = "v";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kGet;
    c.key = "k";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kDel;
    c.key = "k";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kHset;
    c.key = "h";
    c.field = "f";
    c.value = "v";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kHget;
    c.key = "h";
    c.field = "f";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kRpush;
    c.key = "l";
    c.value = "item";
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kLrange;
    c.key = "l";
    c.range_start = -5;
    c.range_stop = -1;
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kYInsert;
    c.key = "conv:1";
    c.value = std::string(1000, 'x');
    commands.push_back(c);
  }
  {
    KvCommand c;
    c.op = KvOpcode::kYScan;
    c.key = "conv:1";
    c.scan_limit = 10;
    commands.push_back(c);
  }

  for (const KvCommand& cmd : commands) {
    Body body = EncodeKvCommand(cmd);
    Result<KvCommand> decoded = DecodeKvCommand(body);
    ASSERT_TRUE(decoded.ok());
    const KvCommand& d = decoded.value();
    EXPECT_EQ(d.op, cmd.op);
    EXPECT_EQ(d.key, cmd.key);
    EXPECT_EQ(d.field, cmd.field);
    EXPECT_EQ(d.value, cmd.value);
    EXPECT_EQ(d.range_start, cmd.range_start);
    EXPECT_EQ(d.range_stop, cmd.range_stop);
    EXPECT_EQ(d.scan_limit, cmd.scan_limit);
  }
}

TEST(KvCommandTest, ReadOnlyClassification) {
  KvCommand c;
  c.op = KvOpcode::kGet;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kYScan;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kLrange;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kHget;
  EXPECT_TRUE(c.IsReadOnly());
  c.op = KvOpcode::kSet;
  EXPECT_FALSE(c.IsReadOnly());
  c.op = KvOpcode::kYInsert;
  EXPECT_FALSE(c.IsReadOnly());
}

TEST(KvCommandTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeKvCommand(nullptr).ok());
  EXPECT_FALSE(DecodeKvCommand(MakeBody({})).ok());
  EXPECT_FALSE(DecodeKvCommand(MakeBody({0xFF, 0x01})).ok());
}

TEST(KvReplyTest, RoundTrip) {
  KvReply reply;
  reply.status = KvReplyStatus::kOk;
  reply.values = {"a", "", "ccc"};
  Result<KvReply> decoded = DecodeKvReply(EncodeKvReply(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status, KvReplyStatus::kOk);
  EXPECT_EQ(decoded.value().values, reply.values);
}

// ---------------------------------------------------------------------------
// KvService (StateMachine adapter + cost model)
// ---------------------------------------------------------------------------

RpcRequest MakeKvRequest(const KvCommand& cmd, uint64_t seq) {
  return RpcRequest(RequestId{1, seq},
                    cmd.IsReadOnly() ? R2p2Policy::kReplicatedReqRo : R2p2Policy::kReplicatedReq,
                    EncodeKvCommand(cmd));
}

TEST(KvServiceTest, ExecuteMutatesAndReplies) {
  KvService svc;
  KvCommand set;
  set.op = KvOpcode::kSet;
  set.key = "k";
  set.value = "hello";
  ExecResult r = svc.Execute(MakeKvRequest(set, 1));
  EXPECT_GT(r.service_time, 0);
  EXPECT_EQ(svc.ApplyCount(), 1u);

  KvCommand get;
  get.op = KvOpcode::kGet;
  get.key = "k";
  ExecResult g = svc.Execute(MakeKvRequest(get, 2));
  Result<KvReply> reply = DecodeKvReply(g.reply);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().status, KvReplyStatus::kOk);
  ASSERT_EQ(reply.value().values.size(), 1u);
  EXPECT_EQ(reply.value().values[0], "hello");
  // Read did not change the apply count.
  EXPECT_EQ(svc.ApplyCount(), 1u);
}

TEST(KvServiceTest, InsertCostsMoreThanScan) {
  // The Amdahl shape of Figure 13 depends on INSERT being the expensive,
  // serial (executed-everywhere) operation.
  KvService svc;
  KvCommand insert;
  insert.op = KvOpcode::kYInsert;
  insert.key = "conv:1";
  insert.value = std::string(1000, 'r');
  TimeNs insert_cost = 0;
  svc.Apply(insert, &insert_cost);
  for (int i = 0; i < 20; ++i) {
    svc.Apply(insert);
  }

  KvCommand scan;
  scan.op = KvOpcode::kYScan;
  scan.key = "conv:1";
  scan.scan_limit = 10;
  TimeNs scan_cost = 0;
  KvReply reply = svc.Apply(scan, &scan_cost);
  EXPECT_EQ(reply.values.size(), 10u);
  EXPECT_GT(insert_cost, scan_cost);
  EXPECT_GT(scan_cost, Micros(5));
}

TEST(KvServiceTest, DigestTracksDivergence) {
  KvService a;
  KvService b;
  KvCommand set;
  set.op = KvOpcode::kSet;
  set.key = "k";
  set.value = "v";
  a.Execute(MakeKvRequest(set, 1));
  b.Execute(MakeKvRequest(set, 1));
  EXPECT_EQ(a.Digest(), b.Digest());
  set.value = "other";
  b.Execute(MakeKvRequest(set, 2));
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(KvServiceTest, ScanOnMissingThreadIsNotFoundButCheap) {
  KvService svc;
  KvCommand scan;
  scan.op = KvOpcode::kYScan;
  scan.key = "conv:404";
  scan.scan_limit = 10;
  TimeNs cost = 0;
  KvReply reply = svc.Apply(scan, &cost);
  EXPECT_EQ(reply.status, KvReplyStatus::kNotFound);
  EXPECT_LT(cost, Micros(10));
}

}  // namespace
}  // namespace hovercraft

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Extended command surface (counters, string ops, sets)
// ---------------------------------------------------------------------------

TEST(KvStoreExtTest, IncrCreatesAndCounts) {
  KvStore store;
  EXPECT_EQ(store.Incr("n").value(), 1);
  EXPECT_EQ(store.Incr("n").value(), 2);
  EXPECT_EQ(store.Incr("n").value(), 3);
  EXPECT_EQ(store.Get("n").value(), "3");
  store.Set("s", "not-a-number");
  EXPECT_FALSE(store.Incr("s").ok());
  store.Rpush("l", "x");
  EXPECT_FALSE(store.Incr("l").ok());
}

TEST(KvStoreExtTest, AppendGrowsString) {
  KvStore store;
  EXPECT_EQ(store.Append("k", "foo").value(), 3u);
  EXPECT_EQ(store.Append("k", "bar").value(), 6u);
  EXPECT_EQ(store.Get("k").value(), "foobar");
}

TEST(KvStoreExtTest, SetnxOnlyFirstWins) {
  KvStore store;
  EXPECT_TRUE(store.Setnx("k", "first").value());
  EXPECT_FALSE(store.Setnx("k", "second").value());
  EXPECT_EQ(store.Get("k").value(), "first");
}

TEST(KvStoreExtTest, HdelRemovesField) {
  KvStore store;
  ASSERT_TRUE(store.Hset("h", "f", "v").ok());
  EXPECT_TRUE(store.Hdel("h", "f").value());
  EXPECT_FALSE(store.Hdel("h", "f").value());
  EXPECT_EQ(store.Hget("h", "f").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreExtTest, LpopAndLlen) {
  KvStore store;
  store.Rpush("l", "a");
  store.Rpush("l", "b");
  EXPECT_EQ(store.Llen("l").value(), 2u);
  EXPECT_EQ(store.Lpop("l").value(), "a");
  EXPECT_EQ(store.Lpop("l").value(), "b");
  EXPECT_EQ(store.Lpop("l").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Llen("missing").value(), 0u);
}

TEST(KvStoreExtTest, SetOperations) {
  KvStore store;
  EXPECT_TRUE(store.Sadd("s", "a").value());
  EXPECT_TRUE(store.Sadd("s", "b").value());
  EXPECT_FALSE(store.Sadd("s", "a").value());  // duplicate
  EXPECT_EQ(store.Scard("s").value(), 2u);
  EXPECT_TRUE(store.Sismember("s", "a").value());
  EXPECT_FALSE(store.Sismember("s", "z").value());
  EXPECT_TRUE(store.Srem("s", "a").value());
  EXPECT_FALSE(store.Srem("s", "a").value());
  EXPECT_EQ(store.Scard("s").value(), 1u);
  EXPECT_FALSE(store.Sismember("missing", "x").value());
  EXPECT_EQ(store.Scard("missing").value(), 0u);
}

TEST(KvStoreExtTest, SetsInDigestAndSnapshot) {
  KvStore a;
  a.Sadd("s", "m1");
  a.Sadd("s", "m2");
  KvStore b;
  b.Sadd("s", "m2");
  b.Sadd("s", "m1");
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());  // insertion order irrelevant

  BufferWriter w;
  a.SerializeTo(w);
  KvStore c;
  BufferReader r(w.bytes());
  ASSERT_TRUE(c.DeserializeFrom(r).ok());
  EXPECT_EQ(c.ContentDigest(), a.ContentDigest());
  EXPECT_TRUE(c.Sismember("s", "m1").value());
}

TEST(KvCommandExtTest, NewOpcodesRoundTrip) {
  for (KvOpcode op : {KvOpcode::kIncr, KvOpcode::kAppend, KvOpcode::kSetnx, KvOpcode::kExists,
                      KvOpcode::kHdel, KvOpcode::kLpop, KvOpcode::kLlen, KvOpcode::kSadd,
                      KvOpcode::kSrem, KvOpcode::kSismember, KvOpcode::kScard}) {
    KvCommand cmd;
    cmd.op = op;
    cmd.key = "key";
    cmd.field = "field";
    cmd.value = "value";
    Result<KvCommand> decoded = DecodeKvCommand(EncodeKvCommand(cmd));
    ASSERT_TRUE(decoded.ok()) << static_cast<int>(op);
    EXPECT_EQ(decoded.value().op, op);
    EXPECT_EQ(decoded.value().key, "key");
  }
}

TEST(KvCommandExtTest, ReadOnlyClassificationForNewOps) {
  KvCommand c;
  for (KvOpcode op : {KvOpcode::kExists, KvOpcode::kLlen, KvOpcode::kSismember, KvOpcode::kScard}) {
    c.op = op;
    EXPECT_TRUE(c.IsReadOnly()) << static_cast<int>(op);
  }
  for (KvOpcode op : {KvOpcode::kIncr, KvOpcode::kAppend, KvOpcode::kSetnx, KvOpcode::kHdel,
                      KvOpcode::kLpop, KvOpcode::kSadd, KvOpcode::kSrem}) {
    c.op = op;
    EXPECT_FALSE(c.IsReadOnly()) << static_cast<int>(op);
  }
}

TEST(KvServiceExtTest, CounterThroughService) {
  KvService svc;
  KvCommand incr;
  incr.op = KvOpcode::kIncr;
  incr.key = "hits";
  KvReply r1 = svc.Apply(incr);
  KvReply r2 = svc.Apply(incr);
  EXPECT_EQ(r1.values[0], "1");
  EXPECT_EQ(r2.values[0], "2");

  KvCommand exists;
  exists.op = KvOpcode::kExists;
  exists.key = "hits";
  EXPECT_EQ(svc.Apply(exists).values[0], "1");
  exists.key = "nope";
  EXPECT_EQ(svc.Apply(exists).values[0], "0");
}

// ---------------------------------------------------------------------------
// Forged snapshot counts
// ---------------------------------------------------------------------------

// [applied][digest][count] and then `rest`: a snapshot whose key count claims
// far more entries than its bytes hold.
Body ForgedKvImage(uint64_t count, std::span<const uint8_t> rest = {}) {
  BufferWriter w;
  w.PutU64(7);
  w.PutU64(9);
  w.PutU64(count);
  w.PutBytes(rest);
  return MakeBody(w.TakeBytes());
}

// A decoder sizes its containers by the bytes left, not by a count it has not
// checked yet: a forged count is a decode error, not an allocation failure
// that kills the process.
TEST(KvServiceTest, ForgedTopLevelCountIsAnError) {
  for (uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 62, ~uint64_t{0}}) {
    KvService svc;
    svc.store().Set("keep", "me");
    EXPECT_FALSE(svc.RestoreState(ForgedKvImage(count)).ok()) << count;
    // A failed restore leaves the state as it was.
    EXPECT_EQ(svc.store().Get("keep").value(), "me");
  }
}

TEST(KvServiceTest, ForgedPerValueCountIsAnError) {
  // One entry: key "k", then a hash or set tag with a forged element count.
  for (uint8_t tag : {uint8_t{1}, uint8_t{3}}) {
    for (uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 62}) {
      BufferWriter entry;
      entry.PutString("k");
      entry.PutU8(tag);
      entry.PutU64(count);
      entry.PutString("only-one");
      KvService svc;
      EXPECT_FALSE(svc.RestoreState(ForgedKvImage(1, entry.bytes())).ok())
          << "tag " << int{tag} << " count " << count;
      // The same entry as a shard-move range payload: [u64 count = 1][entry].
      BufferWriter range;
      range.PutU64(1);
      range.PutBytes(entry.bytes());
      EXPECT_FALSE(svc.InstallRange(MakeBody(range.TakeBytes())).ok()) << "tag " << int{tag};
    }
  }
}

// ---------------------------------------------------------------------------
// Cached snapshot image
// ---------------------------------------------------------------------------

// The reference image as one flat buffer: [applied][mutation digest]
// followed by SerializeTo. SerializeTo copies a clean key's part verbatim, so
// this checks the image's framing, sizes and CRCs, not the encoder; the
// restore-and-compare against a shadow service checks the contents.
std::vector<uint8_t> FreshImage(const KvService& svc) {
  BufferWriter w;
  w.PutU64(svc.ApplyCount());
  w.PutU64(svc.mutation_digest());
  svc.store().SerializeTo(w);
  return w.TakeBytes();
}

// A random command over a small key pool, so keys are often of another type
// than the command expects (wrong-type failures) or missing.
KvCommand RandomCommand(Rng& rng) {
  static constexpr KvOpcode kOps[] = {
      KvOpcode::kSet,   KvOpcode::kGet,   KvOpcode::kDel,    KvOpcode::kHset,
      KvOpcode::kHget,  KvOpcode::kRpush, KvOpcode::kLrange, KvOpcode::kYInsert,
      KvOpcode::kYScan, KvOpcode::kIncr,  KvOpcode::kAppend, KvOpcode::kSetnx,
      KvOpcode::kExists, KvOpcode::kHdel, KvOpcode::kLpop,   KvOpcode::kLlen,
      KvOpcode::kSadd,  KvOpcode::kSrem,  KvOpcode::kSismember, KvOpcode::kScard};
  KvCommand cmd;
  cmd.op = kOps[rng.NextBelow(std::size(kOps))];
  cmd.key = "k" + std::to_string(rng.NextBelow(12));
  cmd.field = "f" + std::to_string(rng.NextBelow(4));
  cmd.value = rng.NextBelow(4) == 0 ? std::to_string(rng.NextBelow(100))
                                    : std::string(rng.NextBelow(40),
                                                  static_cast<char>('a' + rng.NextBelow(26)));
  cmd.range_start = 0;
  cmd.range_stop = -1;
  cmd.scan_limit = 3;
  return cmd;
}

// Every mutating path of the store and the service drops exactly the parts it
// may change: after any sequence of commands (wrong-type failures included),
// range drops and installs and restores, each snapshot image equals a flat
// serialization, its combined CRC equals the CRC of its flat bytes, and the
// images taken earlier still hold the bytes they had. A shadow service takes
// the same steps and never images, so its keys stay decoded: every reply
// matches the shadow's, and every image restores to the shadow's state.
TEST(KvServiceTest, CachedImageMatchesFreshSerializationUnderRandomOps) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    KvService svc;
    KvService shadow;
    KvService donor;  // source of installed ranges and restored states
    uint64_t seq = 0;
    std::vector<std::pair<Image, std::vector<uint8_t>>> taken;
    for (int step = 0; step < 400; ++step) {
      const uint64_t dice = rng.NextBelow(100);
      if (dice < 70) {
        const RpcRequest request = MakeKvRequest(RandomCommand(rng), ++seq);
        const ExecResult got = svc.Execute(request);
        const ExecResult want = shadow.Execute(request);
        ASSERT_TRUE(got.reply == want.reply) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.service_time, want.service_time);
      } else if (dice < 78) {
        donor.Execute(MakeKvRequest(RandomCommand(rng), ++seq));
      } else if (dice < 82) {
        const auto lo = static_cast<uint32_t>(rng.NextBelow(kShardSlots));
        const auto hi = static_cast<uint32_t>(lo + rng.NextBelow(kShardSlots - lo));
        ASSERT_TRUE(svc.DropRange(lo, hi).ok());
        ASSERT_TRUE(shadow.DropRange(lo, hi).ok());
      } else if (dice < 86) {
        const auto lo = static_cast<uint32_t>(rng.NextBelow(kShardSlots));
        const auto hi = static_cast<uint32_t>(lo + rng.NextBelow(kShardSlots - lo));
        const Body range = donor.CaptureRange(lo, hi);
        ASSERT_TRUE(svc.InstallRange(range).ok());
        ASSERT_TRUE(shadow.InstallRange(range).ok());
      } else if (dice < 88) {
        // Restore either the donor's state or one of our own earlier images.
        const Body state = taken.empty() || rng.NextBelow(2) == 0
                               ? donor.SnapshotState()
                               : taken[rng.NextBelow(taken.size())].first.Flatten();
        ASSERT_TRUE(svc.RestoreState(state).ok());
        ASSERT_TRUE(shadow.RestoreState(state).ok());
      } else {
        const Image image = svc.SnapshotImage();
        const Body flat = image.Flatten();
        const std::vector<uint8_t> fresh = FreshImage(svc);
        ASSERT_TRUE(flat == fresh) << "seed " << seed << " step " << step;
        ASSERT_EQ(image.size(), fresh.size());
        ASSERT_EQ(image.crc(), Crc32cPortable(fresh)) << "seed " << seed << " step " << step;
        ASSERT_EQ(image.parts().size(), 1 + svc.store().key_count());
        ASSERT_TRUE(svc.SnapshotState() == fresh);
        KvService restored;
        ASSERT_TRUE(restored.RestoreState(flat).ok());
        ASSERT_EQ(restored.Digest(), shadow.Digest()) << "seed " << seed << " step " << step;
        ASSERT_EQ(restored.ApplyCount(), shadow.ApplyCount());
        ASSERT_EQ(svc.Digest(), shadow.Digest());
        taken.emplace_back(image, fresh);
      }
    }
    for (const auto& [image, bytes] : taken) {
      EXPECT_TRUE(image.Flatten() == bytes) << "seed " << seed << ": a shared part changed";
    }
  }
}

// One key of each value type (two strings: one is a counter).
constexpr const char* kTypedKeys[] = {"str", "num", "hash", "list", "set"};

void LoadEveryType(KvStore& store) {
  store.Set("str", "value");
  store.Set("num", "41");
  ASSERT_TRUE(store.Hset("hash", "f1", "a").ok());
  ASSERT_TRUE(store.Hset("hash", "f2", "bb").ok());
  for (const char* post : {"p1", "p2", "p3", "p4"}) {
    ASSERT_TRUE(store.Rpush("list", post).ok());
  }
  for (const char* member : {"m1", "m2", "m3"}) {
    ASSERT_TRUE(store.Sadd("set", member).ok());
  }
}

// Every read command against every typed key and a missing one, with fields
// and members that exist and that do not, and list ranges in and out of
// bounds.
std::vector<KvCommand> EveryRead() {
  std::vector<KvCommand> reads;
  std::vector<std::string> keys(std::begin(kTypedKeys), std::end(kTypedKeys));
  keys.emplace_back("missing");
  for (const std::string& key : keys) {
    KvCommand cmd;
    cmd.key = key;
    for (KvOpcode op : {KvOpcode::kGet, KvOpcode::kExists, KvOpcode::kLlen, KvOpcode::kScard}) {
      cmd.op = op;
      reads.push_back(cmd);
    }
    for (const char* field : {"f2", "nope"}) {
      cmd.op = KvOpcode::kHget;
      cmd.field = field;
      reads.push_back(cmd);
    }
    for (const char* member : {"m2", "nope"}) {
      cmd.op = KvOpcode::kSismember;
      cmd.value = member;
      reads.push_back(cmd);
    }
    for (auto [start, stop] : {std::pair{0, -1}, {1, 2}, {-2, -1}, {3, 1}, {5, 9}, {-100, 100}}) {
      cmd.op = KvOpcode::kLrange;
      cmd.range_start = start;
      cmd.range_stop = stop;
      reads.push_back(cmd);
    }
    for (int32_t limit : {-1, 0, 2, 4, 10}) {
      cmd.op = KvOpcode::kYScan;
      cmd.scan_limit = limit;
      reads.push_back(cmd);
    }
  }
  return reads;
}

// Each image part, by the key its entry starts with.
std::unordered_map<std::string, Image::Part> PartOf(const Image& image) {
  std::unordered_map<std::string, Image::Part> parts;
  for (size_t i = 1; i < image.parts().size(); ++i) {
    BufferReader r(image.parts()[i].bytes.bytes());
    std::string key;
    EXPECT_TRUE(r.GetString(key).ok());
    parts[key] = image.parts()[i];
  }
  return parts;
}

// An image's part for each key, by the key its entry starts with.
std::unordered_map<std::string, const uint8_t*> PartsByKey(const Image& image) {
  std::unordered_map<std::string, const uint8_t*> parts;
  for (const auto& [key, part] : PartOf(image)) {
    parts[key] = part.bytes.data();
  }
  return parts;
}

// An image leaves each key of every type held only as its part, and a clean
// key answers every read (wrong type and missing key included) exactly as a
// decoded one: same status, values and cost, and the same content digest.
TEST(KvServiceTest, CleanKeysAnswerReadsLikeDecodedKeys) {
  KvService decoded;
  KvService clean;
  LoadEveryType(decoded.store());
  LoadEveryType(clean.store());
  clean.SnapshotImage();
  for (const char* key : kTypedKeys) {
    EXPECT_TRUE(clean.store().IsEncodedOnly(key)) << key;
    EXPECT_FALSE(decoded.store().IsEncodedOnly(key)) << key;
  }
  EXPECT_FALSE(clean.store().IsEncodedOnly("missing"));
  EXPECT_EQ(clean.store().ContentDigest(), decoded.store().ContentDigest());
  EXPECT_EQ(clean.Digest(), decoded.Digest());

  for (const KvCommand& read : EveryRead()) {
    TimeNs want_cost = 0;
    TimeNs got_cost = 0;
    const KvReply want = decoded.Apply(read, &want_cost);
    const KvReply got = clean.Apply(read, &got_cost);
    const std::string what = "op " + std::to_string(static_cast<int>(read.op)) + " on " + read.key;
    EXPECT_EQ(got.status, want.status) << what;
    EXPECT_EQ(got.values, want.values) << what;
    EXPECT_EQ(got_cost, want_cost) << what;
  }
  for (const char* key : kTypedKeys) {
    EXPECT_TRUE(clean.store().IsEncodedOnly(key)) << key << " was decoded by a read";
  }
}

// A second image with nothing changed reuses every key's part (same
// storage, not a copy), reads included; a write re-serializes only the key
// it touched.
TEST(KvServiceTest, UnchangedKeysShareTheirParts) {
  KvService svc;
  KvCommand cmd;
  cmd.op = KvOpcode::kRpush;
  for (int k = 0; k < 5; ++k) {
    cmd.key = "conv:" + std::to_string(k);
    cmd.value = "post";
    svc.Apply(cmd);
  }
  const Image first = svc.SnapshotImage();
  cmd.key = "conv:3";
  svc.Apply(cmd);
  const Image second = svc.SnapshotImage();
  ASSERT_EQ(first.parts().size(), second.parts().size());
  size_t shared = 0;
  for (size_t i = 1; i < first.parts().size(); ++i) {
    if (first.parts()[i].bytes.data() == second.parts()[i].bytes.data()) {
      ++shared;
    }
  }
  EXPECT_EQ(shared, 4u);
  EXPECT_TRUE(second.Flatten() == FreshImage(svc));

  // Each value type: every read leaves all parts shared; one write to a key
  // decodes it and re-encodes only that key.
  KvService typed;
  LoadEveryType(typed.store());
  // Holding the last image keeps its parts allocated, so a re-encoded key's
  // new part cannot land at the address of the part it replaced.
  Image held = typed.SnapshotImage();
  std::unordered_map<std::string, const uint8_t*> parts = PartsByKey(held);
  for (const char* key : kTypedKeys) {
    const uint64_t digest = typed.Digest();
    for (const KvCommand& read : EveryRead()) {
      typed.Apply(read);
    }
    EXPECT_EQ(PartsByKey(typed.SnapshotImage()), parts) << "a read re-encoded a key";
    EXPECT_EQ(typed.Digest(), digest);

    KvCommand write;
    write.key = key;
    write.field = "f3";
    write.value = "new";
    const std::string_view k = key;
    write.op = k == "str"    ? KvOpcode::kSet  // overwrites without decoding
               : k == "num"  ? KvOpcode::kIncr
               : k == "hash" ? KvOpcode::kHset
               : k == "list" ? KvOpcode::kRpush
                             : KvOpcode::kSadd;
    ASSERT_EQ(typed.Apply(write).status, KvReplyStatus::kOk) << key;
    EXPECT_FALSE(typed.store().IsEncodedOnly(key));
    Image next_image = typed.SnapshotImage();
    const std::unordered_map<std::string, const uint8_t*> next = PartsByKey(next_image);
    EXPECT_TRUE(typed.store().IsEncodedOnly(key));
    ASSERT_EQ(next.size(), parts.size());
    for (const char* other : kTypedKeys) {
      EXPECT_EQ(next.at(other) != parts.at(other), other == k)
          << "wrote " << key << ", checked " << other;
    }
    parts = next;
    held = std::move(next_image);
    KvService decoded;  // the same contents, never imaged
    ASSERT_TRUE(decoded.RestoreState(typed.SnapshotState()).ok());
    EXPECT_FALSE(decoded.store().IsEncodedOnly(key));
    EXPECT_EQ(decoded.Digest(), typed.Digest());
  }
}

// Two replicas on one index of published parts (the deployment's
// ImagePartIndex): an identical value adopts the part the other published,
// with no allocation, and a value that differs by one byte of a string, a
// hash field, a list item or a set member never does. The one-byte edits
// keep each entry's length, so only the byte compare can tell them apart.
TEST(KvStoreTest, SharedIndexAdoptsOnlyIdenticalParts) {
  using Edit = void (*)(KvStore&);
  const std::pair<const char*, Edit> kEdits[] = {
      {nullptr, [](KvStore&) {}},
      {"str", [](KvStore& s) { s.Set("str", "valuf"); }},
      {"num", [](KvStore& s) { s.Set("num", "42"); }},
      {"hash", [](KvStore& s) { ASSERT_TRUE(s.Hset("hash", "f2", "bc").ok()); }},
      {"hash",
       [](KvStore& s) {
         ASSERT_TRUE(s.Hdel("hash", "f2").ok());
         ASSERT_TRUE(s.Hset("hash", "f3", "bb").ok());
       }},
      {"list",
       [](KvStore& s) {
         s.Del("list");
         for (const char* post : {"p1", "p2", "q3", "p4"}) {
           ASSERT_TRUE(s.Rpush("list", post).ok());
         }
       }},
      {"set",
       [](KvStore& s) {
         ASSERT_TRUE(s.Srem("set", "m2").ok());
         ASSERT_TRUE(s.Sadd("set", "n2").ok());
       }},
  };
  for (const auto& [edited, edit] : kEdits) {
    const std::string what = edited == nullptr ? "no edit" : edited;
    ImagePartIndex index;
    ImagePartIndex::Scope scope(&index);
    KvStore first;
    KvStore second;
    LoadEveryType(first);
    LoadEveryType(second);
    edit(second);
    const Image published = first.SerializeImage(BufferWriter());
    // Every key is clean now, so this image allocates only its head.
    size_t before = SlabPool::Outstanding();
    const Image reimaged = first.SerializeImage(BufferWriter());
    const size_t head_blocks = SlabPool::Outstanding() - before;
    before = SlabPool::Outstanding();
    const Image adopted = second.SerializeImage(BufferWriter());
    const size_t blocks = SlabPool::Outstanding() - before;

    const auto mine = PartsByKey(adopted);
    const auto theirs = PartsByKey(published);
    for (const char* key : kTypedKeys) {
      const bool same = edited == nullptr || std::string_view(key) != edited;
      EXPECT_EQ(mine.at(key) == theirs.at(key), same) << what << ", key " << key;
    }
    // Adopting allocates nothing: only the edited key's own part is new.
    EXPECT_EQ(blocks, head_blocks + (edited == nullptr ? 0 : 1)) << what;
    // The image is byte for byte the second store's own serialization.
    BufferWriter flat;
    second.SerializeTo(flat);
    const std::vector<uint8_t> own = flat.TakeBytes();
    EXPECT_TRUE(adopted.Flatten() == own) << what;
    EXPECT_EQ(adopted.crc(), Crc32cPortable(own)) << what;
    KvStore restored;
    BufferReader in(own);
    ASSERT_TRUE(restored.DeserializeFrom(in).ok());
    EXPECT_EQ(second.ContentDigest(), restored.ContentDigest()) << what;
    EXPECT_EQ(second.ContentDigest() == first.ContentDigest(), edited == nullptr) << what;
  }
}

// Before its first image a store adopts a matching published part at the
// end of each write, so a store replaying what another replica imaged holds
// each key only as that part once the write that completes it returns.
// After its first image a write leaves its key dirty until the next image,
// even when the part published under its name holds exactly its new bytes:
// adopting then would make the key's next write decode it again.
TEST(KvStoreTest, WritesAdoptPublishedPartsOnlyBeforeTheFirstImage) {
  ImagePartIndex index;
  ImagePartIndex::Scope scope(&index);
  KvStore publisher;
  KvStore imaged;
  LoadEveryType(publisher);
  LoadEveryType(imaged);
  const Image published = publisher.SerializeImage(BufferWriter());
  const Image adopted = imaged.SerializeImage(BufferWriter());
  ASSERT_EQ(PartsByKey(adopted), PartsByKey(published));

  ASSERT_TRUE(publisher.Rpush("list", "p5").ok());
  const auto republished = PartsByKey(publisher.SerializeImage(BufferWriter()));
  ASSERT_TRUE(imaged.Rpush("list", "p5").ok());
  EXPECT_FALSE(imaged.IsEncodedOnly("list"));
  // Its next image adopts the part, as before.
  EXPECT_EQ(PartsByKey(imaged.SerializeImage(BufferWriter())), republished);

  KvStore replaying;  // never imaged
  LoadEveryType(replaying);
  for (const char* key : kTypedKeys) {
    // Its "list" still lacks the published list's last item.
    EXPECT_EQ(replaying.IsEncodedOnly(key), std::string_view(key) != "list") << key;
  }
  ASSERT_TRUE(replaying.Rpush("list", "p5").ok());
  EXPECT_TRUE(replaying.IsEncodedOnly("list"));
  EXPECT_EQ(PartsByKey(replaying.SerializeImage(BufferWriter())), republished);
  EXPECT_EQ(replaying.ContentDigest(), publisher.ContentDigest());
}

// Replicas sharing parts stay independent: a write to one decodes its own
// copy, so the other's reads, digest and next image do not change.
TEST(KvServiceTest, WriteToOneReplicaLeavesTheSharingReplicaUnchanged) {
  ImagePartIndex index;
  ImagePartIndex::Scope scope(&index);
  KvService writer;
  KvService reader;
  LoadEveryType(writer.store());
  LoadEveryType(reader.store());
  writer.SnapshotImage();
  const Image shared = reader.SnapshotImage();
  ASSERT_EQ(PartsByKey(shared), PartsByKey(writer.SnapshotImage()));
  const std::vector<uint8_t> shared_bytes = FreshImage(reader);
  const uint64_t digest = reader.Digest();
  std::vector<KvReply> replies;
  for (const KvCommand& read : EveryRead()) {
    replies.push_back(reader.Apply(read));
  }

  for (const char* key : kTypedKeys) {
    KvCommand write;
    write.key = key;
    write.field = "f2";
    write.value = "VALUE";  // "str" keeps its length
    const std::string_view k = key;
    write.op = k == "str"    ? KvOpcode::kSet
               : k == "num"  ? KvOpcode::kIncr
               : k == "hash" ? KvOpcode::kHset
               : k == "list" ? KvOpcode::kRpush
                             : KvOpcode::kSadd;
    ASSERT_EQ(writer.Apply(write).status, KvReplyStatus::kOk) << key;
    writer.SnapshotImage();  // publishes the written key's new part
    EXPECT_EQ(reader.Digest(), digest) << "after writing " << key;
    size_t i = 0;
    for (const KvCommand& read : EveryRead()) {
      const KvReply reply = reader.Apply(read);
      EXPECT_EQ(reply.status, replies[i].status) << "after writing " << key;
      EXPECT_EQ(reply.values, replies[i].values) << "after writing " << key;
      ++i;
    }
    EXPECT_TRUE(reader.SnapshotImage().Flatten() == shared_bytes) << "after writing " << key;
    EXPECT_TRUE(shared.Flatten() == shared_bytes) << "after writing " << key;
  }
  EXPECT_NE(writer.Digest(), digest);
}

// ---------------------------------------------------------------------------
// The prefix-plus-tail list state
// ---------------------------------------------------------------------------

const std::vector<std::string> kPosts = {"p1", "p2", "p3", "p4"};

std::vector<uint8_t> Serialized(const KvStore& store) {
  BufferWriter w;
  store.SerializeTo(w);
  return w.TakeBytes();
}

// A publishing store and a second store on one index of published parts,
// both bound to it at construction.
struct SharingStores {
  SharingStores() {
    ImagePartIndex::Scope scope(&index);
    publisher = std::make_unique<KvStore>();
    store = std::make_unique<KvStore>();
  }

  ImagePartIndex index;  // outlives the stores bound to it
  std::unique_ptr<KvStore> publisher;
  std::unique_ptr<KvStore> store;
};

// The ways a list reaches the prefix-plus-tail state: a push onto a clean
// list (its own part, then a tail), a replay of a published list that
// diverges at its third post (a prefix of two, a tail of two), and a replay
// cut short after two posts (a prefix of two, no tail).
enum class Prefixed { kPushOnClean, kDivergedReplay, kMidReplay };
constexpr Prefixed kPrefixedCases[] = {Prefixed::kPushOnClean, Prefixed::kDivergedReplay,
                                       Prefixed::kMidReplay};

const char* Name(Prefixed how) {
  switch (how) {
    case Prefixed::kPushOnClean:
      return "push on clean";
    case Prefixed::kDivergedReplay:
      return "diverged replay";
    case Prefixed::kMidReplay:
      return "mid replay";
  }
  return "?";
}

// `store` holds "list" in one of those states beside a string key, on an
// index where `publisher` imaged kPosts; `decoded` holds the same contents,
// built outside any index and never imaged, so each of its keys is dirty.
struct PrefixedList : SharingStores {
  explicit PrefixedList(Prefixed how) {
    for (const std::string& post : kPosts) {
      EXPECT_TRUE(publisher->Rpush("list", post).ok());
    }
    published = publisher->SerializeImage(BufferWriter());
    switch (how) {
      case Prefixed::kPushOnClean:
        posts = kPosts;
        for (const std::string& post : posts) {
          EXPECT_TRUE(store->Rpush("list", post).ok());
        }
        store->SerializeImage(BufferWriter());
        posts.emplace_back("p5");
        EXPECT_TRUE(store->Rpush("list", "p5").ok());
        break;
      case Prefixed::kDivergedReplay:
        posts = {"p1", "p2", "q3", "p4"};
        break;
      case Prefixed::kMidReplay:
        posts = {"p1", "p2"};
        break;
    }
    if (how != Prefixed::kPushOnClean) {
      for (const std::string& post : posts) {
        EXPECT_TRUE(store->Rpush("list", post).ok());
      }
    }
    for (const std::string& post : posts) {
      EXPECT_TRUE(decoded.Rpush("list", post).ok());
    }
    store->Set("str", "value");
    decoded.Set("str", "value");
  }

  KvStore decoded;
  Image published;
  std::vector<std::string> posts;
};

// A store replaying a published list compares each post with the part's
// next element, byte for byte: a replay that diverges at post k (by one
// byte, keeping its length) ends with its own list, digest and image part,
// and only a replay that never diverges holds the published part.
TEST(KvStoreTest, ReplayDivergingAtAnyPostEndsWithItsOwnList) {
  for (size_t k = 0; k <= kPosts.size(); ++k) {
    SharingStores stores;
    KvStore decoded;
    std::vector<std::string> posts = kPosts;
    if (k < posts.size()) {
      posts[k][0] = 'q';
    }
    for (const std::string& post : kPosts) {
      ASSERT_TRUE(stores.publisher->Rpush("list", post).ok());
    }
    const Image published = stores.publisher->SerializeImage(BufferWriter());
    KvStore& replaying = *stores.store;
    for (const std::string& post : posts) {
      ASSERT_TRUE(replaying.Rpush("list", post).ok());
      ASSERT_TRUE(decoded.Rpush("list", post).ok());
    }
    EXPECT_EQ(replaying.IsEncodedOnly("list"), k == kPosts.size()) << k;
    EXPECT_EQ(replaying.Lrange("list", 0, -1).value(), posts) << k;
    EXPECT_EQ(replaying.ContentDigest(), decoded.ContentDigest()) << k;
    EXPECT_EQ(replaying.ContentDigest() == stores.publisher->ContentDigest(), k == kPosts.size())
        << k;

    const Image image = replaying.SerializeImage(BufferWriter());
    const Image::Part want = PartOf(decoded.SerializeImage(BufferWriter())).at("list");
    const Image::Part got = PartOf(image).at("list");
    EXPECT_TRUE(got.bytes == want.bytes) << k;
    EXPECT_EQ(got.crc, want.crc) << k;
    EXPECT_EQ(got.bytes.data() == PartOf(published).at("list").bytes.data(), k == kPosts.size())
        << k;
    EXPECT_EQ(replaying.Lrange("list", 0, -1).value(), posts) << k;
  }
}

// Mid-replay, the list holds exactly the posts replayed so far: its length,
// ranges, scans, digest and serialization are those of a decoded list of
// them, and the published list's later posts show nowhere.
TEST(KvStoreTest, ReadsMidReplaySeeExactlyTheReplayedPrefix) {
  SharingStores stores;
  for (const std::string& post : kPosts) {
    ASSERT_TRUE(stores.publisher->Rpush("list", post).ok());
  }
  const Image published = stores.publisher->SerializeImage(BufferWriter());
  KvStore& replaying = *stores.store;
  KvStore decoded;
  for (size_t n = 1; n <= kPosts.size(); ++n) {
    ASSERT_EQ(replaying.Rpush("list", kPosts[n - 1]).value(), n);
    ASSERT_EQ(decoded.Rpush("list", kPosts[n - 1]).value(), n);
    const std::vector<std::string> want(kPosts.begin(),
                                        kPosts.begin() + static_cast<ptrdiff_t>(n));
    EXPECT_EQ(replaying.IsEncodedOnly("list"), n == kPosts.size()) << n;
    EXPECT_EQ(replaying.Llen("list").value(), n);
    EXPECT_EQ(replaying.Lrange("list", 0, -1).value(), want) << n;
    for (auto [start, stop] : {std::pair{1, 2}, {-2, -1}, {0, 9}, {3, 3}}) {
      EXPECT_EQ(replaying.Lrange("list", start, stop).value(),
                decoded.Lrange("list", start, stop).value())
          << n << ": " << start << ".." << stop;
    }
    for (int32_t limit : {1, 3, 10}) {
      EXPECT_EQ(replaying.ScanTail("list", limit).value(), decoded.ScanTail("list", limit).value())
          << n << ", limit " << limit;
    }
    EXPECT_EQ(replaying.ContentDigest(), decoded.ContentDigest()) << n;
    EXPECT_EQ(Serialized(replaying), Serialized(decoded)) << n;
  }
}

// Lpop, an overwrite, a wrong-type write, a delete and further pushes on a
// prefix-plus-tail list answer as on the decoded list and leave the same
// contents, digest and image bytes.
TEST(KvStoreTest, WritesOnAPrefixedListActLikeOnADecodedOne) {
  using Write = std::string (*)(KvStore&);
  const std::pair<const char*, Write> kWrites[] = {
      {"lpop", [](KvStore& s) { return s.Lpop("list").value(); }},
      {"lpop all",
       [](KvStore& s) {
         std::string popped;
         while (s.Llen("list").value() > 0) {
           popped += s.Lpop("list").value();
         }
         return popped;
       }},
      {"set",
       [](KvStore& s) {
         s.Set("list", "now a string");
         return s.Get("list").value();
       }},
      {"hset", [](KvStore& s) { return s.Hset("list", "f", "v").ToString(); }},
      {"del", [](KvStore& s) { return std::to_string(s.Del("list")); }},
      {"rpush",
       [](KvStore& s) {
         return std::to_string(s.Rpush("list", "x1").value()) +
                std::to_string(s.Rpush("list", "x2").value());
       }},
  };
  for (Prefixed how : kPrefixedCases) {
    for (const auto& [name, write] : kWrites) {
      const std::string what = std::string(Name(how)) + ", " + name;
      PrefixedList list(how);
      KvStore& store = *list.store;
      EXPECT_FALSE(store.IsEncodedOnly("list")) << what;
      EXPECT_EQ(write(store), write(list.decoded)) << what;
      EXPECT_EQ(store.Get("list").status().code(), list.decoded.Get("list").status().code())
          << what;
      if (list.decoded.Get("list").ok()) {
        EXPECT_EQ(store.Get("list").value(), list.decoded.Get("list").value()) << what;
      }
      if (list.decoded.Lrange("list", 0, -1).ok()) {
        EXPECT_EQ(store.Lrange("list", 0, -1).value(), list.decoded.Lrange("list", 0, -1).value())
            << what;
      }
      EXPECT_EQ(store.ContentDigest(), list.decoded.ContentDigest()) << what;
      EXPECT_EQ(Serialized(store), Serialized(list.decoded)) << what;
      EXPECT_TRUE(store.SerializeImage(BufferWriter()).Flatten() == Serialized(list.decoded))
          << what;
    }
  }
}

// A prefix-plus-tail list serializes, and images, to the bytes of the same
// list built decoded: SerializeTo's bytes, each image part and its CRC. Its
// image leaves it clean, answering reads from the new part.
TEST(KvStoreTest, PrefixedListsImageLikeDecodedLists) {
  for (Prefixed how : kPrefixedCases) {
    PrefixedList list(how);
    EXPECT_EQ(Serialized(*list.store), Serialized(list.decoded)) << Name(how);
    EXPECT_EQ(list.store->ContentDigest(), list.decoded.ContentDigest()) << Name(how);
    const Image image = list.store->SerializeImage(BufferWriter());
    const Image want = list.decoded.SerializeImage(BufferWriter());
    EXPECT_EQ(image.crc(), want.crc()) << Name(how);
    const auto parts = PartOf(image);
    for (const auto& [key, part] : PartOf(want)) {
      EXPECT_TRUE(parts.at(key).bytes == part.bytes) << Name(how) << ", " << key;
      EXPECT_EQ(parts.at(key).crc, part.crc) << Name(how) << ", " << key;
      EXPECT_EQ(parts.at(key).crc, Crc32cPortable(part.bytes.bytes())) << Name(how) << ", " << key;
    }
    EXPECT_TRUE(list.store->IsEncodedOnly("list")) << Name(how);
    EXPECT_EQ(list.store->Lrange("list", 0, -1).value(), list.posts) << Name(how);
  }
}

// A push onto a clean list keeps the list's part as its prefix, still
// shared with the image that made it, and requests heap for the pushed post
// and the tail alone: none of the encoded posts is decoded. A replay that
// matches the published posts requests none for them either.
TEST(KvStoreTest, RpushOnACleanListSharesItsPartAndDecodesNoPost) {
  constexpr size_t kListPosts = 20;
  const std::string post(1024, 'p');
  SharingStores stores;
  KvStore& store = *stores.publisher;
  for (size_t i = 0; i < kListPosts; ++i) {
    ASSERT_TRUE(store.Rpush("list", post).ok());
  }
  const Image image = store.SerializeImage(BufferWriter());
  const Body part = PartOf(image).at("list").bytes;
  const uint32_t refs = part.refcount();

  uint64_t before = g_alloc_bytes;
  ASSERT_EQ(store.Rpush("list", post).value(), kListPosts + 1);
  const uint64_t pushed = g_alloc_bytes - before;
  EXPECT_EQ(part.refcount(), refs) << "the list dropped its part";
  EXPECT_LT(pushed, 2 * post.size()) << "the push decoded the list";
  EXPECT_EQ(store.Lrange("list", 0, -1).value(), std::vector<std::string>(kListPosts + 1, post));

  KvStore& replaying = *stores.store;
  before = g_alloc_bytes;
  for (size_t i = 0; i < kListPosts; ++i) {
    ASSERT_TRUE(replaying.Rpush("list", post).ok());
  }
  const uint64_t replayed = g_alloc_bytes - before;
  EXPECT_LT(replayed, post.size()) << "the replay copied a post";  // the key's slot only
  EXPECT_TRUE(replaying.IsEncodedOnly("list"));
  EXPECT_EQ(PartOf(replaying.SerializeImage(BufferWriter())).at("list").bytes.data(),
            part.data());
}

}  // namespace
}  // namespace hovercraft
