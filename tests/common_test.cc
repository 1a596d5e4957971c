#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/body.h"
#include "src/common/buf_pool.h"
#include "src/common/buffer.h"
#include "src/common/checksum.h"
#include "src/common/image.h"
#include "src/common/random.h"
#include "src/common/slab_pool.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
                          StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
                          StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(InvalidArgumentError("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.TakeValue();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximate) {
  Rng rng(8);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(9);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// Zipfian
// ---------------------------------------------------------------------------

TEST(ZipfianTest, ValuesInRange) {
  ZipfianGenerator zipf(100, 0.99);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 100u);
  }
}

TEST(ZipfianTest, SkewsTowardSmallKeys) {
  ZipfianGenerator zipf(1000, 0.99);
  Rng rng(12);
  int head = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(rng) < 10) {
      ++head;
    }
  }
  // With theta=0.99 the 10 hottest of 1000 keys draw far more than their
  // uniform 1% share.
  EXPECT_GT(head, n / 5);
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

TEST(BufferTest, RoundTripScalars) {
  BufferWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);

  BufferReader r(w.bytes());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  ASSERT_TRUE(r.GetU8(u8).ok());
  ASSERT_TRUE(r.GetU16(u16).ok());
  ASSERT_TRUE(r.GetU32(u32).ok());
  ASSERT_TRUE(r.GetU64(u64).ok());
  ASSERT_TRUE(r.GetI64(i64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, RoundTripString) {
  BufferWriter w;
  w.PutString("hello world");
  w.PutString("");
  BufferReader r(w.bytes());
  std::string a;
  std::string b;
  ASSERT_TRUE(r.GetString(a).ok());
  ASSERT_TRUE(r.GetString(b).ok());
  EXPECT_EQ(a, "hello world");
  EXPECT_EQ(b, "");
}

TEST(BufferTest, UnderrunFails) {
  BufferWriter w;
  w.PutU16(7);
  BufferReader r(w.bytes());
  uint32_t v = 0;
  EXPECT_FALSE(r.GetU32(v).ok());
}

TEST(BufferTest, BadStringLengthFails) {
  BufferWriter w;
  w.PutU32(1000);  // declared length far beyond the buffer
  BufferReader r(w.bytes());
  std::string s;
  EXPECT_FALSE(r.GetString(s).ok());
}

TEST(BufferTest, Fnv1aStableAndSensitive) {
  EXPECT_EQ(Fnv1aHash("abc"), Fnv1aHash("abc"));
  EXPECT_NE(Fnv1aHash("abc"), Fnv1aHash("abd"));
  EXPECT_NE(Fnv1aHash("abc"), Fnv1aHash("abc", 1));
}

TEST(BufferTest, FixedWidthPutsAreLittleEndian) {
  BufferWriter w;
  w.PutU16(0x0102);
  w.PutU32(0x03040506u);
  w.PutU64(0x0708090A0B0C0D0Eull);
  w.PutI64(-2);
  EXPECT_EQ(w.TakeBytes(), (std::vector<uint8_t>{0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0E, 0x0D,
                                             0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07, 0xFE, 0xFF,
                                             0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
}

TEST(BufferTest, PatchOverwritesInPlace) {
  BufferWriter w;
  w.PutU64(0);
  w.PutU32(0);
  w.PutU8(0x77);
  w.PatchU64(0, 0x1122334455667788ull);
  w.PatchU32(8, 0xAABBCCDDu);
  EXPECT_EQ(w.TakeBytes(), (std::vector<uint8_t>{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
                                             0xDD, 0xCC, 0xBB, 0xAA, 0x77}));
}

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

std::span<const uint8_t> AsBytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(Crc32cTest, KnownAnswer) {
  // The CRC-32C check value (RFC 3720 appendix B.4 parameters).
  EXPECT_EQ(Crc32c(AsBytes("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(AsBytes("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c({}), 0u);
  // 32 bytes of zeros, RFC 3720 B.4.
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendEqualsOneShot) {
  const auto data = AsBytes("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32c(data.subspan(split), Crc32c(data.subspan(0, split))), Crc32c(data))
        << "split " << split;
  }
}

// Every length 0-4096 at 8 alignments, then up to 64 KB: the hardware path
// checksums 768-byte blocks in three 256-byte lanes merged by a shift table,
// so every length around each block boundary (k * 768 - 1, k * 768 and
// k * 768 + 1..8, which the alignment prelude moves across the boundary) and
// random lengths between.
TEST(Crc32cTest, HardwareMatchesPortableAtEveryLengthAndAlignment) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no CRC-32C instruction on this CPU: Crc32c is the portable path";
  }
  constexpr size_t kBlock = 768;
  constexpr size_t kMaxLen = 64 * 1024;
  Rng rng(7);
  std::vector<uint8_t> buf(kMaxLen + 8);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 4096; ++len) {
    lengths.push_back(len);
  }
  for (size_t k = 6; k * kBlock + 8 <= kMaxLen; ++k) {
    for (size_t len = k * kBlock - 1; len <= k * kBlock + 8; ++len) {
      lengths.push_back(len);
    }
  }
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(4096 + rng.NextBelow(kMaxLen - 4096));
  }
  lengths.push_back(kMaxLen);
  for (size_t align = 0; align < 8; ++align) {
    for (const size_t len : lengths) {
      const auto data = std::span<const uint8_t>(buf).subspan(align, len);
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(Crc32c(data, seed), Crc32cPortable(data, seed))
          << "align " << align << " len " << len;
    }
  }
}

// Combine(Crc(a), Crc(b), |b|) == Crc(a followed by b) at every length
// 0-4096 of the whole, split at random points, and at the edges.
TEST(Crc32cTest, CombineEqualsCrcOfConcatenation) {
  Rng rng(11);
  std::vector<uint8_t> buf(4096);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const std::span<const uint8_t> all(buf);
  for (size_t len = 0; len <= all.size(); ++len) {
    const auto data = all.subspan(0, len);
    const uint32_t whole = Crc32cPortable(data);
    for (size_t split : {size_t{0}, len, static_cast<size_t>(rng.NextBelow(len + 1)),
                         static_cast<size_t>(rng.NextBelow(len + 1))}) {
      const uint32_t a = Crc32cPortable(data.subspan(0, split));
      const uint32_t b = Crc32cPortable(data.subspan(split));
      ASSERT_EQ(Crc32cCombine(a, b, len - split), whole) << "len " << len << " split " << split;
    }
  }
  // Lengths far beyond the buffer: a run of zero bytes has a closed form via
  // the extend path, so compare against it.
  const std::vector<uint8_t> zeros(1 << 20, 0);
  const uint32_t head = Crc32c(AsBytes("head"));
  EXPECT_EQ(Crc32cCombine(head, Crc32c(zeros), zeros.size()), Crc32c(zeros, head));
}

TEST(ImageTest, PartsCombineToTheFlatBytes) {
  Rng rng(12);
  Image image;
  std::vector<uint8_t> flat;
  EXPECT_EQ(image.size(), 0u);
  EXPECT_EQ(image.crc(), 0u);
  EXPECT_TRUE(image.Flatten() == flat);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> part(rng.NextBelow(300));
    for (uint8_t& b : part) {
      b = static_cast<uint8_t>(rng.Next());
    }
    flat.insert(flat.end(), part.begin(), part.end());
    const uint32_t crc = Crc32c(part);
    image.Append(MakeBody(std::move(part)), crc);
    ASSERT_EQ(image.size(), flat.size());
    ASSERT_EQ(image.crc(), Crc32cPortable(flat)) << "part " << i;
  }
  EXPECT_EQ(image.parts().size(), 50u);
  EXPECT_TRUE(image.Flatten() == flat);
  BufferWriter out;
  out.PutU8(7);
  image.AppendTo(&out);
  EXPECT_EQ(out.size(), 1 + flat.size());
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), out.bytes().begin() + 1));
}

TEST(ImageTest, OnePartImageFlattensWithoutCopy) {
  const Body body = MakeBody({1, 2, 3, 4});
  const Image image = Image::Of(body);
  EXPECT_EQ(image.parts().size(), 1u);
  EXPECT_EQ(image.crc(), Crc32c(body.bytes()));
  EXPECT_EQ(image.Flatten().data(), body.data());
  EXPECT_TRUE(Image::Of(nullptr).parts().empty());
}

// The index holds its parts weakly in effect: a part nothing else references
// is released at the next Find of its name, whose entry stays for the next
// Publish to reuse, and its entry goes at the sweep when the index doubles,
// while a part a holder keeps stays published.
TEST(ImagePartIndexTest, DropsPartsOnlyTheIndexHolds) {
  ImagePartIndex index;
  Body held = MakeBody({1, 2, 3});
  index.Publish("held", Image::Part{held, 7});
  index.Publish("orphan", Image::Part{MakeBody({4, 5}), 9});
  EXPECT_EQ(held.refcount(), 2u);
  ASSERT_NE(index.Find("held"), nullptr);
  EXPECT_EQ(index.Find("held")->bytes.data(), held.data());
  EXPECT_EQ(index.Find("held")->crc, 7u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.Find("orphan"), nullptr);
  EXPECT_EQ(index.Find("orphan"), nullptr);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.Find("missing"), nullptr);
  Body again = MakeBody({4, 5});
  index.Publish("orphan", Image::Part{again, 9});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.Find("orphan")->bytes.data(), again.data());

  // A re-publish replaces the part: the old one is released.
  Body newer = MakeBody({1, 2, 4});
  index.Publish("held", Image::Part{newer, 8});
  EXPECT_EQ(held.refcount(), 1u);
  EXPECT_EQ(index.Find("held")->bytes.data(), newer.data());

  // Orphans nobody looks up again go at the sweep once the index doubles.
  for (int i = 0; i < 1'000; ++i) {
    index.Publish("orphan:" + std::to_string(i), Image::Part{MakeBody({1}), 0});
  }
  EXPECT_LT(index.size(), 200u);
  EXPECT_NE(index.Find("held"), nullptr);
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Body, BufferWriter::TakeBody and SlabPool
// ---------------------------------------------------------------------------

TEST(BodyTest, NullStaysDistinctFromEmpty) {
  const Body null;
  const Body empty = Body::CopyOf({});
  const Body empty_copy = MakeBody(std::vector<uint8_t>{});
  EXPECT_TRUE(null == nullptr);
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_FALSE(empty == nullptr);
  EXPECT_TRUE(static_cast<bool>(empty));
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(null == empty);
  EXPECT_TRUE(empty == empty_copy);
  EXPECT_TRUE(null == Body(nullptr));
  BufferWriter unused;
  EXPECT_FALSE(unused.TakeBody() == nullptr);  // an empty writer yields an empty body
}

TEST(BodyTest, SliceSharesStorage) {
  const size_t before = SlabPool::Outstanding();
  Body body = MakeBody(std::vector<uint8_t>{1, 2, 3, 4, 5});
  const Body slice = body.Slice(1, 3);
  EXPECT_EQ(slice.data(), body.data() + 1);
  EXPECT_EQ(SlabPool::Outstanding(), before + 1);  // no second block
  body = Body();  // the slice alone keeps the block
  EXPECT_TRUE(slice == (std::vector<uint8_t>{2, 3, 4}));
}

TEST(BodyTest, EqualityComparesBytes) {
  const Body a = MakeBody(std::vector<uint8_t>{7, 8});
  const Body b = MakeBody(std::vector<uint8_t>{7, 8});
  const Body c = MakeBody(std::vector<uint8_t>{7, 9});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == a.Slice(0, 1));
  EXPECT_TRUE(a == (std::vector<uint8_t>{7, 8}));
  EXPECT_FALSE(Body() == (std::vector<uint8_t>{}));
}

TEST(BodyTest, PooledSlicePinsItsArrivalBuffer) {
  BufPool pool;  // its destructor fails fatally on a leaked reference
  {
    BufRef frame = pool.Allocate(64);
    for (uint32_t i = 0; i < 10; ++i) {
      frame.data()[i] = static_cast<uint8_t>(i);
    }
    frame.set_size(10);
    Body body = Body::FromBuffer(frame, 2, 4);
    EXPECT_EQ(frame.refcount(), 2u);
    frame.reset();
    EXPECT_EQ(pool.outstanding(), 1u);  // the slice alone keeps the frame
    EXPECT_TRUE(body == (std::vector<uint8_t>{2, 3, 4, 5}));
    const Body copy = body.Slice(1, 2);
    body = Body();
    EXPECT_EQ(pool.outstanding(), 1u);
    EXPECT_TRUE(copy == (std::vector<uint8_t>{3, 4}));
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(BodyTest, HeapBlockIsFreedWithItsLastReference) {
  const size_t before = SlabPool::Outstanding();
  {
    Body small = MakeBody(std::vector<uint8_t>(24, 1));
    const Body copy = small;
    EXPECT_EQ(SlabPool::Outstanding(), before + 1);  // header and bytes in one block
    small = Body();
    EXPECT_EQ(SlabPool::Outstanding(), before + 1);
    // A body too large for the pool is one operator-new block; ASan reports
    // it if the last reference fails to free it.
    const Body large = MakeBody(std::vector<uint8_t>(SlabPool::kMaxBlockBytes * 4));
    EXPECT_EQ(SlabPool::Outstanding(), before + 1);
  }
  EXPECT_EQ(SlabPool::Outstanding(), before);
}

TEST(BodyTest, WriterFinishesIntoABodyWithoutACopy) {
  BufferWriter w(16);
  w.PutU64(0x0102030405060708ull);
  w.PutZeros(3);
  const uint8_t* written = w.bytes().data();
  const Body body = w.TakeBody();
  EXPECT_EQ(body.data(), written);
  EXPECT_EQ(body.size(), 11u);
  EXPECT_EQ(body[0], 0x08);
  EXPECT_EQ(body[10], 0);
  EXPECT_EQ(w.size(), 0u);
  w.PutU8(1);  // the writer is reusable
  EXPECT_TRUE(w.TakeBody() == (std::vector<uint8_t>{1}));
}

TEST(SlabPoolTest, ReusesBlocksWithinASizeClass) {
  const size_t before = SlabPool::Outstanding();
  void* a = SlabPool::Allocate(40);
  void* b = SlabPool::Allocate(48);
  EXPECT_EQ(SlabPool::Outstanding(), before + 2);
  SlabPool::Free(a, 40);
  void* c = SlabPool::Allocate(33);
  SlabPool::Free(c, 33);
  void* d = SlabPool::Allocate(48);
  if constexpr (SlabPool::kPooled) {  // sanitizer builds bypass the free lists
    EXPECT_EQ(c, a);  // 33..40 bytes share a class
    EXPECT_NE(d, a);  // another class keeps its own list
  }
  SlabPool::Free(b, 48);
  EXPECT_EQ(SlabPool::Outstanding(), before + 1);
  SlabPool::Free(d, 48);
  EXPECT_EQ(SlabPool::Outstanding(), before);
}

TEST(SlabPoolTest, ThreadsNeverShareAList) {
  // Like `sweep -j2`: each thread runs its own Simulator, whose events
  // allocate and free pooled blocks.
  constexpr int kBlocks = 200;
  auto run = [](std::vector<void*>* freed, size_t* outstanding_after) {
    Simulator sim;
    std::vector<void*> held;
    for (int i = 0; i < kBlocks; ++i) {
      sim.After(i, [&held]() { held.push_back(SlabPool::Allocate(64)); });
    }
    sim.After(kBlocks, [&]() {
      for (void* p : held) {
        SlabPool::Free(p, 64);
      }
    });
    sim.RunUntil(kBlocks + 1);
    *freed = held;
    *outstanding_after = SlabPool::Outstanding();
  };
  std::vector<void*> first;
  std::vector<void*> second;
  size_t first_outstanding = 1;
  size_t second_outstanding = 1;
  const size_t main_before = SlabPool::Outstanding();
  std::latch first_done(1);
  std::latch second_done(1);
  // The first thread stays alive, its blocks on its free list, while the
  // second allocates: a shared list would hand the second thread those
  // blocks.
  std::thread a([&]() {
    run(&first, &first_outstanding);
    first_done.count_down();
    second_done.wait();
  });
  std::thread b([&]() {
    first_done.wait();
    run(&second, &second_outstanding);
    second_done.count_down();
  });
  a.join();
  b.join();
  EXPECT_EQ(first_outstanding, 0u);
  EXPECT_EQ(second_outstanding, 0u);
  EXPECT_EQ(SlabPool::Outstanding(), main_before);
  const std::set<void*> first_set(first.begin(), first.end());
  ASSERT_EQ(first_set.size(), static_cast<size_t>(kBlocks));
  for (void* p : second) {
    EXPECT_EQ(first_set.count(p), 0u);
  }
}

TEST(TypesTest, TimeHelpers) {
  EXPECT_EQ(Micros(3), 3000);
  EXPECT_EQ(Millis(2), 2'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
}

TEST(TypesTest, ModeNames) {
  EXPECT_STREQ(ClusterModeName(ClusterMode::kUnreplicated), "UnRep");
  EXPECT_STREQ(ClusterModeName(ClusterMode::kVanillaRaft), "VanillaRaft");
  EXPECT_STREQ(ClusterModeName(ClusterMode::kHovercRaft), "HovercRaft");
  EXPECT_STREQ(ClusterModeName(ClusterMode::kHovercRaftPP), "HovercRaft++");
  EXPECT_STREQ(ReplierPolicyName(ReplierPolicy::kJbsq), "JBSQ");
}

}  // namespace
}  // namespace hovercraft
