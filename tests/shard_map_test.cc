// Unit tests for the epoch-versioned ShardMap (src/shard/shard_map.h).
#include "src/shard/shard_map.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/buffer.h"
#include "src/r2p2/shard.h"

namespace hovercraft {
namespace {

TEST(ShardMapTest, InitialAssignmentIsContiguousAndTotal) {
  ShardMap map(4);
  EXPECT_EQ(map.epoch(), 1u);  // starts at 1: gate return 0 always means "serves"
  for (uint32_t s = 0; s < kShardSlots; ++s) {
    EXPECT_EQ(map.OwnerOf(s).value, static_cast<int32_t>(s / 16)) << "slot " << s;
    EXPECT_FALSE(map.IsFrozen(s));
  }
  for (int32_t g = 0; g < 4; ++g) {
    const auto slots = map.SlotsOf(GroupId{g});
    ASSERT_EQ(slots.size(), 16u);
    EXPECT_EQ(slots.front(), static_cast<uint32_t>(g) * 16);
    EXPECT_EQ(slots.back(), static_cast<uint32_t>(g) * 16 + 15);
  }
}

TEST(ShardMapTest, SingleGroupOwnsEverything) {
  ShardMap map(1);
  EXPECT_EQ(map.SlotsOf(GroupId{0}).size(), kShardSlots);
  for (uint32_t s = 0; s < kShardSlots; ++s) {
    EXPECT_TRUE(map.ServesAt(GroupId{0}, s));
  }
}

TEST(ShardMapTest, ControlAndInvalidSlotsAreAlwaysServed) {
  ShardMap map(2);
  // Non-data slots are never shard-gated anywhere.
  EXPECT_TRUE(map.ServesAt(GroupId{0}, kShardCtlSlot));
  EXPECT_TRUE(map.ServesAt(GroupId{1}, kShardCtlSlot));
  EXPECT_TRUE(map.ServesAt(GroupId{0}, kNoShardSlot));
  EXPECT_TRUE(map.ServesAt(GroupId{1}, kNoShardSlot));
}

TEST(ShardMapTest, FreezeStopsServiceWithoutEpochBump) {
  ShardMap map(2);
  ASSERT_TRUE(map.ServesAt(GroupId{0}, 3));
  ASSERT_TRUE(map.BeginMove(0, 7, GroupId{1}));
  // Ownership unchanged, service suspended, epoch unchanged (the freeze is
  // reported through the gates, not the map version).
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.OwnerOf(3), GroupId{0});
  EXPECT_TRUE(map.IsFrozen(3));
  EXPECT_FALSE(map.ServesAt(GroupId{0}, 3));
  EXPECT_FALSE(map.ServesAt(GroupId{1}, 3));
  // Slots outside the range are untouched.
  EXPECT_TRUE(map.ServesAt(GroupId{0}, 8));
}

TEST(ShardMapTest, CommitMoveTransfersOwnershipAndBumpsEpoch) {
  ShardMap map(2);
  ASSERT_TRUE(map.BeginMove(0, 7, GroupId{1}));
  map.CommitMove(0, 7, GroupId{1});
  EXPECT_EQ(map.epoch(), 2u);
  for (uint32_t s = 0; s <= 7; ++s) {
    EXPECT_EQ(map.OwnerOf(s), GroupId{1});
    EXPECT_FALSE(map.IsFrozen(s));
    EXPECT_TRUE(map.ServesAt(GroupId{1}, s));
    EXPECT_FALSE(map.ServesAt(GroupId{0}, s));
  }
  // The rest of group 0's range is unaffected.
  for (uint32_t s = 8; s < 32; ++s) {
    EXPECT_EQ(map.OwnerOf(s), GroupId{0});
  }
}

TEST(ShardMapTest, AbortMoveRestoresServiceAndBumpsEpoch) {
  ShardMap map(2);
  ASSERT_TRUE(map.BeginMove(4, 9, GroupId{1}));
  map.AbortMove(4, 9);
  EXPECT_EQ(map.epoch(), 2u);  // clients that saw redirects must refresh
  for (uint32_t s = 4; s <= 9; ++s) {
    EXPECT_EQ(map.OwnerOf(s), GroupId{0});
    EXPECT_TRUE(map.ServesAt(GroupId{0}, s));
  }
}

TEST(ShardMapTest, BeginMoveRejectsBadRanges) {
  ShardMap map(2);
  EXPECT_FALSE(map.BeginMove(7, 3, GroupId{1}));             // inverted
  EXPECT_FALSE(map.BeginMove(0, kShardSlots, GroupId{1}));   // out of range
  EXPECT_FALSE(map.BeginMove(0, 7, GroupId{5}));             // no such group
  EXPECT_FALSE(map.BeginMove(0, 7, GroupId{0}));             // dest == source
  EXPECT_FALSE(map.BeginMove(30, 34, GroupId{1}));           // spans two owners
  ASSERT_TRUE(map.BeginMove(0, 7, GroupId{1}));
  EXPECT_FALSE(map.BeginMove(4, 11, GroupId{1}));            // overlaps a frozen slot
  EXPECT_EQ(map.epoch(), 1u);                                // rejections change nothing
}

TEST(ShardMapTest, MoveBackAfterCommit) {
  ShardMap map(2);
  ASSERT_TRUE(map.BeginMove(0, 31, GroupId{1}));
  map.CommitMove(0, 31, GroupId{1});
  EXPECT_TRUE(map.SlotsOf(GroupId{0}).empty());
  ASSERT_TRUE(map.BeginMove(0, 31, GroupId{0}));
  map.CommitMove(0, 31, GroupId{0});
  EXPECT_EQ(map.epoch(), 3u);
  EXPECT_EQ(map.SlotsOf(GroupId{0}).size(), 32u);
}

TEST(ShardOpCodecTest, RoundTripsMoveIdAndAbortKinds) {
  for (ShardOpKind kind : {ShardOpKind::kFreeze, ShardOpKind::kInstall, ShardOpKind::kGc,
                           ShardOpKind::kUnfreeze, ShardOpKind::kUninstall}) {
    ShardOp op;
    op.kind = kind;
    op.move_id = 42;
    op.lo = 3;
    op.hi = 9;
    if (kind == ShardOpKind::kInstall) {
      op.payload = MakeBody(std::vector<uint8_t>{1, 2, 3});
    }
    ShardOp out;
    ASSERT_TRUE(DecodeShardOp(EncodeShardOp(op), &out).ok());
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.move_id, 42u);
    EXPECT_EQ(out.lo, 3u);
    EXPECT_EQ(out.hi, 9u);
    EXPECT_EQ(BodySize(out.payload), BodySize(op.payload));
  }
}

TEST(ShardOpCodecTest, CtlKeyOrdersMoveStepsStrictly) {
  // Within a move: freeze < install < gc < unfreeze == uninstall; every op of
  // move m sorts below every op of move m+1.
  const uint64_t f1 = ShardCtlKeyOf(1, ShardOpKind::kFreeze);
  const uint64_t i1 = ShardCtlKeyOf(1, ShardOpKind::kInstall);
  const uint64_t g1 = ShardCtlKeyOf(1, ShardOpKind::kGc);
  const uint64_t u1 = ShardCtlKeyOf(1, ShardOpKind::kUnfreeze);
  EXPECT_LT(f1, i1);
  EXPECT_LT(i1, g1);
  EXPECT_LT(g1, u1);
  EXPECT_EQ(u1, ShardCtlKeyOf(1, ShardOpKind::kUninstall));
  EXPECT_LT(u1, ShardCtlKeyOf(2, ShardOpKind::kFreeze));
}

TEST(ShardServeStateTest, CtlWatermarkFencesStaleKeys) {
  ShardServeState state;
  state.sharded = true;
  EXPECT_TRUE(state.AdvanceCtlWatermark(ShardCtlKeyOf(1, ShardOpKind::kFreeze)));
  EXPECT_TRUE(state.AdvanceCtlWatermark(ShardCtlKeyOf(1, ShardOpKind::kGc)));
  // A re-drained duplicate of either step, or of any earlier move, fences.
  EXPECT_FALSE(state.AdvanceCtlWatermark(ShardCtlKeyOf(1, ShardOpKind::kGc)));
  EXPECT_FALSE(state.AdvanceCtlWatermark(ShardCtlKeyOf(1, ShardOpKind::kFreeze)));
  // The next move's ops pass.
  EXPECT_TRUE(state.AdvanceCtlWatermark(ShardCtlKeyOf(2, ShardOpKind::kInstall)));
  EXPECT_EQ(state.ctl_watermark(), ShardCtlKeyOf(2, ShardOpKind::kInstall));
}

TEST(ShardServeStateTest, UnfreezeRestoresServiceButNeverOwnership) {
  ShardServeState state;
  state.sharded = true;
  state.Drop(10, 12);    // never owned here
  state.Freeze(0, 4);    // owned, mid-move
  EXPECT_FALSE(state.Serves(2));
  state.Unfreeze(0, 12);  // abort: unfreeze the whole range
  EXPECT_TRUE(state.Serves(2));
  EXPECT_FALSE(state.Serves(11));  // dropped slots stay dropped
}

TEST(ShardServeStateTest, SerializeRoundTripsCtlWatermark) {
  ShardServeState state;
  state.sharded = true;
  state.Freeze(1, 2);
  state.Drop(40, 41);
  ASSERT_TRUE(state.AdvanceCtlWatermark(ShardCtlKeyOf(7, ShardOpKind::kGc)));
  BufferWriter w;
  state.Serialize(&w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  BufferReader r(bytes);
  ShardServeState restored;
  restored.sharded = true;
  ASSERT_TRUE(restored.Restore(&r).ok());
  EXPECT_EQ(restored.ctl_watermark(), ShardCtlKeyOf(7, ShardOpKind::kGc));
  EXPECT_EQ(restored.frozen(), state.frozen());
  EXPECT_EQ(restored.dropped(), state.dropped());
  // A stale key from an earlier move is still fenced after the round trip.
  EXPECT_FALSE(restored.AdvanceCtlWatermark(ShardCtlKeyOf(7, ShardOpKind::kFreeze)));
}

TEST(ShardMapTest, ShardSlotOfIsStableAndInRange) {
  // The client, middlebox and server all hash keys independently; the slot
  // function must be pure and bounded.
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const uint32_t slot = ShardSlotOf(key);
    EXPECT_LT(slot, kShardSlots);
    EXPECT_EQ(slot, ShardSlotOf(key));
  }
}

// Wire layout of an op: kind u8 @0, move_id u64 @1, lo u32 @9, hi u32 @13,
// payload_len u32 @17, payload @21.
ShardOp InstallOp() {
  ShardOp op;
  op.kind = ShardOpKind::kInstall;
  op.move_id = 42;
  op.lo = 3;
  op.hi = 9;
  op.payload = MakeBody(std::vector<uint8_t>{1, 2, 3});
  return op;
}

std::vector<uint8_t> EncodedBytes(const ShardOp& op) {
  const Body body = EncodeShardOp(op);
  return std::vector<uint8_t>(body.begin(), body.end());
}

void PatchU32At(std::vector<uint8_t>& bytes, size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

TEST(ShardOpCodecTest, PayloadSharesTheEncodedOpsStorage) {
  const Body encoded = EncodeShardOp(InstallOp());
  ShardOp out;
  ASSERT_TRUE(DecodeShardOp(encoded, &out).ok());
  EXPECT_EQ(out.payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(out.payload.data(), encoded.data() + 21);
}

TEST(ShardOpCodecTest, RejectsNullBodyAndBadKind) {
  ShardOp out;
  EXPECT_EQ(DecodeShardOp(Body(), &out).code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> bytes = EncodedBytes(InstallOp());
  bytes[0] = static_cast<uint8_t>(ShardOpKind::kUninstall) + 1;
  EXPECT_EQ(DecodeShardOp(MakeBody(bytes), &out).code(), StatusCode::kInvalidArgument);
}

TEST(ShardOpCodecTest, RejectsBadSlotRanges) {
  ShardOp out;
  std::vector<uint8_t> inverted = EncodedBytes(InstallOp());
  PatchU32At(inverted, 9, 10);  // lo 10 > hi 9
  EXPECT_EQ(DecodeShardOp(MakeBody(inverted), &out).code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> past_end = EncodedBytes(InstallOp());
  PatchU32At(past_end, 13, kShardSlots);  // hi outside the keyspace
  EXPECT_EQ(DecodeShardOp(MakeBody(past_end), &out).code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> ctl = EncodedBytes(InstallOp());
  PatchU32At(ctl, 13, kShardCtlSlot);
  EXPECT_EQ(DecodeShardOp(MakeBody(ctl), &out).code(), StatusCode::kInvalidArgument);
}

TEST(ShardOpCodecTest, RejectsTruncationAtEveryField) {
  const Body encoded = EncodeShardOp(InstallOp());
  ASSERT_EQ(encoded.size(), 24u);
  ShardOp out;
  // Every proper prefix cuts some field short: kind, move_id, lo, hi, the
  // payload length or the payload.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_EQ(DecodeShardOp(encoded.Slice(0, len), &out).code(), StatusCode::kOutOfRange)
        << "prefix of " << len << " bytes";
  }
  // A payload length that claims more bytes than follow.
  std::vector<uint8_t> overlong = EncodedBytes(InstallOp());
  PatchU32At(overlong, 17, 4);
  EXPECT_EQ(DecodeShardOp(MakeBody(overlong), &out).code(), StatusCode::kOutOfRange);
}

TEST(ShardOpCodecTest, RejectsTrailingBytes) {
  for (const ShardOp& op : {InstallOp(), ShardOp{}}) {
    std::vector<uint8_t> bytes = EncodedBytes(op);
    bytes.push_back(0);
    ShardOp out;
    EXPECT_EQ(DecodeShardOp(MakeBody(bytes), &out).code(), StatusCode::kInvalidArgument);
  }
}

// [watermark u64][frozen count u32][frozen slots][dropped count u32][dropped slots]
TEST(ShardServeStateTest, RestoreRejectsSlotCountsAboveTheKeyspace) {
  ShardServeState state;
  state.Freeze(1, 2);
  ASSERT_TRUE(state.AdvanceCtlWatermark(5));
  for (const bool frozen_side : {true, false}) {
    BufferWriter w;
    w.PutU64(9);
    w.PutU32(frozen_side ? kShardSlots + 1 : 0);
    if (!frozen_side) {
      w.PutU32(kShardSlots + 1);
    }
    for (uint32_t i = 0; i <= kShardSlots; ++i) {
      w.PutU32(i % kShardSlots);
    }
    BufferReader r(w.bytes());
    EXPECT_EQ(state.Restore(&r).code(), StatusCode::kInvalidArgument) << frozen_side;
    // A rejected restore leaves the state as it was.
    EXPECT_EQ(state.ctl_watermark(), 5u);
    EXPECT_EQ(state.frozen(), (std::set<uint32_t>{1, 2}));
  }
  // Exactly kShardSlots of each is accepted.
  BufferWriter w;
  w.PutU64(9);
  for (int side = 0; side < 2; ++side) {
    w.PutU32(kShardSlots);
    for (uint32_t i = 0; i < kShardSlots; ++i) {
      w.PutU32(i);
    }
  }
  BufferReader r(w.bytes());
  ASSERT_TRUE(state.Restore(&r).ok());
  EXPECT_EQ(state.frozen().size(), kShardSlots);
  EXPECT_EQ(state.dropped().size(), kShardSlots);
}

}  // namespace
}  // namespace hovercraft
