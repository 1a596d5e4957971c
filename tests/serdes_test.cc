// Wire conformance for the R2P2 codec: golden vectors pin the exact bytes
// every Serialize*Into function writes, typed messages survive a full
// serialize -> fragment -> (shuffle) -> reassemble -> DecodeR2p2View round
// trip, and each DecodeR2p2View rejection is reached by a directed case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/r2p2/serdes.h"

namespace hovercraft {
namespace {

constexpr size_t kMtu = 1436;

Body PatternBody(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + 3);
  }
  return MakeBody(std::move(bytes));
}

// Decoded bodies are zero-copy slices of the reassembly pool, so the caller
// owns the pool and must declare it before any decoded message it keeps
// (BufPool ownership rules: the pool's leak check runs at its destruction).
Result<R2p2MessageView> RoundTrip(BufPool& pool, const std::vector<BufRef>& frames,
                                  Rng* shuffle_rng) {
  std::vector<size_t> order(frames.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  if (shuffle_rng != nullptr) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle_rng->NextBelow(i)]);
    }
  }
  Reassembler reassembler(&pool);
  for (size_t i = 0; i < order.size(); ++i) {
    Result<bool> done = reassembler.Feed(frames[order[i]], 0);
    if (!done.ok()) {
      return done.status();
    }
    if (done.value()) {
      EXPECT_EQ(i, order.size() - 1) << "completed before all fragments fed";
      return DecodeR2p2View(reassembler.TakeCompleted());
    }
  }
  return InternalError("message never completed");
}

// ---------------------------------------------------------------------------
// Golden vectors. These bytes were recorded while the codec still had a
// second, copying tier, and both tiers produced them identically; any change
// to the layout, the request extension or the fragmentation shows up here.
// ---------------------------------------------------------------------------

struct Golden {
  const char* name;
  std::function<void(BufPool&, std::vector<BufRef>&)> serialize;
  size_t frames;
  size_t frame_len;             // bytes of every frame but the last
  size_t last_len;              // bytes of the last frame
  std::vector<uint8_t> head;    // leading bytes of frame 0 (all of a single frame)
  std::vector<uint8_t> last_header;  // header of the last frame (multi-frame only)
  uint32_t crc;                 // CRC-32C over every frame, in order
};

// The 24 B request: attempt 3, watermark 0x1122334455667788, unsharded.
const std::vector<uint8_t> kGoldenRequest24 = {
    0x52, 0x01, 0x00, 0x31, 0x11, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x03, 0x00, 0x00, 0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
    0xff, 0xff, 0xff, 0xff, 0x03, 0x86, 0x09, 0x8c, 0x0f, 0x92, 0x15, 0x98, 0x1b, 0x9e,
    0x21, 0xa4, 0x27, 0xaa, 0x2d, 0xb0, 0x33, 0xb6, 0x39, 0xbc, 0x3f, 0xc2, 0x45, 0xc8};

RpcRequest GoldenRequest24() {
  return RpcRequest(RequestId{4, 17}, R2p2Policy::kReplicatedReq, PatternBody(24),
                    /*attempt=*/3, /*ack_watermark=*/0x1122334455667788ull);
}

std::vector<Golden> GoldenCases() {
  return {
      {"request_24B",
       [](BufPool& pool, std::vector<BufRef>& out) {
         SerializeRequestInto(pool, GoldenRequest24(), kMtu, out);
       },
       1, 56, 56, kGoldenRequest24, {}, 0x0098e912},
      {"request_empty",
       [](BufPool& pool, std::vector<BufRef>& out) {
         SerializeRequestInto(pool, RpcRequest(RequestId{1, 1}, R2p2Policy::kReplicatedReq, nullptr),
                              kMtu, out);
       },
       1, 32, 32,
       {0x52, 0x01, 0x00, 0x31, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff},
       {}, 0x7ae253ee},
      {"request_sharded",
       [](BufPool& pool, std::vector<BufRef>& out) {
         SerializeRequestInto(pool,
                              RpcRequest(RequestId{5, 0x10203ull}, R2p2Policy::kReplicatedReqRo,
                                         PatternBody(8), /*attempt=*/1, /*ack_watermark=*/7,
                                         /*shard_slot=*/0x3FFF),
                              kMtu, out);
       },
       1, 40, 40,
       {0x52, 0x01, 0x00, 0x32, 0x03, 0x02, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xff, 0x3f, 0x00, 0x00, 0x03, 0x86, 0x09, 0x8c, 0x0f, 0x92, 0x15, 0x98},
       {}, 0xfefb5196},
      {"request_6000B",
       [](BufPool& pool, std::vector<BufRef>& out) {
         SerializeRequestInto(pool,
                              RpcRequest(RequestId{7, 99}, R2p2Policy::kReplicatedReq,
                                         PatternBody(6000), /*attempt=*/2, /*ack_watermark=*/98),
                              kMtu, out);
       },
       5, 1452, 288,
       {0x52, 0x01, 0x00, 0x11, 0x63, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x62, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff},
       {0x52, 0x01, 0x00, 0x21, 0x63, 0x00, 0x04, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00},
       0x5fb3e4e2},
      {"response_60000B",
       [](BufPool& pool, std::vector<BufRef>& out) {
         SerializeResponseInto(pool, RpcResponse(RequestId{3, 1234567ull}, PatternBody(60'000)),
                               kMtu, out);
       },
       42, 1452, 1140,
       {0x52, 0x01, 0x01, 0x10, 0x87, 0xd6, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x12, 0x00, 0x2a, 0x00,
        0x03, 0x86, 0x09, 0x8c, 0x0f, 0x92, 0x15, 0x98, 0x1b, 0x9e, 0x21, 0xa4, 0x27, 0xaa, 0x2d, 0xb0},
       {0x52, 0x01, 0x01, 0x20, 0x87, 0xd6, 0x29, 0x00, 0x03, 0x00, 0x00, 0x00, 0x12, 0x00, 0x2a, 0x00},
       0xa5e0714b},
      {"feedback",
       [](BufPool& pool, std::vector<BufRef>& out) {
         SerializeFeedbackInto(pool, FeedbackMsg(RequestId{9, 777}), out);
       },
       1, 16, 16,
       {0x52, 0x01, 0x02, 0x30, 0x09, 0x03, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00},
       {}, 0x3c4b8195},
      {"nack",
       [](BufPool& pool, std::vector<BufRef>& out) {
         SerializeNackInto(pool, NackMsg(RequestId{9, 778}), out);
       },
       1, 16, 16,
       {0x52, 0x01, 0x03, 0x30, 0x0a, 0x03, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00},
       {}, 0x3bdea883},
  };
}

TEST(SerdesTest, GoldenVectorsPinEveryByte) {
  BufPool pool;
  std::vector<BufRef> frames;
  for (const Golden& golden : GoldenCases()) {
    SCOPED_TRACE(golden.name);
    golden.serialize(pool, frames);
    ASSERT_EQ(frames.size(), golden.frames);
    uint32_t crc = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
      const std::span<const uint8_t> bytes = frames[i].bytes();
      EXPECT_EQ(bytes.size(), i + 1 == frames.size() ? golden.last_len : golden.frame_len)
          << "frame " << i;
      crc = Crc32c(bytes, crc);
    }
    const std::span<const uint8_t> first = frames.front().bytes();
    ASSERT_GE(first.size(), golden.head.size());
    EXPECT_TRUE(std::equal(golden.head.begin(), golden.head.end(), first.begin()));
    if (frames.size() > 1) {
      const std::span<const uint8_t> last = frames.back().bytes();
      EXPECT_TRUE(std::equal(golden.last_header.begin(), golden.last_header.end(), last.begin()));
    } else {
      EXPECT_EQ(first.size(), golden.head.size()) << "single frames are pinned whole";
    }
    EXPECT_EQ(crc, golden.crc);
  }
  frames.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(SerdesTest, GoldenBytesDecodeThroughTheRawEntryPoint) {
  // The literal frame fed as raw bytes (the fuzzers' entry point) decodes to
  // the message it was serialized from.
  BufPool pool;
  {
    Reassembler reassembler(&pool);
    Result<bool> done = reassembler.Feed(std::span<const uint8_t>(kGoldenRequest24), 0);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done.value());
    Result<R2p2MessageView> view = DecodeR2p2View(reassembler.TakeCompleted());
    ASSERT_TRUE(view.ok());
    const RpcRequest expected = GoldenRequest24();
    EXPECT_EQ(view.value().type, WireType::kRequest);
    EXPECT_EQ(view.value().rid, expected.rid());
    EXPECT_EQ(view.value().policy, expected.policy());
    EXPECT_EQ(view.value().attempt, 3u);
    EXPECT_EQ(view.value().ack_watermark, 0x1122334455667788ull);
    EXPECT_EQ(view.value().shard_slot, kNoShardSlot);
    EXPECT_EQ(view.value().body, *expected.body());
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(SerdesTest, RequestIdentityRoundTrip) {
  const RequestId rid{42, 0x12345678ull};
  const WireHeader h = HeaderForRequest(rid, R2p2Policy::kReplicatedReq, WireType::kRequest);
  EXPECT_EQ(RequestIdFromHeader(h), rid);
}

TEST(SerdesTest, SmallRequestRoundTrip) {
  BufPool pool;
  RpcRequest req(RequestId{7, 99}, R2p2Policy::kReplicatedReqRo, PatternBody(24));
  std::vector<BufRef> frames;
  SerializeRequestInto(pool, req, kMtu, frames);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded = RoundTrip(pool, frames, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, WireType::kRequest);
  EXPECT_EQ(decoded.value().rid, req.rid());
  EXPECT_EQ(decoded.value().policy, R2p2Policy::kReplicatedReqRo);
  EXPECT_EQ(decoded.value().body, *req.body());
}

TEST(SerdesTest, MultiFrameRequestRoundTripShuffled) {
  BufPool pool;
  RpcRequest req(RequestId{7, 99}, R2p2Policy::kReplicatedReq, PatternBody(6000),
                 /*attempt=*/2, /*ack_watermark=*/98);
  std::vector<BufRef> frames;
  SerializeRequestInto(pool, req, kMtu, frames);
  ASSERT_EQ(frames.size(), 5u);
  Rng rng(11);
  auto decoded = RoundTrip(pool, frames, &rng);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().attempt, 2u);
  EXPECT_EQ(decoded.value().ack_watermark, 98u);
  EXPECT_EQ(decoded.value().body, *req.body());
}

TEST(SerdesTest, LargeResponseRoundTripShuffled) {
  BufPool pool;
  RpcResponse resp(RequestId{3, 1234567ull}, PatternBody(60'000));
  std::vector<BufRef> frames;
  SerializeResponseInto(pool, resp, kMtu, frames);
  EXPECT_GT(frames.size(), 40u);
  Rng rng(5);
  auto decoded = RoundTrip(pool, frames, &rng);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, WireType::kResponse);
  EXPECT_EQ(decoded.value().rid, resp.rid());
  EXPECT_EQ(decoded.value().body, *resp.body());
}

TEST(SerdesTest, EmptyBodyRequest) {
  BufPool pool;
  RpcRequest req(RequestId{1, 1}, R2p2Policy::kReplicatedReq, nullptr);
  std::vector<BufRef> frames;
  SerializeRequestInto(pool, req, kMtu, frames);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded = RoundTrip(pool, frames, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().body.size(), 0u);
}

TEST(SerdesTest, FeedbackAndNackCarryIdentityOnly) {
  BufPool pool;
  const RequestId rid{9, 777};
  std::vector<BufRef> frames;
  SerializeFeedbackInto(pool, FeedbackMsg(rid), frames);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded_fb = RoundTrip(pool, frames, nullptr);
  ASSERT_TRUE(decoded_fb.ok());
  EXPECT_EQ(decoded_fb.value().type, WireType::kFeedback);
  EXPECT_EQ(decoded_fb.value().rid, rid);
  EXPECT_TRUE(decoded_fb.value().body == nullptr);

  SerializeNackInto(pool, NackMsg(rid), frames);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded_nack = RoundTrip(pool, frames, nullptr);
  ASSERT_TRUE(decoded_nack.ok());
  EXPECT_EQ(decoded_nack.value().type, WireType::kNack);
  EXPECT_EQ(decoded_nack.value().rid, rid);
  EXPECT_TRUE(decoded_nack.value().body == nullptr);
}

TEST(SerdesTest, PolicySurvivesTheWire) {
  BufPool pool;
  std::vector<BufRef> frames;
  for (R2p2Policy policy : {R2p2Policy::kUnrestricted, R2p2Policy::kReplicatedReq,
                            R2p2Policy::kReplicatedReqRo}) {
    SerializeRequestInto(pool, RpcRequest(RequestId{2, 5}, policy, PatternBody(8)), kMtu, frames);
    auto decoded = RoundTrip(pool, frames, nullptr);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().policy, policy);
  }
}

TEST(SerdesTest, AttemptAndWatermarkSurviveTheWire) {
  BufPool pool;
  // The exactly-once extension rides in the request body: attempt number,
  // the client's ack watermark and the shard slot must round-trip, and the
  // payload after them must be untouched.
  RpcRequest req(RequestId{4, 17}, R2p2Policy::kReplicatedReq, PatternBody(40),
                 /*attempt=*/3, /*ack_watermark=*/0x1122334455667788ull, /*shard_slot=*/77);
  EXPECT_TRUE(req.is_retransmit());
  std::vector<BufRef> frames;
  SerializeRequestInto(pool, req, kMtu, frames);
  auto decoded = RoundTrip(pool, frames, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().attempt, 3u);
  EXPECT_EQ(decoded.value().ack_watermark, 0x1122334455667788ull);
  EXPECT_EQ(decoded.value().shard_slot, 77u);
  EXPECT_EQ(decoded.value().body, *req.body());

  // First attempts are the default and not retransmissions.
  RpcRequest fresh(RequestId{4, 18}, R2p2Policy::kReplicatedReq, PatternBody(8));
  EXPECT_EQ(fresh.attempt(), 1u);
  EXPECT_FALSE(fresh.is_retransmit());
  SerializeRequestInto(pool, fresh, kMtu, frames);
  auto fresh_decoded = RoundTrip(pool, frames, nullptr);
  ASSERT_TRUE(fresh_decoded.ok());
  EXPECT_EQ(fresh_decoded.value().attempt, 1u);
  EXPECT_EQ(fresh_decoded.value().ack_watermark, 0u);
  EXPECT_EQ(fresh_decoded.value().shard_slot, kNoShardSlot);
}

TEST(SerdesTest, SequenceWrapsStayDistinctWithin32Bits) {
  // The packed (req_id, src_port) fields disambiguate 2^32 in-flight seqs.
  const RequestId a{1, 0x0000FFFFull};
  const RequestId b{1, 0x0001FFFFull};
  const WireHeader ha = HeaderForRequest(a, R2p2Policy::kReplicatedReq, WireType::kRequest);
  const WireHeader hb = HeaderForRequest(b, R2p2Policy::kReplicatedReq, WireType::kRequest);
  EXPECT_NE(RequestIdFromHeader(ha), RequestIdFromHeader(hb));
  EXPECT_EQ(RequestIdFromHeader(ha), a);
  EXPECT_EQ(RequestIdFromHeader(hb), b);
}

// ---------------------------------------------------------------------------
// Directed decode rejections: the golden 24 B request frame with one field
// changed reaches each DecodeR2p2View error path.
// ---------------------------------------------------------------------------

// Reassembles `frame` (raw bytes) into one completed message.
Reassembler::Complete CompleteFrame(Reassembler& reassembler, std::span<const uint8_t> frame) {
  Result<bool> done = reassembler.Feed(frame, 0);
  EXPECT_TRUE(done.ok());
  EXPECT_TRUE(done.ok() && done.value());
  return reassembler.TakeCompleted();
}

TEST(SerdesTest, DecodeRejectsPolicyAboveReadOnly) {
  BufPool pool;
  {
    Reassembler reassembler(&pool);
    std::vector<uint8_t> frame = kGoldenRequest24;
    frame[3] = static_cast<uint8_t>((frame[3] & 0xF0) | 3);
    // The wire header parser already refuses the policy nibble...
    EXPECT_FALSE(reassembler.Feed(std::span<const uint8_t>(frame), 0).ok());
    // ...and DecodeR2p2View refuses it on its own, for a caller that builds
    // the header some other way.
    Reassembler::Complete complete = CompleteFrame(reassembler, kGoldenRequest24);
    complete.header.policy = static_cast<uint8_t>(R2p2Policy::kReplicatedReqRo) + 1;
    EXPECT_FALSE(DecodeR2p2View(complete).ok());
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(SerdesTest, DecodeRejectsRequestShorterThanItsExtension) {
  BufPool pool;
  {
    Reassembler reassembler(&pool);
    const std::vector<uint8_t> frame(kGoldenRequest24.begin(),
                                     kGoldenRequest24.begin() + kWireHeaderBytes +
                                         kRequestExtensionBytes - 1);
    EXPECT_FALSE(DecodeR2p2View(CompleteFrame(reassembler, frame)).ok());
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(SerdesTest, DecodeRejectsAttemptZero) {
  BufPool pool;
  {
    Reassembler reassembler(&pool);
    std::vector<uint8_t> frame = kGoldenRequest24;
    std::fill_n(frame.begin() + kWireHeaderBytes, 4, 0);  // attempt is the first ext field
    EXPECT_FALSE(DecodeR2p2View(CompleteFrame(reassembler, frame)).ok());
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(SerdesTest, DecodeRejectsUnsupportedWireType) {
  BufPool pool;
  {
    Reassembler reassembler(&pool);
    std::vector<uint8_t> frame = kGoldenRequest24;
    frame[2] = static_cast<uint8_t>(WireType::kRaftReq);  // a valid header, not an RPC
    EXPECT_FALSE(DecodeR2p2View(CompleteFrame(reassembler, frame)).ok());
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

}  // namespace
}  // namespace hovercraft
