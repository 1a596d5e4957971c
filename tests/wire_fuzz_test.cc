// Wire-path fuzzing: adversarial packet streams — truncated, duplicated,
// reordered, bit-flipped, cross-spliced and pure-garbage frames — driven
// through the raw-bytes Reassembler::Feed -> DecodeR2p2View. The streams are
// cut from pooled frames written by Serialize*Into. The properties:
//
//  1. no crash / no UB (the CI sanitizer job runs this under asan+ubsan);
//  2. every Feed returns cleanly (ok or a typed error, never a CHECK);
//  3. anything that *does* decode is a well-formed message: re-serializing
//     and re-decoding it is a fixed point (payload bits are not checksummed
//     on this wire, so flipped body bytes may legally survive — but a
//     mutated stream must never produce a structurally broken message);
//  4. the buffer pool balances to zero outstanding buffers at teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/r2p2/serdes.h"

namespace hovercraft {
namespace {

constexpr size_t kMtu = 1436;

std::vector<uint8_t> PatternBytes(size_t n, uint8_t salt) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 31 + salt);
  }
  return bytes;
}

// One packet of a mutable raw-byte stream.
using Packet = std::vector<uint8_t>;

// Copies pooled frames out into raw packets the mutator can edit freely.
std::vector<Packet> ToPackets(const std::vector<BufRef>& frames) {
  std::vector<Packet> packets;
  for (const BufRef& frame : frames) {
    packets.emplace_back(frame.bytes().begin(), frame.bytes().end());
  }
  return packets;
}

// Serialize a random message into raw wire packets.
std::vector<Packet> RandomMessagePackets(BufPool& pool, Rng& rng) {
  const uint64_t seq = rng.NextBelow(1u << 20);
  const HostId client = static_cast<HostId>(rng.NextBelow(64));
  const size_t body_len = rng.NextBelow(6000);
  std::vector<BufRef> frames;
  if (rng.NextBelow(2) == 0) {
    RpcRequest req(RequestId{client, seq},
                   static_cast<R2p2Policy>(rng.NextBelow(3)),
                   MakeBody(PatternBytes(body_len, static_cast<uint8_t>(seq))),
                   /*attempt=*/static_cast<uint32_t>(1 + rng.NextBelow(4)),
                   /*ack_watermark=*/rng.NextBelow(1u << 30));
    SerializeRequestInto(pool, req, kMtu, frames);
    return ToPackets(frames);
  }
  RpcResponse resp(RequestId{client, seq},
                   MakeBody(PatternBytes(body_len, static_cast<uint8_t>(seq + 1))));
  SerializeResponseInto(pool, resp, kMtu, frames);
  return ToPackets(frames);
}

// Mutate a packet stream in place: truncate / duplicate / drop / bit-flip /
// shuffle, several rounds.
void Mutate(std::vector<Packet>& packets, Rng& rng) {
  const size_t rounds = 1 + rng.NextBelow(4);
  for (size_t r = 0; r < rounds && !packets.empty(); ++r) {
    const size_t which = rng.NextBelow(packets.size());
    switch (rng.NextBelow(5)) {
      case 0: {  // truncate (possibly below the header size)
        Packet& p = packets[which];
        p.resize(rng.NextBelow(p.size() + 1));
        break;
      }
      case 1:  // duplicate
        packets.push_back(packets[which]);
        break;
      case 2:  // drop
        packets.erase(packets.begin() + static_cast<ptrdiff_t>(which));
        break;
      case 3: {  // bit-flip
        Packet& p = packets[which];
        if (!p.empty()) {
          const size_t byte = rng.NextBelow(p.size());
          p[byte] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
        }
        break;
      }
      default: {  // swap two packets (reorder)
        const size_t other = rng.NextBelow(packets.size());
        std::swap(packets[which], packets[other]);
        break;
      }
    }
  }
}

// Round-trip stability: a decoded message re-serializes and re-decodes to an
// identical message (property 3).
void ExpectRoundTripStable(BufPool& pool, const R2p2MessageView& decoded) {
  std::vector<BufRef> frames;
  if (decoded.type == WireType::kRequest) {
    SerializeRequestInto(pool,
                         RpcRequest(decoded.rid, decoded.policy, decoded.body, decoded.attempt,
                                    decoded.ack_watermark, decoded.shard_slot),
                         kMtu, frames);
  } else if (decoded.type == WireType::kResponse) {
    SerializeResponseInto(pool, RpcResponse(decoded.rid, decoded.body), kMtu, frames);
  } else {
    return;  // FEEDBACK/NACK carry identity only; nothing more to check
  }
  Reassembler reassembler(&pool);
  bool completed = false;
  for (const BufRef& frame : frames) {
    Result<bool> fed = reassembler.Feed(frame, 0);
    ASSERT_TRUE(fed.ok()) << "re-encoded message failed to reassemble";
    completed = fed.value();
  }
  ASSERT_TRUE(completed);
  Result<R2p2MessageView> again = DecodeR2p2View(reassembler.TakeCompleted());
  ASSERT_TRUE(again.ok()) << "re-encoded message failed to decode";
  ASSERT_EQ(again.value().type, decoded.type);
  ASSERT_EQ(again.value().rid, decoded.rid);
  ASSERT_EQ(again.value().policy, decoded.policy);
  ASSERT_EQ(again.value().attempt, decoded.attempt);
  ASSERT_EQ(again.value().ack_watermark, decoded.ack_watermark);
  ASSERT_EQ(again.value().shard_slot, decoded.shard_slot);
  ASSERT_TRUE(again.value().body == decoded.body);
}

TEST(WireFuzzTest, MutatedStreamsNeverBreakTheReassembler) {
  BufPool pool;
  uint64_t fed = 0, completed = 0, decode_ok = 0, decode_err = 0, feed_err = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(0xF00D0000 + seed);
    Reassembler reassembler(&pool);

    // One or two messages' packets, mutated, possibly interleaved (fragments
    // of different messages cross-talking through the same reassembler).
    std::vector<Packet> packets = RandomMessagePackets(pool, rng);
    if (rng.NextBelow(3) == 0) {
      std::vector<Packet> other = RandomMessagePackets(pool, rng);
      packets.insert(packets.end(), other.begin(), other.end());
    }
    Mutate(packets, rng);

    for (const Packet& p : packets) {
      Result<bool> result = reassembler.Feed(p, static_cast<TimeNs>(fed));
      ++fed;
      if (!result.ok()) {
        ++feed_err;
        continue;
      }
      if (result.value()) {
        ++completed;
        Result<R2p2MessageView> decoded = DecodeR2p2View(reassembler.TakeCompleted());
        if (decoded.ok()) {
          ++decode_ok;
          ExpectRoundTripStable(pool, decoded.value());
        } else {
          ++decode_err;
        }
      }
      // Exercise GC interleaved with feeding.
      if (fed % 97 == 0) {
        reassembler.GarbageCollect(static_cast<TimeNs>(fed), 10);
      }
    }
  }
  // The stream is adversarial but not pure noise: plenty of messages still
  // complete and decode, so the properties above were actually exercised.
  EXPECT_GT(fed, 1000u);
  EXPECT_GT(completed, 100u);
  EXPECT_GT(decode_ok, 100u);
  EXPECT_GT(feed_err, 100u);
  // Teardown balance: every completed body has been dropped by now.
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(WireFuzzTest, PureGarbageIsRejectedOrInert) {
  BufPool pool;
  {
    Reassembler reassembler(&pool);
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Rng rng(0xBAD00000 + seed);
      Packet garbage(rng.NextBelow(3 * kMtu));
      for (uint8_t& b : garbage) {
        b = static_cast<uint8_t>(rng.NextBelow(256));
      }
      Result<bool> result = reassembler.Feed(garbage, static_cast<TimeNs>(seed));
      if (result.ok() && result.value()) {
        // Random bytes that passed magic/version/flag validation: still must
        // decode cleanly or error out, never crash.
        Result<R2p2MessageView> decoded = DecodeR2p2View(reassembler.TakeCompleted());
        if (decoded.ok()) {
          ExpectRoundTripStable(pool, decoded.value());
        }
      }
    }
    reassembler.GarbageCollect(Millis(1), 0);
    EXPECT_EQ(reassembler.pending(), 0u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(WireFuzzTest, PooledFramePathSurvivesMutation) {
  // Same properties through the zero-copy entry point: pooled frames from
  // the gather Fragment, mutated in place via writable(), fed as BufRefs.
  BufPool pool;
  uint64_t completed = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(0xCAFE0000 + seed);
    Reassembler reassembler(&pool);
    RpcRequest req(RequestId{1, seed}, R2p2Policy::kReplicatedReq,
                   MakeBody(PatternBytes(rng.NextBelow(4000), static_cast<uint8_t>(seed))));
    std::vector<BufRef> frames;
    SerializeRequestInto(pool, req, kMtu, frames);
    // Bit-flip one byte of one frame half the time.
    if (rng.NextBelow(2) == 0 && !frames.empty()) {
      BufRef& frame = frames[rng.NextBelow(frames.size())];
      auto bytes = frame.writable();
      if (!bytes.empty()) {
        bytes[rng.NextBelow(bytes.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
    }
    for (const BufRef& frame : frames) {
      Result<bool> result = reassembler.Feed(frame, static_cast<TimeNs>(seed));
      if (!result.ok()) {
        break;
      }
      if (result.value()) {
        ++completed;
        Result<R2p2MessageView> decoded = DecodeR2p2View(reassembler.TakeCompleted());
        if (decoded.ok()) {
          ExpectRoundTripStable(pool, decoded.value());
        }
      }
    }
  }
  EXPECT_GT(completed, 50u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

}  // namespace
}  // namespace hovercraft
