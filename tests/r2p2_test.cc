#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/buf_pool.h"
#include "src/common/random.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/packetizer.h"
#include "src/r2p2/request_id.h"
#include "src/r2p2/wire.h"
#include "src/raft/messages.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Wire header codec
// ---------------------------------------------------------------------------

WireHeader SampleHeader() {
  WireHeader h;
  h.type = WireType::kRaftReq;
  h.policy = 2;
  h.first = true;
  h.last = false;
  h.req_id = 0xABCD;
  h.packet_id = 7;
  h.src_ip = 0x0A000001;
  h.src_port = 31337;
  h.packet_count = 9;
  return h;
}

TEST(WireTest, HeaderRoundTrip) {
  const WireHeader h = SampleHeader();
  std::vector<uint8_t> buf(kWireHeaderBytes);
  EncodeWireHeader(h, buf);
  Result<WireHeader> decoded = DecodeWireHeader(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), h);
}

TEST(WireTest, AllTypesRoundTrip) {
  for (uint8_t t = 0; t <= static_cast<uint8_t>(WireType::kRecoveryRep); ++t) {
    WireHeader h = SampleHeader();
    h.type = static_cast<WireType>(t);
    std::vector<uint8_t> buf(kWireHeaderBytes);
    EncodeWireHeader(h, buf);
    Result<WireHeader> decoded = DecodeWireHeader(buf);
    ASSERT_TRUE(decoded.ok()) << "type " << static_cast<int>(t);
    EXPECT_EQ(decoded.value().type, h.type);
  }
}

TEST(WireTest, RejectsShortBuffer) {
  std::vector<uint8_t> buf(kWireHeaderBytes - 1);
  EXPECT_FALSE(DecodeWireHeader(buf).ok());
}

TEST(WireTest, RejectsBadMagic) {
  std::vector<uint8_t> buf(kWireHeaderBytes);
  EncodeWireHeader(SampleHeader(), buf);
  buf[0] = 0x00;
  EXPECT_FALSE(DecodeWireHeader(buf).ok());
}

TEST(WireTest, RejectsBadVersion) {
  std::vector<uint8_t> buf(kWireHeaderBytes);
  EncodeWireHeader(SampleHeader(), buf);
  buf[1] = 99;
  EXPECT_FALSE(DecodeWireHeader(buf).ok());
}

TEST(WireTest, RejectsUnknownType) {
  std::vector<uint8_t> buf(kWireHeaderBytes);
  EncodeWireHeader(SampleHeader(), buf);
  buf[2] = 0x7F;
  EXPECT_FALSE(DecodeWireHeader(buf).ok());
}

TEST(WireTest, RejectsUnknownPolicy) {
  std::vector<uint8_t> buf(kWireHeaderBytes);
  EncodeWireHeader(SampleHeader(), buf);
  buf[3] = 0x0F;  // policy nibble = 15
  EXPECT_FALSE(DecodeWireHeader(buf).ok());
}

// ---------------------------------------------------------------------------
// Fragmentation / reassembly
// ---------------------------------------------------------------------------

std::vector<uint8_t> PatternBody(size_t n) {
  std::vector<uint8_t> body(n);
  for (size_t i = 0; i < n; ++i) {
    body[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return body;
}

// Fragments `body` into pooled frames drawn from `pool`.
std::vector<BufRef> Frames(BufPool& pool, const WireHeader& h, std::span<const uint8_t> body,
                           size_t mtu_payload) {
  std::vector<BufRef> frames;
  Fragment(pool, h, body, mtu_payload, frames);
  return frames;
}

TEST(PacketizerTest, SinglePacketMessage) {
  BufPool pool;
  WireHeader h = SampleHeader();
  const std::vector<uint8_t> body = PatternBody(100);
  auto packets = Frames(pool, h, body, 1436);
  ASSERT_EQ(packets.size(), 1u);

  Reassembler r(&pool);
  Result<bool> done = r.Feed(packets[0], 0);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done.value());
  auto complete = r.TakeCompleted();
  EXPECT_EQ(complete.body, body);
  EXPECT_TRUE(complete.header.first);
}

TEST(PacketizerTest, EmptyBodyStillOnePacket) {
  BufPool pool;
  auto packets = Frames(pool, SampleHeader(), {}, 1436);
  ASSERT_EQ(packets.size(), 1u);
  Result<WireHeader> h = DecodeWireHeader(packets[0].bytes());
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h.value().first);
  EXPECT_TRUE(h.value().last);
  EXPECT_EQ(h.value().packet_count, 1);
}

TEST(PacketizerTest, MultiPacketRoundTripInOrder) {
  BufPool pool;
  const std::vector<uint8_t> body = PatternBody(6000);
  auto packets = Frames(pool, SampleHeader(), body, 1436);
  EXPECT_EQ(packets.size(), 5u);

  Reassembler r(&pool);
  for (size_t i = 0; i < packets.size(); ++i) {
    Result<bool> done = r.Feed(packets[i], 0);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done.value(), i == packets.size() - 1);
  }
  EXPECT_EQ(r.TakeCompleted().body, body);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(PacketizerTest, OutOfOrderReassembly) {
  BufPool pool;
  const std::vector<uint8_t> body = PatternBody(4000);
  auto packets = Frames(pool, SampleHeader(), body, 1436);
  ASSERT_EQ(packets.size(), 3u);

  Reassembler r(&pool);
  ASSERT_TRUE(r.Feed(packets[2], 0).ok());
  ASSERT_TRUE(r.Feed(packets[0], 0).ok());
  Result<bool> done = r.Feed(packets[1], 0);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done.value());
  EXPECT_EQ(r.TakeCompleted().body, body);
}

TEST(PacketizerTest, DuplicateFragmentsIgnored) {
  BufPool pool;
  const std::vector<uint8_t> body = PatternBody(3000);
  auto packets = Frames(pool, SampleHeader(), body, 1436);

  Reassembler r(&pool);
  ASSERT_TRUE(r.Feed(packets[0], 0).ok());
  ASSERT_TRUE(r.Feed(packets[0], 0).ok());  // dup
  ASSERT_TRUE(r.Feed(packets[1], 0).ok());
  Result<bool> done = r.Feed(packets[2], 0);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done.value());
  EXPECT_EQ(r.TakeCompleted().body, body);
}

TEST(PacketizerTest, InterleavedMessagesFromDifferentSenders) {
  BufPool pool;
  const std::vector<uint8_t> body_a = PatternBody(3000);
  WireHeader ha = SampleHeader();
  ha.src_port = 1;
  WireHeader hb = SampleHeader();
  hb.src_port = 2;
  auto pa = Frames(pool, ha, body_a, 1436);
  const std::vector<uint8_t> body_b = PatternBody(2000);
  auto pb = Frames(pool, hb, body_b, 1436);

  Reassembler r(&pool);
  ASSERT_TRUE(r.Feed(pa[0], 0).ok());
  ASSERT_TRUE(r.Feed(pb[0], 0).ok());
  ASSERT_TRUE(r.Feed(pa[1], 0).ok());
  Result<bool> done_b = r.Feed(pb[1], 0);
  ASSERT_TRUE(done_b.ok());
  ASSERT_TRUE(done_b.value());
  EXPECT_EQ(r.TakeCompleted().body, body_b);
  Result<bool> done_a = r.Feed(pa[2], 0);
  ASSERT_TRUE(done_a.ok());
  ASSERT_TRUE(done_a.value());
  EXPECT_EQ(r.TakeCompleted().body, body_a);
}

TEST(PacketizerTest, GarbageCollectDropsStale) {
  BufPool pool;
  const std::vector<uint8_t> body = PatternBody(3000);
  auto packets = Frames(pool, SampleHeader(), body, 1436);

  Reassembler r(&pool);
  ASSERT_TRUE(r.Feed(packets[0], /*now=*/0).ok());
  EXPECT_EQ(r.pending(), 1u);
  EXPECT_EQ(r.GarbageCollect(Millis(10), Millis(50)), 0u);
  EXPECT_EQ(r.GarbageCollect(Millis(60), Millis(50)), 1u);
  EXPECT_EQ(r.pending(), 0u);
}

TEST(PacketizerTest, RejectsFragmentIndexBeyondCount) {
  BufPool pool;
  const std::vector<uint8_t> body = PatternBody(3000);
  auto packets = Frames(pool, SampleHeader(), body, 1436);
  // Corrupt packet 1's packet_id to an out-of-range index.
  Reassembler r(&pool);
  ASSERT_TRUE(r.Feed(packets[0], 0).ok());
  WireHeader bad = SampleHeader();
  bad.first = false;
  bad.last = false;
  bad.packet_id = 40;
  std::vector<uint8_t> pkt(kWireHeaderBytes + 10);
  EncodeWireHeader(bad, pkt);
  EXPECT_FALSE(r.Feed(pkt, 0).ok());
}

// Regression (reviewer repro): fragments with out-of-range ids that arrive
// before FIRST must not count toward completion — otherwise a message can
// "complete" with real fragments absent, leaking recycled pool memory.
TEST(PacketizerTest, RejectsPreFirstFragmentBeyondDeclaredCount) {
  BufPool pool;
  const std::vector<uint8_t> body = PatternBody(44);  // 6 fragments at mtu 8
  auto packets = Frames(pool, SampleHeader(), body, 8);
  ASSERT_EQ(packets.size(), 6u);

  Reassembler r(&pool);
  ASSERT_TRUE(r.Feed(packets[5], 0).ok());  // LAST(5) before FIRST
  // Bogus fragments 7 and 8: in-range checks are impossible until FIRST.
  for (uint16_t id : {uint16_t{7}, uint16_t{8}}) {
    WireHeader bogus = SampleHeader();
    bogus.first = false;
    bogus.last = false;
    bogus.packet_id = id;
    std::vector<uint8_t> pkt(kWireHeaderBytes + 8);
    EncodeWireHeader(bogus, pkt);
    ASSERT_TRUE(r.Feed(pkt, 0).ok());
  }
  // FIRST reveals packet_count = 6: the buffered ids 7/8 are impossible, so
  // the whole partial is rejected rather than left able to complete short.
  EXPECT_FALSE(r.Feed(packets[0], 0).ok());
  EXPECT_EQ(r.pending(), 0u);
  // Real fragments 1 and 2 must not now complete the dropped message.
  ASSERT_TRUE(r.Feed(packets[1], 0).ok());
  Result<bool> done = r.Feed(packets[2], 0);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done.value());
  // A clean retransmission round still reassembles correctly.
  Reassembler clean(&pool);
  for (size_t i = 0; i < packets.size(); ++i) {
    Result<bool> fed = clean.Feed(packets[i], 0);
    ASSERT_TRUE(fed.ok());
    EXPECT_EQ(fed.value(), i == packets.size() - 1);
  }
  EXPECT_EQ(clean.TakeCompleted().body, body);
}

TEST(PacketizerTest, RejectsPreFirstLastAtWrongIndex) {
  Reassembler r;
  // LAST at index 2 arrives before FIRST.
  WireHeader last = SampleHeader();
  last.first = false;
  last.last = true;
  last.packet_id = 2;
  std::vector<uint8_t> last_pkt(kWireHeaderBytes + 4);
  EncodeWireHeader(last, last_pkt);
  ASSERT_TRUE(r.Feed(last_pkt, 0).ok());
  // FIRST then declares 6 fragments: index 2 cannot be the final one.
  WireHeader first = SampleHeader();
  first.first = true;
  first.last = false;
  first.packet_id = 0;
  first.packet_count = 6;
  std::vector<uint8_t> first_pkt(kWireHeaderBytes + 8);
  EncodeWireHeader(first, first_pkt);
  EXPECT_FALSE(r.Feed(first_pkt, 0).ok());
  EXPECT_EQ(r.pending(), 0u);
}

// Regression: a single-fragment FIRST|LAST message must erase a stale partial
// buffered under the same key, so fragments of an earlier multi-fragment
// attempt cannot later combine with retransmits into a duplicate completion.
TEST(PacketizerTest, SingleFragmentSupersedesStalePartial) {
  BufPool pool;
  const std::vector<uint8_t> multi_body = PatternBody(3000);
  auto multi = Frames(pool, SampleHeader(), multi_body, 1436);
  ASSERT_EQ(multi.size(), 3u);
  const std::vector<uint8_t> single_body = PatternBody(80);
  auto single = Frames(pool, SampleHeader(), single_body, 1436);
  ASSERT_EQ(single.size(), 1u);

  Reassembler r(&pool);
  ASSERT_TRUE(r.Feed(multi[0], 0).ok());
  EXPECT_EQ(r.pending(), 1u);
  Result<bool> done = r.Feed(single[0], 0);
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done.value());
  EXPECT_EQ(r.TakeCompleted().body, single_body);
  EXPECT_EQ(r.pending(), 0u);
  // The stale FIRST is gone: remaining fragments of the old attempt cannot
  // complete a second message.
  ASSERT_TRUE(r.Feed(multi[1], 0).ok());
  Result<bool> tail = r.Feed(multi[2], 0);
  ASSERT_TRUE(tail.ok());
  EXPECT_FALSE(tail.value());
}

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

TEST(MessagesTest, RequestCarriesMetadata) {
  auto body = MakeBody(std::vector<uint8_t>(24));
  RpcRequest req(RequestId{3, 99}, R2p2Policy::kReplicatedReqRo, body);
  EXPECT_EQ(req.PayloadBytes(), 24);
  EXPECT_TRUE(req.read_only());
  EXPECT_EQ(req.rid().client, 3);
  EXPECT_EQ(req.rid().seq, 99u);
}

// The closed message set: one message of every kind, each reporting the name
// the exported net.bytes_on_wire.{tx,rx}.<NAME> metrics have always used.
TEST(MessagesTest, EveryKindKeepsItsExportedName) {
  const Body body = MakeBody(std::vector<uint8_t>(8));
  const RequestId rid{1, 2};
  const auto req = std::make_shared<RpcRequest>(rid, R2p2Policy::kReplicatedReq, body);
  const auto feedback = std::make_shared<FeedbackMsg>(rid);
  const std::vector<std::pair<MessagePtr, std::string>> cases = {
      {req, "REQUEST"},
      {std::make_shared<RpcResponse>(rid, body), "RESPONSE"},
      {feedback, "FEEDBACK"},
      {std::make_shared<NackMsg>(rid), "NACK"},
      {std::make_shared<WrongShardNack>(rid, 3), "NACK_WRONG_SHARD"},
      {std::make_shared<FcLeaderChangeMsg>(0), "FC_LEADER"},
      {std::make_shared<FcReconcileReq>(std::vector<RequestId>{rid}), "FC_RECONCILE_REQ"},
      {std::make_shared<FcReconcileRep>(std::vector<RequestId>{rid},
                                        std::vector<FcSlotState>{FcSlotState::kPending}),
       "FC_RECONCILE_REP"},
      {std::make_shared<AppendEntriesReq>(1, 0, 0, 0, 0, std::vector<WireEntry>{}), "AE_REQ"},
      {std::make_shared<AppendEntriesRep>(1, 1, true, 0, 0, 0, false), "AE_REP"},
      {std::make_shared<RequestVoteReq>(1, 0, 0, 0), "VOTE_REQ"},
      {std::make_shared<RequestVoteReq>(1, 0, 0, 0, /*pre_vote=*/true), "PREVOTE_REQ"},
      {std::make_shared<RequestVoteRep>(1, 1, true), "VOTE_REP"},
      {std::make_shared<RequestVoteRep>(1, 1, true, /*pre_vote=*/true), "PREVOTE_REP"},
      {std::make_shared<ReadIndexGrantMsg>(0, 1, 5, rid), "READ_INDEX_GRANT"},
      {std::make_shared<AggCommitMsg>(1, 5, std::vector<LogIndex>{5, 5, 5}), "AGG_COMMIT"},
      {std::make_shared<AggVoteReq>(1), "AGG_VOTE_REQ"},
      {std::make_shared<AggVoteRep>(1), "AGG_VOTE_REP"},
      {std::make_shared<InstallSnapshotReq>(1, 0, 5, 1, body), "SNAPSHOT_REQ"},
      {std::make_shared<InstallSnapshotRep>(1, 1, 5), "SNAPSHOT_REP"},
      {std::make_shared<RecoveryReq>(1, rid), "RECOVERY_REQ"},
      {std::make_shared<RecoveryRep>(rid, req), "RECOVERY_REP"},
      {std::make_shared<BatchMsg>(std::vector<MessagePtr>{req, feedback}), "BATCH"},
  };
  ASSERT_EQ(cases.size(), kMessageKindCount);
  std::set<std::string> names;
  std::set<MessageKind> kinds;
  for (const auto& [msg, name] : cases) {
    EXPECT_EQ(msg->Name(), name);
    EXPECT_EQ(MessageKindName(msg->kind()), name);
    names.insert(msg->Name());
    kinds.insert(msg->kind());
  }
  EXPECT_EQ(names.size(), kMessageKindCount);
  EXPECT_EQ(kinds.size(), kMessageKindCount);
}

TEST(MessagesTest, VoteKindCarriesThePreVoteFlag) {
  EXPECT_FALSE(RequestVoteReq(1, 0, 0, 0).pre_vote());
  EXPECT_TRUE(RequestVoteReq(1, 0, 0, 0, /*pre_vote=*/true).pre_vote());
  EXPECT_FALSE(RequestVoteRep(1, 1, true).pre_vote());
  EXPECT_TRUE(RequestVoteRep(1, 1, true, /*pre_vote=*/true).pre_vote());
  EXPECT_EQ(RequestVoteRep(1, 1, true, /*pre_vote=*/true).kind(), MessageKind::kPreVoteRep);
}

TEST(MessagesTest, AsDowncastsOnlyItsOwnKind) {
  const RpcRequest req(RequestId{1, 2}, R2p2Policy::kReplicatedReq, nullptr);
  const FeedbackMsg fb(RequestId{1, 2});
  EXPECT_EQ(As<RpcRequest>(req), &req);
  EXPECT_EQ(As<RpcResponse>(req), nullptr);
  EXPECT_EQ(As<FeedbackMsg>(fb), &fb);
  EXPECT_EQ(As<NackMsg>(fb), nullptr);
}

TEST(MessagesTest, ResponseAndControlSizes) {
  RpcResponse resp(RequestId{1, 2}, MakeBody(std::vector<uint8_t>(6000)));
  EXPECT_EQ(resp.PayloadBytes(), 6000);
  FeedbackMsg fb(RequestId{1, 2});
  NackMsg nack(RequestId{1, 2});
  EXPECT_EQ(fb.PayloadBytes(), 16);
  EXPECT_EQ(nack.PayloadBytes(), 16);
}

TEST(MessagesTest, RequestIdHashAndEquality) {
  RequestId a{1, 7};
  RequestId b{1, 7};
  RequestId c{2, 7};
  RequestId d{1, 8};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  RequestIdHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

}  // namespace
}  // namespace hovercraft
