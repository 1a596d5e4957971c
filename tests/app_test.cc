#include <gtest/gtest.h>

#include <set>

#include "src/app/kvstore/service.h"
#include "src/app/state_machine.h"
#include "src/app/synthetic.h"
#include "src/app/ycsb.h"
#include "src/common/buffer.h"
#include "src/common/random.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Synthetic service
// ---------------------------------------------------------------------------

TEST(SyntheticTest, OpCodecRoundTrip) {
  SyntheticOp op;
  op.service_time = Micros(7);
  op.reply_bytes = 6000;
  Body body = EncodeSyntheticOp(op, 512);
  EXPECT_EQ(body->size(), 512u);
  Result<SyntheticOp> decoded = DecodeSyntheticOp(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().service_time, Micros(7));
  EXPECT_EQ(decoded.value().reply_bytes, 6000);
}

TEST(SyntheticTest, BodyNeverSmallerThanHeader) {
  Body body = EncodeSyntheticOp(SyntheticOp{}, 4);
  EXPECT_EQ(static_cast<int32_t>(body->size()), kSyntheticHeaderBytes);
}

TEST(SyntheticTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeSyntheticOp(nullptr).ok());
  EXPECT_FALSE(DecodeSyntheticOp(MakeBody({1, 2, 3})).ok());
}

TEST(SyntheticTest, ExecuteReturnsServiceTimeAndReply) {
  SyntheticService svc;
  SyntheticOp op;
  op.service_time = Micros(3);
  op.reply_bytes = 128;
  RpcRequest req(RequestId{1, 1}, R2p2Policy::kReplicatedReq, EncodeSyntheticOp(op, 24));
  ExecResult r = svc.Execute(req);
  EXPECT_EQ(r.service_time, Micros(3));
  ASSERT_NE(r.reply, nullptr);
  EXPECT_EQ(r.reply->size(), 128u);
  EXPECT_EQ(svc.ApplyCount(), 1u);
}

TEST(SyntheticTest, ReadOnlyDoesNotMutate) {
  SyntheticService svc;
  SyntheticOp op;
  op.service_time = Micros(1);
  op.reply_bytes = 8;
  RpcRequest ro(RequestId{1, 1}, R2p2Policy::kReplicatedReqRo, EncodeSyntheticOp(op, 24));
  const uint64_t digest_before = svc.Digest();
  svc.Execute(ro);
  EXPECT_EQ(svc.ApplyCount(), 0u);
  EXPECT_EQ(svc.Digest(), digest_before);
}

TEST(SyntheticTest, DigestIsOrderSensitive) {
  SyntheticService a;
  SyntheticService b;
  SyntheticOp op;
  op.reply_bytes = 8;
  RpcRequest r1(RequestId{1, 1}, R2p2Policy::kReplicatedReq, EncodeSyntheticOp(op, 24));
  RpcRequest r2(RequestId{1, 2}, R2p2Policy::kReplicatedReq, EncodeSyntheticOp(op, 24));
  a.Execute(r1);
  a.Execute(r2);
  b.Execute(r2);
  b.Execute(r1);
  EXPECT_NE(a.Digest(), b.Digest());
}

// ---------------------------------------------------------------------------
// YCSB-E generator
// ---------------------------------------------------------------------------

TEST(YcsbTest, MixMatchesConfiguredFractions) {
  YcsbEConfig config;
  config.conversation_count = 100;
  YcsbEGenerator gen(config);
  Rng rng(5);
  int scans = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const KvCommand cmd = gen.Next(rng);
    if (cmd.op == KvOpcode::kYScan) {
      ++scans;
      EXPECT_EQ(cmd.scan_limit, 10);
      EXPECT_TRUE(cmd.IsReadOnly());
    } else {
      EXPECT_EQ(cmd.op, KvOpcode::kYInsert);
      EXPECT_FALSE(cmd.IsReadOnly());
    }
  }
  EXPECT_NEAR(static_cast<double>(scans) / n, 0.95, 0.01);
}

TEST(YcsbTest, RecordsAre1KBWithTenFields) {
  YcsbEGenerator gen(YcsbEConfig{});
  Rng rng(6);
  const std::string record = gen.MakeRecord(rng);
  EXPECT_GE(record.size(), 1000u);
  size_t fields = 0;
  for (char c : record) {
    if (c == ';') {
      ++fields;
    }
  }
  EXPECT_EQ(fields, 10u);
}

TEST(YcsbTest, KeysStayInRange) {
  YcsbEConfig config;
  config.conversation_count = 50;
  YcsbEGenerator gen(config);
  Rng rng(7);
  std::set<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.insert(gen.Next(rng).key);
  }
  EXPECT_LE(keys.size(), 50u);
  EXPECT_GT(keys.size(), 20u);  // zipfian still touches many threads
}

TEST(YcsbTest, PopularityIsSkewed) {
  YcsbEConfig config;
  config.conversation_count = 1000;
  YcsbEGenerator gen(config);
  Rng rng(8);
  int hottest = 0;
  const int n = 20000;
  const std::string hot_key = YcsbEGenerator::ConversationKey(0);
  for (int i = 0; i < n; ++i) {
    if (gen.Next(rng).key == hot_key) {
      ++hottest;
    }
  }
  // Uniform share would be 20; zipfian gives the head far more.
  EXPECT_GT(hottest, 200);
}

TEST(YcsbTest, PreloadCoversAllConversations) {
  YcsbEConfig config;
  config.conversation_count = 20;
  config.preload_per_conversation = 3;
  YcsbEGenerator gen(config);
  Rng rng(9);
  size_t commands = 0;
  std::set<std::string> keys;
  for (const KvCommand& cmd : gen.PreloadCommands(rng)) {
    EXPECT_EQ(cmd.op, KvOpcode::kYInsert);
    keys.insert(cmd.key);
    ++commands;
  }
  EXPECT_EQ(commands, 60u);
  EXPECT_EQ(keys.size(), 20u);
}

// Golden values: the content of a preloaded store and the RNG state after
// the preload. Every replica and every seeded run depends on both.
TEST(YcsbTest, PreloadMatchesGoldenStoreAndRngState) {
  YcsbEConfig config;
  config.conversation_count = 64;
  config.preload_per_conversation = 5;
  Rng rng(21);
  KvService svc;
  size_t commands = 0;
  for (const KvCommand& cmd : YcsbEGenerator(config).PreloadCommands(rng)) {
    svc.Apply(cmd);
    ++commands;
  }
  EXPECT_EQ(commands, 320u);
  EXPECT_EQ(svc.store().ContentDigest(), 0x0a7d3e5d8d6a1174ull);
  EXPECT_EQ(rng.Next(), 0xb6a355595a066551ull);
}

TEST(YcsbTest, MakeRecordMatchesGolden) {
  YcsbEConfig config;
  config.record_fields = 12;  // two-digit field names
  config.field_bytes = 3;
  YcsbEGenerator gen(config);
  Rng rng(22);
  EXPECT_EQ(gen.MakeRecord(rng),
            "field0=zzz;field1=ddd;field2=ccc;field3=ddd;field4=aaa;field5=iii;field6=ddd;"
            "field7=nnn;field8=ppp;field9=lll;field10=yyy;field11=ppp;");
  EXPECT_EQ(gen.MakeRecord(rng),
            "field0=ggg;field1=ddd;field2=ddd;field3=bbb;field4=kkk;field5=kkk;field6=mmm;"
            "field7=rrr;field8=nnn;field9=xxx;field10=nnn;field11=www;");
  const std::string record = YcsbEGenerator(YcsbEConfig{}).MakeRecord(rng);
  EXPECT_EQ(record.size(), 1080u);
  EXPECT_EQ(Fnv1aHash(record), 0xaf84c2be3e0462a2ull);
}

}  // namespace
}  // namespace hovercraft
