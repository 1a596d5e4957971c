#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/raft/unordered_store.h"

namespace hovercraft {
namespace {

std::shared_ptr<const RpcRequest> Req(HostId client, uint64_t seq) {
  return std::make_shared<RpcRequest>(RequestId{client, seq}, R2p2Policy::kReplicatedReq,
                                      MakeBody(std::vector<uint8_t>(24)));
}

TEST(UnorderedStoreTest, InsertLookupErase) {
  UnorderedStore store;
  EXPECT_TRUE(store.Insert(Req(1, 1), 0));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.Lookup(RequestId{1, 1}), nullptr);
  EXPECT_EQ(store.Lookup(RequestId{1, 2}), nullptr);
  EXPECT_TRUE(store.Erase(RequestId{1, 1}));
  EXPECT_FALSE(store.Erase(RequestId{1, 1}));
  EXPECT_TRUE(store.empty());
}

TEST(UnorderedStoreTest, DuplicateInsertRejected) {
  UnorderedStore store;
  EXPECT_TRUE(store.Insert(Req(1, 1), 0));
  EXPECT_FALSE(store.Insert(Req(1, 1), 5));
  EXPECT_EQ(store.size(), 1u);
}

TEST(UnorderedStoreTest, GarbageCollectByAge) {
  UnorderedStore store;
  store.Insert(Req(1, 1), 0);
  store.Insert(Req(1, 2), Millis(10));
  store.Insert(Req(1, 3), Millis(20));
  // TTL 15ms at t=20ms: only the first entry is old enough.
  EXPECT_EQ(store.GarbageCollect(Millis(20), Millis(15)), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Lookup(RequestId{1, 1}), nullptr);
  EXPECT_NE(store.Lookup(RequestId{1, 2}), nullptr);
  // Much later everything goes.
  EXPECT_EQ(store.GarbageCollect(Millis(100), Millis(15)), 2u);
  EXPECT_TRUE(store.empty());
}

TEST(UnorderedStoreTest, GcSkipsYoungAfterEraseInMiddle) {
  UnorderedStore store;
  store.Insert(Req(1, 1), 0);
  store.Insert(Req(1, 2), 0);
  store.Erase(RequestId{1, 1});
  EXPECT_EQ(store.GarbageCollect(Millis(100), Millis(15)), 1u);
  EXPECT_TRUE(store.empty());
}

TEST(UnorderedStoreTest, DrainPreservesInsertionOrder) {
  UnorderedStore store;
  store.Insert(Req(1, 3), 0);
  store.Insert(Req(1, 1), 1);
  store.Insert(Req(1, 2), 2);
  std::vector<uint64_t> order;
  store.Drain([&](std::shared_ptr<const RpcRequest> r) { order.push_back(r->rid().seq); });
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 1, 2}));
  EXPECT_TRUE(store.empty());
}

TEST(UnorderedStoreTest, DrainToleratesReentrantInsert) {
  UnorderedStore store;
  store.Insert(Req(1, 1), 0);
  store.Drain([&](std::shared_ptr<const RpcRequest>) {
    // A drained request being resubmitted can race with new arrivals.
    store.Insert(Req(2, 9), 5);
  });
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.Lookup(RequestId{2, 9}), nullptr);
}

}  // namespace
}  // namespace hovercraft
