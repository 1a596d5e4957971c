#include "src/raft/unordered_store.h"

#include <utility>
#include <vector>

namespace hovercraft {

bool UnorderedStore::Insert(std::shared_ptr<const RpcRequest> request, TimeNs now) {
  const RequestId rid = request->rid();
  auto [it, inserted] = by_rid_.try_emplace(rid);
  if (!inserted) {
    return false;
  }
  order_.push_back(rid);
  it->second.request = std::move(request);
  it->second.inserted = now;
  it->second.order_it = std::prev(order_.end());
  return true;
}

std::shared_ptr<const RpcRequest> UnorderedStore::Lookup(const RequestId& rid) const {
  auto it = by_rid_.find(rid);
  return it == by_rid_.end() ? nullptr : it->second.request;
}

bool UnorderedStore::Erase(const RequestId& rid) {
  auto it = by_rid_.find(rid);
  if (it == by_rid_.end()) {
    return false;
  }
  order_.erase(it->second.order_it);
  by_rid_.erase(it);
  return true;
}

size_t UnorderedStore::GarbageCollect(TimeNs now, TimeNs ttl) {
  size_t dropped = 0;
  while (!order_.empty()) {
    auto it = by_rid_.find(order_.front());
    if (it == by_rid_.end() || now - it->second.inserted < ttl) {
      break;
    }
    by_rid_.erase(it);
    order_.pop_front();
    ++dropped;
  }
  return dropped;
}

void UnorderedStore::Drain(const std::function<void(std::shared_ptr<const RpcRequest>)>& fn) {
  // Snapshot first: fn (SubmitRequest) may re-enter the store via Erase.
  std::vector<std::shared_ptr<const RpcRequest>> items;
  items.reserve(by_rid_.size());
  for (const RequestId& rid : order_) {
    auto it = by_rid_.find(rid);
    if (it != by_rid_.end()) {
      items.push_back(it->second.request);
    }
  }
  by_rid_.clear();
  order_.clear();
  for (auto& req : items) {
    fn(std::move(req));
  }
}

void UnorderedStore::Clear() {
  by_rid_.clear();
  order_.clear();
}

}  // namespace hovercraft
