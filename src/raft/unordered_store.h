// The set of client requests received over multicast but not yet ordered
// (paper section 3.2). Indexed by the R2P2 identity 3-tuple; iterated in
// insertion order when a new leader drains it (section 5); garbage-collected
// by age so requests the leader never ordered do not accumulate.
#ifndef SRC_RAFT_UNORDERED_STORE_H_
#define SRC_RAFT_UNORDERED_STORE_H_

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "src/common/types.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/request_id.h"

namespace hovercraft {

class UnorderedStore {
 public:
  // Returns false if the request was already present (duplicate multicast).
  bool Insert(std::shared_ptr<const RpcRequest> request, TimeNs now);

  std::shared_ptr<const RpcRequest> Lookup(const RequestId& rid) const;

  bool Erase(const RequestId& rid);

  // Removes requests older than `ttl`; returns how many were dropped. Early
  // collection is safe — it only forces the recovery path (section 5).
  size_t GarbageCollect(TimeNs now, TimeNs ttl);

  // Calls `fn` for every request in insertion order and clears the store.
  // Used by a freshly elected leader to order orphaned requests.
  void Drain(const std::function<void(std::shared_ptr<const RpcRequest>)>& fn);

  // Discards everything. The unordered set is soft state: a crashed process
  // loses it, and the recovery path (section 5) re-fetches what the log
  // still needs.
  void Clear();

  size_t size() const { return by_rid_.size(); }
  bool empty() const { return by_rid_.empty(); }

 private:
  struct Item {
    std::shared_ptr<const RpcRequest> request;
    TimeNs inserted;
    std::list<RequestId>::iterator order_it;
  };

  std::unordered_map<RequestId, Item, RequestIdHash> by_rid_;
  std::list<RequestId> order_;  // oldest first
};

}  // namespace hovercraft

#endif  // SRC_RAFT_UNORDERED_STORE_H_
