// Fragmentation and reassembly of R2P2 messages across MTU-sized packets.
//
// R2P2 sends a message as a REQ0 packet (header + first payload slice)
// followed by REQN packets. The reassembler tolerates out-of-order and
// duplicated fragments, and garbage-collects incomplete messages after a
// timeout — the behaviour HovercRaft's multicast recovery relies on.
//
// The fast path is zero-copy and allocation-free in steady state: Fragment
// writes header + payload in place into slab-pooled frames, the reassembler
// assembles into a single pooled buffer tracked by a fragment bitmap (a
// single-fragment frame fed as a BufRef completes with zero memcpy), and the
// completed body is a refcounted slice of that buffer. Partial-message map
// nodes are recycled through a free list, and garbage collection walks a
// creation-ordered list so it only ever touches the expired prefix.
#ifndef SRC_R2P2_PACKETIZER_H_
#define SRC_R2P2_PACKETIZER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/buf_pool.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/wire.h"

namespace hovercraft {

// Splits a payload into frames of at most `mtu_payload` payload bytes each,
// writing header + payload in place into pooled frames drawn from `pool` and
// appending them to `out` (cleared first; its capacity is reused, so steady
// state allocates nothing). A zero-length payload still yields one
// (FIRST|LAST) frame. The payload is the concatenation of `ext` and `body` —
// serdes uses the extension span for the request prefix without
// materializing an intermediate buffer.
void Fragment(BufPool& pool, const WireHeader& base, std::span<const uint8_t> ext,
              std::span<const uint8_t> body, size_t mtu_payload, std::vector<BufRef>& out);
inline void Fragment(BufPool& pool, const WireHeader& base, std::span<const uint8_t> body,
                     size_t mtu_payload, std::vector<BufRef>& out) {
  Fragment(pool, base, {}, body, mtu_payload, out);
}

class Reassembler {
 public:
  // Frames assemble into buffers drawn from `pool`; with the default, the
  // reassembler owns a private pool. Completed bodies are refcounted slices
  // of those buffers, so the pool (and therefore a reassembler-owned pool)
  // must outlive every escaped body — pass an external pool when bodies
  // outlive the reassembler.
  explicit Reassembler(BufPool* pool = nullptr);
  ~Reassembler();
  Reassembler(const Reassembler&) = delete;
  Reassembler& operator=(const Reassembler&) = delete;

  struct Complete {
    WireHeader header;  // header of the FIRST fragment
    Body body;          // refcounted slice of the assembled buffer
  };

  // Feeds one packet given as raw bytes — the entry point for bytes from
  // outside the pool, which the wire fuzzers drive. Returns true when the
  // last missing fragment arrives (TakeCompleted then yields the message),
  // false otherwise, or an error for malformed input.
  Result<bool> Feed(std::span<const uint8_t> packet, TimeNs now);
  // Zero-copy variant: a single-fragment frame completes as a slice of
  // `frame` itself, with no memcpy.
  Result<bool> Feed(const BufRef& frame, TimeNs now);

  // Retrieves and removes the completed message, if Feed returned true.
  Complete TakeCompleted();

  // Drops partial messages older than `age`. Returns how many were dropped.
  // Walks the creation-ordered list from the oldest entry and stops at the
  // first young one: completed (already-erased) entries are never scanned.
  size_t GarbageCollect(TimeNs now, TimeNs age);

  size_t pending() const { return pending_.size(); }
  BufPool& pool() { return *pool_; }

 private:
  struct Key {
    uint32_t src_ip;
    uint16_t src_port;
    uint16_t req_id;
    uint8_t type;
    friend bool operator==(const Key& a, const Key& b) {
      return a.src_ip == b.src_ip && a.src_port == b.src_port && a.req_id == b.req_id &&
             a.type == b.type;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t x = (static_cast<uint64_t>(k.src_ip) << 32) |
                   (static_cast<uint64_t>(k.src_port) << 16) | k.req_id;
      x ^= static_cast<uint64_t>(k.type) << 56;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };
  struct Partial {
    WireHeader first_header;
    Key key{};                     // self key, for O(1) erase from the GC list
    Partial* older = nullptr;      // creation-ordered intrusive list
    Partial* newer = nullptr;
    TimeNs created = 0;
    BufRef buf;                    // single assembly buffer
    uint32_t buf_used = 0;         // high-water mark of bytes written to buf
    uint32_t frag_size = 0;        // payload bytes of each non-final fragment
    uint16_t expected = 0;         // packet_count from FIRST; 0 until seen
    uint16_t received = 0;         // distinct fragments placed
    bool have_first = false;
    bool have_last = false;
    uint16_t last_id = 0;
    uint32_t last_len = 0;
    uint64_t bitmap[4] = {};             // fragment-received bits, ids < 256
    std::vector<uint64_t> bitmap_spill;  // ids >= 256 (jumbo messages)
    std::vector<uint8_t> staged_last;    // LAST payload seen before frag_size known
    bool staged_last_valid = false;

    bool TestFragment(uint16_t id) const;
    void SetFragment(uint16_t id);
    // True if any received-fragment bit at index >= id is set.
    bool HasFragmentAtOrAbove(uint16_t id) const;
    void Reset();
  };
  using Map = std::unordered_map<Key, Partial, KeyHash>;

  Result<bool> FeedInternal(std::span<const uint8_t> packet, const BufRef* frame, TimeNs now);
  Map::iterator Insert(const Key& key, TimeNs now);
  void EnsureCapacity(Partial& partial, size_t needed);
  void Erase(Map::iterator it);
  void Unlink(Partial& partial);

  // Owned fallback pool; declared before every member that can hold BufRefs
  // so it is destroyed after them (the pool's leak check runs last).
  std::unique_ptr<BufPool> owned_pool_;
  BufPool* pool_ = nullptr;
  Map pending_;
  // Recycled map nodes: erase extracts onto this free list, insertion reuses
  // it, so steady-state feed/complete churn performs no allocations.
  std::vector<Map::node_type> free_nodes_;
  // Creation-ordered GC list (oldest first) threaded through the map nodes.
  Partial* oldest_ = nullptr;
  Partial* newest_ = nullptr;
  bool has_completed_ = false;
  Complete completed_;
};

}  // namespace hovercraft

#endif  // SRC_R2P2_PACKETIZER_H_
