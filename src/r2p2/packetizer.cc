#include "src/r2p2/packetizer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/check.h"

namespace hovercraft {

void Fragment(BufPool& pool, const WireHeader& base, std::span<const uint8_t> ext,
              std::span<const uint8_t> body, size_t mtu_payload, std::vector<BufRef>& out) {
  HC_CHECK_GT(mtu_payload, 0u);
  out.clear();
  const size_t total = ext.size() + body.size();
  const size_t count = std::max<size_t>(1, (total + mtu_payload - 1) / mtu_payload);
  HC_CHECK_LE(count, 0xFFFFu);
  out.reserve(count);
  size_t offset = 0;  // logical offset into ext|body
  for (size_t i = 0; i < count; ++i) {
    const size_t len = std::min(mtu_payload, total - offset);
    WireHeader h = base;
    h.packet_id = static_cast<uint16_t>(i);
    h.first = (i == 0);
    h.last = (i == count - 1);
    h.packet_count = static_cast<uint16_t>(count);
    BufRef frame = pool.Allocate(kWireHeaderBytes + len);
    EncodeWireHeader(h, frame.writable());
    // Gather from the two logical segments straight into the frame: no
    // intermediate ext+body concatenation is ever materialized.
    uint8_t* dst = frame.data() + kWireHeaderBytes;
    size_t copied = 0;
    while (copied < len) {
      const size_t pos = offset + copied;
      if (pos < ext.size()) {
        const size_t n = std::min(len - copied, ext.size() - pos);
        std::memcpy(dst + copied, ext.data() + pos, n);
        copied += n;
      } else {
        const size_t n = len - copied;
        std::memcpy(dst + copied, body.data() + (pos - ext.size()), n);
        copied += n;
      }
    }
    frame.set_size(static_cast<uint32_t>(kWireHeaderBytes + len));
    out.push_back(std::move(frame));
    offset += len;
  }
}

// ---------------------------------------------------------------------------
// Reassembler
// ---------------------------------------------------------------------------

bool Reassembler::Partial::TestFragment(uint16_t id) const {
  const size_t word = id / 64;
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (word < 4) {
    return (bitmap[word] & bit) != 0;
  }
  const size_t spill = word - 4;
  return spill < bitmap_spill.size() && (bitmap_spill[spill] & bit) != 0;
}

void Reassembler::Partial::SetFragment(uint16_t id) {
  const size_t word = id / 64;
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (word < 4) {
    bitmap[word] |= bit;
    return;
  }
  const size_t spill = word - 4;
  if (spill >= bitmap_spill.size()) {
    bitmap_spill.resize(spill + 1, 0);
  }
  bitmap_spill[spill] |= bit;
}

bool Reassembler::Partial::HasFragmentAtOrAbove(uint16_t id) const {
  const size_t first_word = id / 64;
  const uint64_t head_mask = ~uint64_t{0} << (id % 64);
  for (size_t w = first_word; w < 4; ++w) {
    const uint64_t mask = w == first_word ? head_mask : ~uint64_t{0};
    if ((bitmap[w] & mask) != 0) {
      return true;
    }
  }
  for (size_t s = 0; s < bitmap_spill.size(); ++s) {
    const size_t w = s + 4;
    if (w < first_word) {
      continue;
    }
    const uint64_t mask = w == first_word ? head_mask : ~uint64_t{0};
    if ((bitmap_spill[s] & mask) != 0) {
      return true;
    }
  }
  return false;
}

void Reassembler::Partial::Reset() {
  first_header = WireHeader();
  key = Key{};
  older = newer = nullptr;
  created = 0;
  buf.reset();
  buf_used = 0;
  frag_size = 0;
  expected = 0;
  received = 0;
  have_first = false;
  have_last = false;
  last_id = 0;
  last_len = 0;
  std::fill(std::begin(bitmap), std::end(bitmap), 0);
  bitmap_spill.clear();
  staged_last.clear();
  staged_last_valid = false;
}

Reassembler::Reassembler(BufPool* pool) {
  if (pool == nullptr) {
    owned_pool_ = std::make_unique<BufPool>();
    pool_ = owned_pool_.get();
  } else {
    pool_ = pool;
  }
  // Reserve buckets up front so steady-state insert/extract churn through
  // the recycled-node free list never reallocates the bucket array.
  pending_.reserve(64);
}

Reassembler::~Reassembler() = default;

Result<bool> Reassembler::Feed(std::span<const uint8_t> packet, TimeNs now) {
  return FeedInternal(packet, nullptr, now);
}

Result<bool> Reassembler::Feed(const BufRef& frame, TimeNs now) {
  return FeedInternal(frame.bytes(), &frame, now);
}

Result<bool> Reassembler::FeedInternal(std::span<const uint8_t> packet, const BufRef* frame,
                                       TimeNs now) {
  Result<WireHeader> header = DecodeWireHeader(packet);
  if (!header.ok()) {
    return header.status();
  }
  const WireHeader& h = header.value();
  const std::span<const uint8_t> payload = packet.subspan(kWireHeaderBytes);

  if (h.first && h.packet_count == 0) {
    return InvalidArgumentError("FIRST fragment declares zero packets");
  }
  if (h.first && h.packet_id != 0) {
    return InvalidArgumentError("FIRST flag on nonzero fragment index");
  }
  const Key key{h.src_ip, h.src_port, h.req_id, static_cast<uint8_t>(h.type)};
  if (h.first && h.last) {
    if (h.packet_count != 1) {
      return InvalidArgumentError("FIRST|LAST fragment with packet_count != 1");
    }
    // A single-fragment message supersedes any partial buffered under the
    // same key (fragments of an earlier multi-fragment attempt): drop it so
    // later retransmits cannot combine into a spurious duplicate completion.
    // The empty() guard keeps the steady-state fast path free of hashing.
    if (!pending_.empty()) {
      auto stale = pending_.find(key);
      if (stale != pending_.end()) {
        Erase(stale);
      }
    }
    // Single-fragment fast path: never inserts into the pending map. Fed as
    // a pooled frame, the body is a refcounted slice of the frame itself
    // (zero memcpy); fed as a raw span, it is copied once into a pooled
    // buffer so the completed body is pool-backed either way.
    completed_.header = h;
    if (frame != nullptr) {
      completed_.body = Body::FromBuffer(*frame, kWireHeaderBytes, payload.size());
    } else {
      BufRef buf = pool_->Allocate(payload.size());
      if (!payload.empty()) {
        std::memcpy(buf.data(), payload.data(), payload.size());
      }
      buf.set_size(static_cast<uint32_t>(payload.size()));
      completed_.body = Body::FromBuffer(std::move(buf), 0, payload.size());
    }
    has_completed_ = true;
    return true;
  }
  if (!h.first && h.last && h.packet_id == 0) {
    return InvalidArgumentError("LAST fragment at index 0 missing FIRST flag");
  }

  auto it = pending_.find(key);
  if (it == pending_.end()) {
    it = Insert(key, now);
  }
  Partial& p = it->second;

  // Duplicate fragments are ignored. (This also catches a re-sent FIRST, so
  // past this point h.first implies the message identity is still fresh.)
  if (p.TestFragment(h.packet_id)) {
    return false;
  }
  if (h.last && p.have_last && h.packet_id != p.last_id) {
    return InvalidArgumentError("conflicting LAST fragments");
  }
  const uint16_t expected = p.expected != 0 ? p.expected : (h.first ? h.packet_count : 0);
  if (expected != 0) {
    if (h.packet_id >= expected) {
      return InvalidArgumentError("fragment index out of range");
    }
    if (h.last && h.packet_id != expected - 1) {
      return InvalidArgumentError("LAST flag on non-final fragment");
    }
    if (!h.last && h.packet_id == expected - 1) {
      return InvalidArgumentError("final fragment missing LAST flag");
    }
  }
  if (!h.last) {
    // Every non-final fragment carries exactly frag_size payload bytes; the
    // first one to arrive establishes it.
    if (payload.empty()) {
      return InvalidArgumentError("empty non-final fragment");
    }
    if (p.frag_size != 0 && payload.size() != p.frag_size) {
      return InvalidArgumentError("fragment size mismatch");
    }
  } else if (p.frag_size != 0 && payload.size() > p.frag_size) {
    return InvalidArgumentError("oversized final fragment");
  }
  if (h.first) {
    // FIRST just established the fragment count. Fragments that arrived
    // before it bypassed the range check above, so their bits (and received
    // counts) could otherwise complete a message with real fragments absent.
    // Any of them at or beyond the count — or a LAST anywhere but the final
    // index — means the buffered state is corrupt; drop all of it so a clean
    // retransmission round can rebuild the message.
    if (p.HasFragmentAtOrAbove(h.packet_count) ||
        (p.have_last && p.last_id != h.packet_count - 1)) {
      Erase(it);
      return InvalidArgumentError("pre-FIRST fragment inconsistent with packet count");
    }
  }

  // All validation passed: commit this fragment.
  p.SetFragment(h.packet_id);
  ++p.received;
  if (h.first) {
    p.have_first = true;
    p.first_header = h;
    p.expected = h.packet_count;
  }
  if (h.last) {
    p.have_last = true;
    p.last_id = h.packet_id;
    p.last_len = static_cast<uint32_t>(payload.size());
    if (p.frag_size == 0) {
      // Cold corner: the LAST fragment arrived before any full-size fragment
      // fixed the per-fragment stride, so its offset is still unknown. Stage
      // a copy; it is placed when the stride is established below.
      p.staged_last.assign(payload.begin(), payload.end());
      p.staged_last_valid = true;
    }
  }
  if (!h.last && p.frag_size == 0) {
    p.frag_size = static_cast<uint32_t>(payload.size());
    if (p.staged_last_valid && p.last_len > p.frag_size) {
      Erase(it);
      return InvalidArgumentError("oversized final fragment");
    }
  }
  if (p.frag_size != 0) {
    const size_t stride = p.frag_size;
    if (!h.last || !p.staged_last_valid) {
      const size_t offset = static_cast<size_t>(h.packet_id) * stride;
      const size_t needed = p.expected != 0 ? static_cast<size_t>(p.expected) * stride
                                            : offset + payload.size();
      EnsureCapacity(p, needed);
      if (!payload.empty()) {
        std::memcpy(p.buf.data() + offset, payload.data(), payload.size());
        p.buf_used = std::max(p.buf_used, static_cast<uint32_t>(offset + payload.size()));
      }
    }
    if (p.staged_last_valid) {
      const size_t offset = static_cast<size_t>(p.last_id) * stride;
      const size_t needed = p.expected != 0 ? static_cast<size_t>(p.expected) * stride
                                            : offset + p.staged_last.size();
      EnsureCapacity(p, needed);
      if (!p.staged_last.empty()) {
        std::memcpy(p.buf.data() + offset, p.staged_last.data(), p.staged_last.size());
        p.buf_used = std::max(p.buf_used, static_cast<uint32_t>(offset + p.staged_last.size()));
      }
      p.staged_last.clear();
      p.staged_last_valid = false;
    }
  }

  if (!p.have_first || !p.have_last || p.received < p.expected) {
    return false;
  }
  // Complete: the body is a refcounted slice of the single assembly buffer.
  const size_t body_len =
      static_cast<size_t>(p.expected - 1) * p.frag_size + p.last_len;
  if (!p.buf) {
    EnsureCapacity(p, body_len);
  }
  p.buf.set_size(static_cast<uint32_t>(body_len));
  completed_.header = p.first_header;
  completed_.body = Body::FromBuffer(p.buf, 0, body_len);
  has_completed_ = true;
  Erase(it);
  return true;
}

Reassembler::Map::iterator Reassembler::Insert(const Key& key, TimeNs now) {
  Map::iterator it;
  if (!free_nodes_.empty()) {
    auto node = std::move(free_nodes_.back());
    free_nodes_.pop_back();
    node.key() = key;
    it = pending_.insert(std::move(node)).position;
  } else {
    it = pending_.try_emplace(key).first;
  }
  Partial& p = it->second;
  p.key = key;
  p.created = now;
  p.older = newest_;
  p.newer = nullptr;
  if (newest_ != nullptr) {
    newest_->newer = &p;
  } else {
    oldest_ = &p;
  }
  newest_ = &p;
  return it;
}

void Reassembler::EnsureCapacity(Partial& partial, size_t needed) {
  if (!partial.buf) {
    partial.buf = pool_->Allocate(needed);
    return;
  }
  if (partial.buf.capacity() >= needed) {
    return;
  }
  // Cold path: fragments arrived before FIRST fixed the total, and a later
  // index outgrew the initial guess. Copy into a bigger pooled buffer — only
  // the bytes actually written, never the recycled slack beyond them.
  BufRef grown = pool_->Allocate(needed);
  if (partial.buf_used > 0) {
    std::memcpy(grown.data(), partial.buf.data(), partial.buf_used);
  }
  partial.buf = std::move(grown);
}

void Reassembler::Unlink(Partial& partial) {
  if (partial.older != nullptr) {
    partial.older->newer = partial.newer;
  }
  if (partial.newer != nullptr) {
    partial.newer->older = partial.older;
  }
  if (oldest_ == &partial) {
    oldest_ = partial.newer;
  }
  if (newest_ == &partial) {
    newest_ = partial.older;
  }
  partial.older = partial.newer = nullptr;
}

void Reassembler::Erase(Map::iterator it) {
  Unlink(it->second);
  auto node = pending_.extract(it);
  node.mapped().Reset();
  free_nodes_.push_back(std::move(node));
}

Reassembler::Complete Reassembler::TakeCompleted() {
  HC_CHECK(has_completed_);
  has_completed_ = false;
  Complete out = std::move(completed_);
  completed_ = Complete();
  return out;
}

size_t Reassembler::GarbageCollect(TimeNs now, TimeNs age) {
  size_t dropped = 0;
  while (oldest_ != nullptr && now - oldest_->created >= age) {
    auto it = pending_.find(oldest_->key);
    HC_CHECK(it != pending_.end());
    Erase(it);
    ++dropped;
  }
  return dropped;
}

}  // namespace hovercraft
