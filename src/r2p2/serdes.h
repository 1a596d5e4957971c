// Serialization of R2P2 messages onto wire packets.
//
// Maps the typed message objects the simulator carries onto the exact R2P2
// packet layout (16-byte header + MTU-sized fragments). This is the path a
// DPDK deployment would use verbatim; the simulator skips it on the hot path
// but conformance tests and microbenches exercise it end-to-end so the wire
// format stays honest.
//
// Serialize*Into writes frames in place into slab-pooled buffers, and
// DecodeR2p2View decodes bodies as refcounted slices of the arrival buffer —
// allocation-free in steady state. serdes_test pins the bytes with golden
// vectors.
#ifndef SRC_R2P2_SERDES_H_
#define SRC_R2P2_SERDES_H_

#include <vector>

#include "src/common/buf_pool.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/packetizer.h"
#include "src/r2p2/wire.h"

namespace hovercraft {

// The R2P2 identity fields (src_ip, src_port, req_id) pack the simulator's
// (client HostId, sequence number) identity. The 16-bit wire req_id wraps;
// receivers distinguish concurrent requests by the full 3-tuple, which is
// what the paper relies on (sections 3.2, 5).
WireHeader HeaderForRequest(const RequestId& rid, R2p2Policy policy, WireType type);
RequestId RequestIdFromHeader(const WireHeader& header);

// Every kRequest carries a fixed extension between the R2P2 header and the
// application body: attempt counter (u32) + client ack watermark (u64) +
// shard slot (u32, kNoShardSlot when unsharded). The 16-byte header has no
// spare fields, so the retransmission / session-GC / shard-routing state
// rides as the first bytes of the fragmented payload.
constexpr size_t kRequestExtensionBytes = 16;

// Fragments a client request / response / control message: header +
// extension + payload are written in place into pooled frames appended to
// `out` (cleared first, capacity reused). The request extension is gathered
// into the frame directly — no intermediate buffer is built.
void SerializeRequestInto(BufPool& pool, const RpcRequest& request, size_t mtu_payload,
                          std::vector<BufRef>& out);
void SerializeResponseInto(BufPool& pool, const RpcResponse& response, size_t mtu_payload,
                           std::vector<BufRef>& out);
void SerializeFeedbackInto(BufPool& pool, const FeedbackMsg& feedback, std::vector<BufRef>& out);
void SerializeNackInto(BufPool& pool, const NackMsg& nack, std::vector<BufRef>& out);

// Zero-allocation decode: a plain value struct whose body is a refcounted
// slice of the reassembled arrival buffer (no copy, no shared_ptr control
// block). The slice pins the underlying pooled buffer; the pool must outlive
// it (see BufPool ownership rules).
struct R2p2MessageView {
  WireType type = WireType::kRequest;
  RequestId rid;
  R2p2Policy policy = R2p2Policy::kUnrestricted;
  uint32_t attempt = 0;        // kRequest only
  uint64_t ack_watermark = 0;  // kRequest only
  uint32_t shard_slot = kNoShardSlot;  // kRequest only
  Body body;                   // null for FEEDBACK/NACK
};

Result<R2p2MessageView> DecodeR2p2View(const Reassembler::Complete& complete);

}  // namespace hovercraft

#endif  // SRC_R2P2_SERDES_H_
