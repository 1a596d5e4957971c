#include "src/r2p2/serdes.h"

#include <utility>

#include "src/common/check.h"

namespace hovercraft {
namespace {

// seq is split across req_id (low 16 bits are the wire-visible id, as in
// real R2P2) and src_port (next 16 bits) so moderate wraps stay unambiguous.
constexpr uint64_t kSeqLowMask = 0xFFFFull;

void EncodeRequestExtension(const RpcRequest& request,
                            uint8_t (&ext)[kRequestExtensionBytes]) {
  for (size_t i = 0; i < 4; ++i) {
    ext[i] = static_cast<uint8_t>(request.attempt() >> (8 * i));
  }
  for (size_t i = 0; i < 8; ++i) {
    ext[4 + i] = static_cast<uint8_t>(request.ack_watermark() >> (8 * i));
  }
  for (size_t i = 0; i < 4; ++i) {
    ext[12 + i] = static_cast<uint8_t>(request.shard_slot() >> (8 * i));
  }
}

}  // namespace

WireHeader HeaderForRequest(const RequestId& rid, R2p2Policy policy, WireType type) {
  WireHeader h;
  h.type = type;
  h.policy = static_cast<uint8_t>(policy);
  h.req_id = static_cast<uint16_t>(rid.seq & kSeqLowMask);
  h.src_port = static_cast<uint16_t>((rid.seq >> 16) & kSeqLowMask);
  h.src_ip = static_cast<uint32_t>(rid.client);
  return h;
}

RequestId RequestIdFromHeader(const WireHeader& header) {
  RequestId rid;
  rid.client = static_cast<HostId>(header.src_ip);
  rid.seq = (static_cast<uint64_t>(header.src_port) << 16) | header.req_id;
  return rid;
}

void SerializeRequestInto(BufPool& pool, const RpcRequest& request, size_t mtu_payload,
                          std::vector<BufRef>& out) {
  const WireHeader h = HeaderForRequest(request.rid(), request.policy(), WireType::kRequest);
  uint8_t ext[kRequestExtensionBytes];
  EncodeRequestExtension(request, ext);
  const std::span<const uint8_t> body =
      request.body() == nullptr ? std::span<const uint8_t>() : request.body()->bytes();
  Fragment(pool, h, ext, body, mtu_payload, out);
}

void SerializeResponseInto(BufPool& pool, const RpcResponse& response, size_t mtu_payload,
                           std::vector<BufRef>& out) {
  const WireHeader h =
      HeaderForRequest(response.rid(), R2p2Policy::kUnrestricted, WireType::kResponse);
  const std::span<const uint8_t> body =
      response.body() == nullptr ? std::span<const uint8_t>() : response.body()->bytes();
  Fragment(pool, h, body, mtu_payload, out);
}

void SerializeFeedbackInto(BufPool& pool, const FeedbackMsg& feedback, std::vector<BufRef>& out) {
  const WireHeader h =
      HeaderForRequest(feedback.rid(), R2p2Policy::kUnrestricted, WireType::kFeedback);
  Fragment(pool, h, {}, kWireHeaderBytes, out);
}

void SerializeNackInto(BufPool& pool, const NackMsg& nack, std::vector<BufRef>& out) {
  const WireHeader h = HeaderForRequest(nack.rid(), R2p2Policy::kUnrestricted, WireType::kNack);
  Fragment(pool, h, {}, kWireHeaderBytes, out);
}

Result<R2p2MessageView> DecodeR2p2View(const Reassembler::Complete& complete) {
  R2p2MessageView out;
  out.type = complete.header.type;
  out.rid = RequestIdFromHeader(complete.header);
  switch (complete.header.type) {
    case WireType::kRequest: {
      if (complete.header.policy > static_cast<uint8_t>(R2p2Policy::kReplicatedReqRo)) {
        return InvalidArgumentError("bad policy on request");
      }
      if (complete.body.size() < kRequestExtensionBytes) {
        return InvalidArgumentError("request shorter than its fixed extension");
      }
      uint32_t attempt = 0;
      for (size_t i = 0; i < 4; ++i) {
        attempt |= static_cast<uint32_t>(complete.body[i]) << (8 * i);
      }
      uint64_t watermark = 0;
      for (size_t i = 0; i < 8; ++i) {
        watermark |= static_cast<uint64_t>(complete.body[4 + i]) << (8 * i);
      }
      uint32_t shard_slot = 0;
      for (size_t i = 0; i < 4; ++i) {
        shard_slot |= static_cast<uint32_t>(complete.body[12 + i]) << (8 * i);
      }
      if (attempt == 0) {
        return InvalidArgumentError("request attempt counter must start at 1");
      }
      out.policy = static_cast<R2p2Policy>(complete.header.policy);
      out.attempt = attempt;
      out.ack_watermark = watermark;
      out.shard_slot = shard_slot;
      // Zero-copy: the application body is a sub-slice of the arrival
      // buffer, sharing its refcount — the extension bytes are skipped by
      // offset, never stripped by copying.
      out.body = complete.body.Slice(kRequestExtensionBytes,
                                     complete.body.size() - kRequestExtensionBytes);
      return out;
    }
    case WireType::kResponse:
      out.body = complete.body;
      return out;
    case WireType::kFeedback:
    case WireType::kNack:
      return out;
    default:
      return InvalidArgumentError("unsupported wire type for R2P2 decode");
  }
}

}  // namespace hovercraft
