// Byte codec between LogEntry and the opaque WAL entry payload the storage
// layer persists (src/storage/stable_storage.h). Term and replier live in the
// record envelope, not here; everything else a restarted node needs to
// reconstruct the entry — rid, flags, body hash, ack watermark, the request
// payload itself, and any membership config — is encoded by this codec.
#ifndef SRC_RAFT_WAL_CODEC_H_
#define SRC_RAFT_WAL_CODEC_H_

#include <span>

#include "src/common/buffer.h"
#include "src/raft/log.h"
#include "src/raft/membership.h"

namespace hovercraft {

// Serializes everything of `entry` except term and replier, plus the
// membership `config` it carries (RaftNode::ConfigAt; null for most entries).
Body EncodeWalEntry(const LogEntry& entry, const MembershipConfig* config = nullptr);

// Inverse of EncodeWalEntry; leaves out->term and out->replier untouched and
// sets *config to the entry's config (null when it carries none). Returns
// false on a malformed payload (recovery treats that like a CRC failure at a
// higher layer — it should not happen for CRC-valid records).
bool DecodeWalEntry(std::span<const uint8_t> bytes, LogEntry* out, MembershipConfigPtr* config);

// Membership config codec, shared with the server snapshot blob.
void EncodeConfig(const MembershipConfig& config, BufferWriter* w);
MembershipConfigPtr DecodeConfig(BufferReader* r);  // null on malformed input

}  // namespace hovercraft

#endif  // SRC_RAFT_WAL_CODEC_H_
