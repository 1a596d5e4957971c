// Core scalar types shared by every module.
#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string_view>

namespace hovercraft {

// Virtual time in nanoseconds since simulation start.
using TimeNs = int64_t;

constexpr TimeNs kNanosPerMicro = 1'000;
constexpr TimeNs kNanosPerMilli = 1'000'000;
constexpr TimeNs kNanosPerSec = 1'000'000'000;

constexpr TimeNs Micros(int64_t us) { return us * kNanosPerMicro; }
constexpr TimeNs Millis(int64_t ms) { return ms * kNanosPerMilli; }
constexpr TimeNs Seconds(int64_t s) { return s * kNanosPerSec; }

// Identifies a host attached to the simulated network (servers, clients and
// in-network devices all get one). Dense, assigned by the topology builder.
using HostId = int32_t;
constexpr HostId kInvalidHost = -1;

// Identifies a member of the replication group (0..n-1). This is the Raft
// node id, distinct from its HostId.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

// Identifies one consensus group (shard) when several HovercRaft groups
// share a fabric (src/shard). Deliberately a distinct type from NodeId —
// node ids are group-local, group ids are fabric-global — so the two can
// never be mixed up in a signature.
struct GroupId {
  int32_t value = -1;
  constexpr bool valid() const { return value >= 0; }
  constexpr bool operator==(GroupId other) const { return value == other.value; }
  constexpr bool operator!=(GroupId other) const { return value != other.value; }
};
constexpr GroupId kInvalidGroup{-1};

// Raft log positions and terms. Log indices are 1-based; 0 means "none".
using LogIndex = uint64_t;
using Term = uint64_t;
constexpr LogIndex kNoLogIndex = 0;

// The four system configurations evaluated in the paper (section 7).
enum class ClusterMode {
  kUnreplicated,  // single server, no fault tolerance ("UnRep")
  kVanillaRaft,   // Raft over R2P2, full-payload replication ("VanillaRaft")
  kHovercRaft,    // replication/ordering split + load balancing
  kHovercRaftPP,  // HovercRaft + in-network aggregation
};

const char* ClusterModeName(ClusterMode mode);
// The command-line spelling, one of unrep|vanilla|hovercraft|hovercraft++,
// and its inverse (false for any other string).
const char* ClusterModeFlag(ClusterMode mode);
bool ParseClusterMode(std::string_view flag, ClusterMode* mode);

// Replier selection policy for load-balanced replies (paper sections 3.3/3.6).
enum class ReplierPolicy {
  kLeaderOnly,  // vanilla behaviour: the leader replies to everything
  kRandom,      // uniform choice among eligible (bounded-queue) nodes
  kJbsq,        // Join-Bounded-Shortest-Queue among eligible nodes
};

const char* ReplierPolicyName(ReplierPolicy policy);

}  // namespace hovercraft

#endif  // SRC_COMMON_TYPES_H_
