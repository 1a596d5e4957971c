#include "src/common/types.h"

namespace hovercraft {

const char* ClusterModeName(ClusterMode mode) {
  switch (mode) {
    case ClusterMode::kUnreplicated:
      return "UnRep";
    case ClusterMode::kVanillaRaft:
      return "VanillaRaft";
    case ClusterMode::kHovercRaft:
      return "HovercRaft";
    case ClusterMode::kHovercRaftPP:
      return "HovercRaft++";
  }
  return "unknown";
}

const char* ClusterModeFlag(ClusterMode mode) {
  switch (mode) {
    case ClusterMode::kUnreplicated:
      return "unrep";
    case ClusterMode::kVanillaRaft:
      return "vanilla";
    case ClusterMode::kHovercRaft:
      return "hovercraft";
    case ClusterMode::kHovercRaftPP:
      return "hovercraft++";
  }
  return "unknown";
}

bool ParseClusterMode(std::string_view flag, ClusterMode* mode) {
  for (ClusterMode m : {ClusterMode::kUnreplicated, ClusterMode::kVanillaRaft,
                        ClusterMode::kHovercRaft, ClusterMode::kHovercRaftPP}) {
    if (flag == ClusterModeFlag(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

const char* ReplierPolicyName(ReplierPolicy policy) {
  switch (policy) {
    case ReplierPolicy::kLeaderOnly:
      return "LEADER";
    case ReplierPolicy::kRandom:
      return "RANDOM";
    case ReplierPolicy::kJbsq:
      return "JBSQ";
  }
  return "unknown";
}

}  // namespace hovercraft
