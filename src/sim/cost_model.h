// Calibration constants for the simulated testbed.
//
// The paper's cluster: Xeon servers with Intel x520 10 GbE NICs on DPDK,
// behind a 10 GbE cut-through switch, plus a Tofino ASIC for HovercRaft++.
// These constants model that hardware. They were calibrated so that the
// *shapes* of the paper's figures reproduce (see EXPERIMENTS.md):
//  - a kernel-bypass server sustains ~1M small RPCs/s per core,
//  - hardware RTT between two hosts is in the ~(5..10)us range,
//  - a 10G link caps ~200 kRPS with 6KB replies (Figure 10),
//  - replicating 512B payloads to 2 followers roughly halves VanillaRaft
//    throughput (Figure 8).
#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include <cstdint>

#include "src/common/types.h"

namespace hovercraft {

struct CostModel {
  // ---- Fabric ----
  // Link bandwidth in bits per second (10 GbE).
  static constexpr int64_t kLinkBandwidthBps = 10'000'000'000;
  // One-way host <-> switch propagation (cable + PHY + PCI/DMA), per hop.
  static constexpr TimeNs kLinkPropagationNs = 700;
  // Cut-through switch forwarding latency.
  static constexpr TimeNs kSwitchLatencyNs = 350;
  // Additional pipeline latency for packets that traverse the in-network
  // aggregator (it hangs off the main switch on its own link).
  static constexpr TimeNs kAggregatorLatencyNs = 450;
  // Ethernet MTU and the per-frame overhead (Ethernet + IP + UDP + R2P2).
  static constexpr int32_t kMtuPayloadBytes = 1436;  // 1500 - 64 framing
  static constexpr int32_t kFrameOverheadBytes = 64;

  // ---- Net-thread CPU (DPDK-style polling thread) ----
  // Fixed cost to receive / transmit one frame (descriptor handling, header
  // parse/build).
  static constexpr TimeNs kPerFrameRxNs = 110;
  static constexpr TimeNs kPerFrameTxNs = 110;
  // Receive-side cost per payload byte (parse/touch the arriving bytes).
  static constexpr double kPerByteRxNs = 0.5;
  // Transmit-side cost per payload byte. DPDK transmission is zero-copy
  // (descriptors point at the app buffer), so this is cheap — large replies
  // are NIC-bound, not CPU-bound (Figure 10).
  static constexpr double kPerByteTxNs = 0.25;
  // Raft bookkeeping per log entry appended or acked.
  static constexpr TimeNs kRaftEntryNs = 60;
  // Fixed cost to build or parse one append_entries message.
  static constexpr TimeNs kAeFixedNs = 140;
  // Marshalling cost per append_entries payload byte: the leader copies the
  // embedded client requests into the message and followers copy them out —
  // the CPU tax on VanillaRaft's full-payload replication (Figure 8).
  static constexpr double kAePayloadByteNs = 0.9;

  // ---- eRPC-style transport batching (off by default) ----
  // When enabled, small messages headed to the same destination are coalesced
  // into one physical frame: the sender queues them per link and flushes on a
  // doorbell (an event at the end of the current simulated instant when the
  // delay is 0, or after the bounded delay below), when the batch reaches
  // kTxBatchMaxMsgs, or when one more message would overflow the MTU
  // payload. The receiver pays the per-frame RX cost once for the whole
  // batch. Off by default: batching changes event interleavings, so pinned
  // trace expectations are recorded unbatched and the ablation flips this.
  bool tx_batching = false;
  // Doorbell delay: how long the first queued message may wait for company.
  // 0 still coalesces everything sent within the same simulated instant.
  TimeNs tx_batch_delay_ns = 0;
  // Cap on logical messages per batch frame.
  static constexpr int32_t kTxBatchMaxMsgs = 32;
  // Only messages at most this large are eligible (large messages fill
  // frames on their own; batching them would only add latency).
  static constexpr int32_t kTxBatchSmallBytes = 512;

  // Derived helpers -----------------------------------------------------
  static int32_t FramesFor(int32_t payload_bytes) {
    if (payload_bytes <= 0) {
      return 1;
    }
    return (payload_bytes + kMtuPayloadBytes - 1) / kMtuPayloadBytes;
  }

  static int64_t WireBytesFor(int32_t payload_bytes) {
    return static_cast<int64_t>(payload_bytes) +
           static_cast<int64_t>(FramesFor(payload_bytes)) * kFrameOverheadBytes;
  }

  // Time the NIC needs to put a message on the wire.
  static TimeNs SerializationDelay(int32_t payload_bytes) {
    const int64_t bits = WireBytesFor(payload_bytes) * 8;
    return bits * kNanosPerSec / kLinkBandwidthBps;
  }

  // Net-thread CPU to receive / transmit a message of `payload_bytes`.
  static TimeNs RxCpu(int32_t payload_bytes) {
    return kPerFrameRxNs * FramesFor(payload_bytes) +
           static_cast<TimeNs>(kPerByteRxNs * payload_bytes);
  }
  static TimeNs TxCpu(int32_t payload_bytes) {
    return kPerFrameTxNs * FramesFor(payload_bytes) +
           static_cast<TimeNs>(kPerByteTxNs * payload_bytes);
  }
};

}  // namespace hovercraft

#endif  // SRC_SIM_COST_MODEL_H_
