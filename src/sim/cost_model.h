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
  int64_t link_bandwidth_bps = 10'000'000'000;
  // One-way host <-> switch propagation (cable + PHY + PCI/DMA), per hop.
  TimeNs link_propagation_ns = 700;
  // Cut-through switch forwarding latency.
  TimeNs switch_latency_ns = 350;
  // Additional pipeline latency for packets that traverse the in-network
  // aggregator (it hangs off the main switch on its own link).
  TimeNs aggregator_latency_ns = 450;
  // Ethernet MTU and the per-frame overhead (Ethernet + IP + UDP + R2P2).
  int32_t mtu_payload_bytes = 1436;  // 1500 - 64 framing
  int32_t frame_overhead_bytes = 64;

  // ---- Net-thread CPU (DPDK-style polling thread) ----
  // Fixed cost to receive / transmit one frame (descriptor handling, header
  // parse/build).
  TimeNs per_frame_rx_ns = 110;
  TimeNs per_frame_tx_ns = 110;
  // Receive-side cost per payload byte (parse/touch the arriving bytes).
  double per_byte_rx_ns = 0.5;
  // Transmit-side cost per payload byte. DPDK transmission is zero-copy
  // (descriptors point at the app buffer), so this is cheap — large replies
  // are NIC-bound, not CPU-bound (Figure 10).
  double per_byte_tx_ns = 0.25;
  // Raft bookkeeping per log entry appended or acked.
  TimeNs raft_entry_ns = 60;
  // Fixed cost to build or parse one append_entries message.
  TimeNs ae_fixed_ns = 140;
  // Marshalling cost per append_entries payload byte: the leader copies the
  // embedded client requests into the message and followers copy them out —
  // the CPU tax on VanillaRaft's full-payload replication (Figure 8).
  double ae_payload_byte_ns = 0.9;

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
  int32_t FramesFor(int32_t payload_bytes) const {
    if (payload_bytes <= 0) {
      return 1;
    }
    return (payload_bytes + mtu_payload_bytes - 1) / mtu_payload_bytes;
  }

  int64_t WireBytesFor(int32_t payload_bytes) const {
    return static_cast<int64_t>(payload_bytes) +
           static_cast<int64_t>(FramesFor(payload_bytes)) * frame_overhead_bytes;
  }

  // Time the NIC needs to put a message on the wire.
  TimeNs SerializationDelay(int32_t payload_bytes) const {
    const int64_t bits = WireBytesFor(payload_bytes) * 8;
    return bits * kNanosPerSec / link_bandwidth_bps;
  }

  // Net-thread CPU to receive / transmit a message of `payload_bytes`.
  TimeNs RxCpu(int32_t payload_bytes) const {
    return per_frame_rx_ns * FramesFor(payload_bytes) +
           static_cast<TimeNs>(per_byte_rx_ns * payload_bytes);
  }
  TimeNs TxCpu(int32_t payload_bytes) const {
    return per_frame_tx_ns * FramesFor(payload_bytes) +
           static_cast<TimeNs>(per_byte_tx_ns * payload_bytes);
  }
};

}  // namespace hovercraft

#endif  // SRC_SIM_COST_MODEL_H_
