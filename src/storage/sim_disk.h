// Simulated durable media for one node.
//
// A SimDisk is a set of named byte files plus a flush engine. Writes land in
// the volatile tail of a file immediately; they only become durable when a
// sync barrier that covers them completes. The flush engine is a serial
// device: one sync is in flight at a time, each costing `sync_latency` (the
// node's RaftOptions::persist_latency) plus any injected stall, so
// sync-per-append queues while group commit coalesces. With a zero effective
// latency a sync completes inline — no simulator event is scheduled — which
// keeps the default persist_latency=0 configurations on exactly the event
// timeline they had before durability was modelled.
//
// Crashing the disk models power loss: the unsynced suffix of every file is
// discarded (torn mode keeps a partial prefix of it — a torn final record)
// and every pending sync callback dies with the process, so nothing can ack
// from the grave. FlipByte models media corruption of already-durable bytes.
//
// A file is an owned head plus an optional shared tail. WriteAndSync may hand
// over a large immutable suffix (a snapshot's application image) as an Image,
// a list of shared parts, which the file keeps by reference instead of
// copying. The tail is never written through: every mutation (Append,
// Truncate, FlipByte, a Crash that cuts into the file) first copies the
// surviving tail bytes into the head, so injected faults cannot reach any
// part's owner. Sizes, sync frontiers and reads cover both; a file's bytes
// are the head followed by the tail's parts in order.
//
// A disk built with `disk_faults` off (ServerConfig::disk_faults, for a
// deployment that never power-fails a node or corrupts its disk) keeps each
// file as a size and a durable watermark, with no bytes: writes, syncs and
// stats behave exactly as with contents, and Crash, FlipByte and the reads
// fail a CHECK, since there is nothing to read back.
#ifndef SRC_STORAGE_SIM_DISK_H_
#define SRC_STORAGE_SIM_DISK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/common/image.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace hovercraft {

struct SimDiskStats {
  uint64_t appends = 0;
  uint64_t bytes_written = 0;
  uint64_t syncs = 0;            // completed barriers (inline ones included)
  uint64_t coalesced = 0;        // barriers that piggybacked on a queued flush
  uint64_t crashes = 0;
  uint64_t bytes_lost = 0;       // unsynced bytes dropped by crashes
  uint64_t torn_crashes = 0;     // crashes that left a partial unsynced tail
  uint64_t flips = 0;            // injected corruption events
  uint64_t stall_ns = 0;         // total extra sync latency injected
};

class SimDisk {
 public:
  // Inline storage: a barrier callback costs no allocation.
  using SyncCallback = Simulator::Callback;

  SimDisk(Simulator* sim, uint64_t seed, TimeNs sync_latency, bool disk_faults = true)
      : sim_(sim), rng_(seed), sync_latency_(sync_latency), disk_faults_(disk_faults) {}
  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  // --- writes ---------------------------------------------------------------
  void Append(const std::string& file, const uint8_t* data, size_t len);
  // Sizes `file`'s buffer to hold `bytes` without regrowing, creating the file
  // empty when missing. Capacity only: contents and sizes are unchanged.
  void Reserve(const std::string& file, size_t bytes);
  // Truncates `file` to `size` bytes (clamping the durable watermark too).
  void Truncate(const std::string& file, size_t size);
  // Atomic replace-and-sync, the simulated write-to-temp + rename idiom used
  // for snapshot files: after the call the whole content, `head` followed by
  // `tail`, is durable. The tail's parts are kept by reference; they must be
  // heap blocks (BufferWriter::TakeBody, MakeBody), since a
  // slice of a pooled arrival buffer would pin that buffer.
  void WriteAndSync(const std::string& file, std::vector<uint8_t> head, Image tail = {});
  void Delete(const std::string& file);

  // --- durability -----------------------------------------------------------
  // Requests a whole-device barrier: everything written before the covering
  // flush *starts* is durable when `cb` runs. With `coalesce`, the request
  // piggybacks on an already-queued (not yet started) flush — group commit.
  // Returns true when the barrier completed inline (zero effective latency
  // and an idle device); `cb` has then already run.
  bool Sync(SyncCallback cb, bool coalesce);
  // Synchronous zero-cost barrier: marks everything written so far durable.
  // Used for rare off-data-path records (hard state, snapshot metadata) whose
  // latency the model deliberately does not price (docs/durability.md).
  void SyncNow();

  // --- faults (a disk built with disk_faults only) --------------------------
  // Power loss. Drops the unsynced suffix of every file and aborts pending
  // flush callbacks. In torn mode (one-shot, armed by the nemesis) a random
  // partial prefix of the unsynced tail survives — a torn final record.
  void Crash();
  void set_next_crash_torn() { next_crash_torn_ = true; }
  // Flips one bit of an already-written byte. Returns false when the file is
  // missing or shorter than `offset`.
  bool FlipByte(const std::string& file, size_t offset);
  // Gray-disk injection: every subsequent flush costs `extra` more.
  void set_stall(TimeNs extra) { stall_ = extra; }
  TimeNs stall() const { return stall_; }

  // --- reads ----------------------------------------------------------------
  // ReadBody and ReadView need a disk built with disk_faults; the others
  // answer from sizes alone.
  bool Exists(const std::string& file) const { return files_.count(file) != 0; }
  // The file's bytes in one flat buffer (a copy); empty when missing.
  Body ReadBody(const std::string& file) const;
  // The bytes of a file written only by Append (never by WriteAndSync), by
  // reference: valid until the next write to the file; empty when missing.
  std::span<const uint8_t> ReadView(const std::string& file) const;
  size_t Size(const std::string& file) const;
  size_t SyncedSize(const std::string& file) const;
  // Sorted names of the files whose name starts with `prefix`.
  std::vector<std::string> List(const std::string& prefix) const;

  const SimDiskStats& stats() const { return stats_; }
  Simulator* sim() const { return sim_; }
  // Barriers waiting for (or holding) the flush engine; the per-node
  // flush-queue depth sampler reads this.
  size_t queue_depth() const { return queue_.size(); }
  // Names the node this disk belongs to, scoping the fsync latency histogram
  // ("node3/storage.fsync_ns").
  void set_node(NodeId node);

 private:
  struct File {
    explicit File(bool keep) : keep_bytes(keep) {}

    bool keep_bytes;    // false: the file is `length` alone (disk_faults off)
    std::vector<uint8_t> head;
    Image tail;         // shared immutable suffix; empty when the file is flat
    size_t length = 0;  // the size of a file that keeps no bytes
    size_t synced = 0;  // durable watermark: bytes [0, synced) survive a crash

    size_t size() const { return keep_bytes ? head.size() + tail.size() : length; }
    void Append(const uint8_t* data, size_t len);
    void Reserve(size_t bytes);
    void Replace(std::vector<uint8_t> new_head, Image new_tail);
    // Copy-on-write: moves the tail's bytes into the head.
    void OwnTail();
    // Shortens the file to `len` bytes, copying only the kept tail bytes.
    void CutTo(size_t len);
  };
  // One queued barrier; the covered frontier is captured when the flush
  // starts (group-commit semantics), not when it was requested.
  struct FlushOp {
    TimeNs requested = 0;  // for the fsync latency histogram
    std::vector<SyncCallback> callbacks;
  };

  // Request-to-completion barrier latency (queueing included) into the
  // per-node "storage.fsync_ns" histogram; no-op without observability.
  void RecordFsyncLatency(TimeNs latency);

  // The file named `name`, created empty when missing.
  File& Open(const std::string& name);
  void StartNextFlush();
  void CompleteFlush();
  void FinishFront();
  void MarkAllSynced();

  Simulator* sim_;
  std::mt19937_64 rng_;
  TimeNs sync_latency_;
  bool disk_faults_;
  TimeNs stall_ = 0;
  bool next_crash_torn_ = false;
  NodeId node_ = kInvalidNode;
  std::string fsync_metric_;  // cached histogram name, built on first record

  std::map<std::string, File> files_;
  std::deque<FlushOp> queue_;
  bool flush_running_ = false;
  EventId flush_event_ = kInvalidEvent;
  // Frontier of the in-flight flush: file -> size captured at start.
  std::map<std::string, size_t> running_frontier_;

  SimDiskStats stats_;
};

}  // namespace hovercraft

#endif  // SRC_STORAGE_SIM_DISK_H_
