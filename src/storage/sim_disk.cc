#include "src/storage/sim_disk.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/obs/observability.h"

namespace hovercraft {

void SimDisk::set_node(NodeId node) {
  node_ = node;
  fsync_metric_.clear();
}

void SimDisk::RecordFsyncLatency(TimeNs latency) {
  auto* o = obs::ObsOf(sim_);
  if (o == nullptr || node_ == kInvalidNode) {
    return;
  }
  if (fsync_metric_.empty()) {
    fsync_metric_ = obs::NodeScope(node_) + "storage.fsync_ns";
  }
  o->metrics().GetHistogram(fsync_metric_).Record(latency);
}

SimDisk::File& SimDisk::Open(const std::string& name) {
  return files_.try_emplace(name, disk_faults_).first->second;
}

void SimDisk::File::Append(const uint8_t* data, size_t len) {
  if (!keep_bytes) {
    length += len;
    return;
  }
  OwnTail();
  head.insert(head.end(), data, data + len);
}

void SimDisk::File::Reserve(size_t bytes) {
  if (keep_bytes) {
    head.reserve(bytes);
  }
}

void SimDisk::File::Replace(std::vector<uint8_t> new_head, Image new_tail) {
  if (!keep_bytes) {
    length = new_head.size() + new_tail.size();
    return;
  }
  head = std::move(new_head);
  tail = std::move(new_tail);
}

void SimDisk::File::OwnTail() {
  if (!tail.parts().empty()) {
    head.reserve(size());
    for (const Image::Part& part : tail.parts()) {
      head.insert(head.end(), part.bytes.begin(), part.bytes.end());
    }
    tail = Image();
  }
}

void SimDisk::File::CutTo(size_t len) {
  if (len >= size()) {
    return;
  }
  if (!keep_bytes) {
    length = len;
  } else if (len > head.size()) {
    head.reserve(len);
    for (const Image::Part& part : tail.parts()) {
      const size_t take = std::min(part.bytes.size(), len - head.size());
      head.insert(head.end(), part.bytes.begin(), part.bytes.begin() + take);
    }
  } else {
    head.resize(len);
  }
  tail = Image();
}

void SimDisk::Append(const std::string& file, const uint8_t* data, size_t len) {
  Open(file).Append(data, len);
  ++stats_.appends;
  stats_.bytes_written += len;
}

void SimDisk::Reserve(const std::string& file, size_t bytes) {
  Open(file).Reserve(bytes);
}

void SimDisk::Truncate(const std::string& file, size_t size) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return;
  }
  File& f = it->second;
  f.CutTo(size);
  f.synced = std::min(f.synced, f.size());
}

void SimDisk::WriteAndSync(const std::string& file, std::vector<uint8_t> head, Image tail) {
  File& f = Open(file);
  f.Replace(std::move(head), std::move(tail));
  f.synced = f.size();
  stats_.bytes_written += f.size();
  ++stats_.appends;
}

void SimDisk::Delete(const std::string& file) { files_.erase(file); }

bool SimDisk::Sync(SyncCallback cb, bool coalesce) {
  const TimeNs latency = sync_latency_ + stall_;
  if (latency == 0 && !flush_running_ && queue_.empty()) {
    // Fast path: an idle zero-latency device completes the barrier inline,
    // scheduling nothing — the persist_latency=0 timeline is untouched.
    MarkAllSynced();
    ++stats_.syncs;
    RecordFsyncLatency(0);
    if (cb) {
      cb();
    }
    return true;
  }
  // Group commit may only ride a flush that has NOT started yet: a running
  // flush captured its frontier at start and does not cover bytes appended
  // since. (The running op stays at queue_.front() until it completes, so
  // "an unstarted op exists" means the queue is deeper than the running one.)
  const bool unstarted_pending = queue_.size() > (flush_running_ ? 1u : 0u);
  if (coalesce && unstarted_pending) {
    ++stats_.coalesced;  // group commit: this barrier rides the queued flush
    if (cb) {
      queue_.back().callbacks.push_back(std::move(cb));
    }
  } else {
    FlushOp op;
    op.requested = sim_->Now();
    if (cb) {
      op.callbacks.push_back(std::move(cb));
    }
    queue_.push_back(std::move(op));
  }
  if (!flush_running_) {
    StartNextFlush();
  }
  return false;
}

void SimDisk::SyncNow() {
  MarkAllSynced();
  ++stats_.syncs;
  // Pending priced flushes keep running: their data is already durable, and
  // completing them early here would reorder ack timing relative to the
  // serial-device model.
}

void SimDisk::StartNextFlush() {
  HC_CHECK(!flush_running_);
  while (!queue_.empty()) {
    flush_running_ = true;
    running_frontier_.clear();
    for (const auto& [name, f] : files_) {
      running_frontier_[name] = f.size();
    }
    const TimeNs latency = sync_latency_ + stall_;
    stats_.stall_ns += static_cast<uint64_t>(stall_);
    if (latency > 0) {
      flush_event_ = sim_->After(latency, [this]() { CompleteFlush(); });
      return;
    }
    // Zero-latency queued op (reachable when a stall heals with ops queued,
    // or when callbacks enqueue while draining): complete inline.
    FinishFront();
    if (flush_running_) {
      return;  // a callback re-armed a priced flush
    }
  }
}

void SimDisk::CompleteFlush() {
  flush_event_ = kInvalidEvent;
  FinishFront();
  if (!flush_running_ && !queue_.empty()) {
    StartNextFlush();
  }
}

void SimDisk::FinishFront() {
  ++stats_.syncs;
  for (const auto& [name, size] : running_frontier_) {
    auto it = files_.find(name);
    if (it != files_.end()) {
      it->second.synced = std::max(it->second.synced, std::min(size, it->second.size()));
    }
  }
  running_frontier_.clear();
  HC_CHECK(!queue_.empty());
  FlushOp op = std::move(queue_.front());
  queue_.pop_front();
  flush_running_ = false;
  RecordFsyncLatency(sim_->Now() - op.requested);
  for (auto& cb : op.callbacks) {
    cb();
  }
}

void SimDisk::MarkAllSynced() {
  for (auto& [name, f] : files_) {
    f.synced = f.size();
  }
}

void SimDisk::Crash() {
  HC_CHECK(disk_faults_);
  ++stats_.crashes;
  const bool torn = next_crash_torn_;
  next_crash_torn_ = false;
  for (auto& [name, f] : files_) {
    size_t keep = f.synced;
    const size_t unsynced = f.size() - f.synced;
    if (torn && unsynced > 0) {
      // A torn write: a strict prefix of the unsynced tail made it to the
      // platter, cutting the final record(s) mid-byte-stream.
      keep += static_cast<size_t>(rng_() % unsynced);
      ++stats_.torn_crashes;
    }
    stats_.bytes_lost += f.size() - keep;
    f.CutTo(keep);
    f.synced = f.size();
  }
  // The process died: pending barriers and their callbacks die with it.
  queue_.clear();
  running_frontier_.clear();
  flush_running_ = false;
  if (flush_event_ != kInvalidEvent) {
    sim_->Cancel(flush_event_);
    flush_event_ = kInvalidEvent;
  }
}

bool SimDisk::FlipByte(const std::string& file, size_t offset) {
  HC_CHECK(disk_faults_);
  auto it = files_.find(file);
  if (it == files_.end() || offset >= it->second.size()) {
    return false;
  }
  it->second.OwnTail();
  it->second.head[offset] ^= 0x40;
  ++stats_.flips;
  return true;
}

Body SimDisk::ReadBody(const std::string& file) const {
  HC_CHECK(disk_faults_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Body::CopyOf({});
  }
  const File& f = it->second;
  BufferWriter bytes(f.size());
  bytes.PutBytes(f.head);
  f.tail.AppendTo(&bytes);
  return bytes.TakeBody();
}

std::span<const uint8_t> SimDisk::ReadView(const std::string& file) const {
  HC_CHECK(disk_faults_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return {};
  }
  HC_CHECK_EQ(it->second.tail.size(), 0u);
  return it->second.head;
}

size_t SimDisk::Size(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.size();
}

size_t SimDisk::SyncedSize(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.synced;
}

std::vector<std::string> SimDisk::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, f] : files_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(name);
    }
  }
  return out;  // std::map iteration order is already sorted
}

}  // namespace hovercraft
