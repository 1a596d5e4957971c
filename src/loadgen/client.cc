#include "src/loadgen/client.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/flight_recorder.h"

namespace hovercraft {

ClientHost::ClientHost(Simulator* sim, const CostModel& costs, TargetFn target,
                       std::unique_ptr<Workload> workload, double rate_rps, uint64_t seed)
    : Host(sim, costs, Kind::kServer),
      target_(std::move(target)),
      workload_(std::move(workload)),
      rate_rps_(rate_rps),
      rng_(seed) {
  HC_CHECK(target_ != nullptr);
  HC_CHECK(workload_ != nullptr);
  HC_CHECK_GT(rate_rps, 0.0);
}

void ClientHost::StartLoad(TimeNs start, TimeNs stop) {
  HC_CHECK_GT(stop, start);
  stop_time_ = stop;
  running_ = true;
  // First arrival an exponential gap after `start` (stationary process).
  const TimeNs gap =
      static_cast<TimeNs>(rng_.NextExponential(1e9 / rate_rps_));
  sim()->At(start + gap, [this]() { SendOne(); });
}

void ClientHost::ScheduleNextArrival() {
  const TimeNs gap = static_cast<TimeNs>(rng_.NextExponential(1e9 / rate_rps_));
  const TimeNs next = sim()->Now() + gap;
  if (next >= stop_time_) {
    running_ = false;
    return;
  }
  sim()->At(next, [this]() { SendOne(); });
}

Addr ClientHost::ResolveTarget(const Pending& pending) {
  if (pending.unrestricted) {
    return unrestricted_targets_[rng_.NextBelow(unrestricted_targets_.size())];
  }
  if (shard_route_ != nullptr && IsDataSlot(pending.shard_slot)) {
    const ShardRoute route = shard_route_(pending.shard_slot);
    // Retries and post-redirect resends take the retry path (group
    // multicast), matching the unsharded bypass-the-middlebox semantics.
    return pending.attempts > 1 ? route.retry : route.ingress;
  }
  // Re-resolved per attempt: retries chase the current leader / retry path.
  if (retry_target_ != nullptr && pending.attempts > 1) {
    return retry_target_();
  }
  return target_();
}

void ClientHost::SendOne() {
  if (!running_ || sim()->Now() >= stop_time_) {
    running_ = false;
    return;
  }
  ScheduleNextArrival();

  if (outstanding_limit_ > 0 && outstanding_.size() >= outstanding_limit_) {
    // Abandon requests the client has given up on. Without retries this is
    // the only give-up path (retries abandon from their timer chain).
    const TimeNs now = sim()->Now();
    std::vector<uint64_t> expired;
    for (const auto& [seq, pending] : outstanding_) {
      if (pending.first_sent + give_up_ <= now) {
        expired.push_back(seq);
      }
    }
    for (uint64_t seq : expired) {
      Abandon(seq);
    }
    if (outstanding_.size() >= outstanding_limit_) {
      return;  // still saturated: shed this arrival
    }
  }

  Workload::Op op = workload_->Next(rng_);
  const uint64_t seq = next_seq_++;
  const RequestId rid{id(), seq};
  const bool unrestricted = op.unrestricted && !unrestricted_targets_.empty();
  const R2p2Policy policy =
      unrestricted ? R2p2Policy::kUnrestricted
                   : (op.read_only ? R2p2Policy::kReplicatedReqRo : R2p2Policy::kReplicatedReq);
  const TimeNs now = sim()->Now();
  Pending pending;
  pending.first_sent = now;
  pending.policy = policy;
  pending.body = std::move(op.body);
  pending.shard_slot = op.shard_slot;
  pending.unrestricted = unrestricted;
  const Addr dst = ResolveTarget(pending);
  auto request = MakeMessage<RpcRequest>(rid, policy, pending.body, /*attempt=*/1,
                                         ack_floor_, pending.shard_slot);
  outstanding_.emplace(seq, std::move(pending));
  ++total_sent_;
  if (InWindow(now)) {
    ++sent_in_window_;
  }
  if (observer_ != nullptr) {
    observer_->OnInvoke(id(), seq, policy, request->body(), now);
  }
  obs::MarkStage(sim(), rid, obs::Stage::kClientSend, kInvalidNode, now);
  Send(dst, std::move(request));
  if (retry_policy_.enabled) {
    ArmRetryTimer(seq, 1);
  }
}

TimeNs ClientHost::BackoffAfter(uint32_t attempt) {
  HC_CHECK_GE(attempt, 1u);
  double backoff = static_cast<double>(retry_policy_.initial_backoff);
  for (uint32_t i = 1; i < attempt; ++i) {
    backoff *= retry_policy_.multiplier;
    if (backoff >= static_cast<double>(retry_policy_.max_backoff)) {
      break;
    }
  }
  backoff = std::min(backoff, static_cast<double>(retry_policy_.max_backoff));
  const double jitter = retry_policy_.jitter;
  if (jitter > 0.0) {
    backoff *= 1.0 - jitter + 2.0 * jitter * rng_.NextDouble();
  }
  return std::max<TimeNs>(1, static_cast<TimeNs>(backoff));
}

void ClientHost::ArmRetryTimer(uint64_t seq, uint32_t attempt) {
  const EventId timer = sim()->After(BackoffAfter(attempt), [this, seq, attempt]() {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end() || it->second.attempts != attempt) {
      return;  // completed, abandoned, or superseded by a newer attempt
    }
    Pending& pending = it->second;
    const TimeNs now = sim()->Now();
    const bool attempts_exhausted = retry_policy_.max_attempts > 0 &&
                                    pending.attempts >= retry_policy_.max_attempts;
    const bool timed_out = give_up_ > 0 && now - pending.first_sent >= give_up_;
    if (attempts_exhausted || timed_out) {
      Abandon(seq);
      return;
    }
    ++pending.attempts;
    ++total_retransmits_;
    const RequestId rid{id(), seq};
    obs::MarkStage(sim(), rid, obs::Stage::kRetransmit, kInvalidNode, now);
    auto request = MakeMessage<RpcRequest>(rid, pending.policy, pending.body,
                                           pending.attempts, ack_floor_,
                                           pending.shard_slot);
    Send(ResolveTarget(pending), std::move(request));
    ArmRetryTimer(seq, pending.attempts);
  });
  auto it = outstanding_.find(seq);
  if (it != outstanding_.end()) {
    it->second.retry_timer = timer;
  }
}

void ClientHost::Abandon(uint64_t seq) {
  auto it = outstanding_.find(seq);
  HC_CHECK(it != outstanding_.end());
  sim()->Cancel(it->second.retry_timer);  // no-op when called from the timer itself
  // The operation stays unresolved (open in any observer's history) and its
  // sequence deliberately never advances the ack watermark: acknowledging it
  // would let the servers GC a session entry a stale retransmit could still
  // re-execute. A late reply resolves it exactly once.
  abandoned_.emplace(seq, it->second.first_sent);
  outstanding_.erase(it);
  ++total_abandoned_;
}

void ClientHost::ResolveForAck(uint64_t seq) {
  if (seq <= ack_floor_) {
    return;
  }
  resolved_above_floor_.insert(seq);
  while (!resolved_above_floor_.empty() &&
         *resolved_above_floor_.begin() == ack_floor_ + 1) {
    ++ack_floor_;
    resolved_above_floor_.erase(resolved_above_floor_.begin());
  }
}

void ClientHost::HandleMessage(HostId /*src*/, const MessagePtr& msg) {
  if (const auto* resp = As<RpcResponse>(*msg)) {
    const uint64_t seq = resp->rid().seq;
    auto it = outstanding_.find(seq);
    if (it != outstanding_.end()) {
      const Pending pending = std::move(it->second);
      outstanding_.erase(it);
      sim()->Cancel(pending.retry_timer);
      ++total_completed_;
      if (pending.attempts > 1) {
        ++completed_after_retry_;
        if (InWindow(pending.first_sent)) {
          ++recovered_in_window_;
        }
      }
      const TimeNs latency = sim()->Now() - pending.first_sent;
      if (InWindow(pending.first_sent)) {
        ++completed_in_window_;
        latencies_.Record(latency);
      }
      if (timeseries_ != nullptr) {
        timeseries_->Record(sim()->Now(), latency);
      }
      ResolveForAck(seq);
      obs::MarkStage(sim(), resp->rid(), obs::Stage::kComplete, kInvalidNode, sim()->Now());
      if (observer_ != nullptr) {
        observer_->OnComplete(id(), seq, resp->body(), sim()->Now());
      }
      return;
    }
    auto ab = abandoned_.find(seq);
    if (ab != abandoned_.end()) {
      // Late completion of an abandoned request: counted exactly once, never
      // resurrected into the outstanding set.
      const TimeNs first_sent = ab->second;
      abandoned_.erase(ab);
      ++total_completed_;
      ++late_completions_;
      const TimeNs latency = sim()->Now() - first_sent;
      if (InWindow(first_sent)) {
        ++completed_in_window_;
        latencies_.Record(latency);
      }
      if (timeseries_ != nullptr) {
        timeseries_->Record(sim()->Now(), latency);
      }
      ResolveForAck(seq);
      obs::MarkStage(sim(), resp->rid(), obs::Stage::kComplete, kInvalidNode, sim()->Now());
      if (observer_ != nullptr) {
        observer_->OnComplete(id(), seq, resp->body(), sim()->Now());
      }
      return;
    }
    return;  // duplicate reply (already completed) — suppressed
  }
  if (const auto* wrong = As<WrongShardNack>(*msg)) {
    auto it = outstanding_.find(wrong->rid().seq);
    if (it == outstanding_.end() || shard_route_ == nullptr) {
      return;  // already resolved, abandoned, or not a sharded client
    }
    Pending& pending = it->second;
    ++total_redirects_;
    if (pending.redirects >= kMaxImmediateRedirects) {
      // Stop chasing back-to-back; the retry timer armed by the last redirect
      // resend re-resolves the route at backoff pace (the slot is mid-move
      // and frozen everywhere).
      return;
    }
    ++pending.redirects;
    ++pending.attempts;
    sim()->Cancel(pending.retry_timer);
    const TimeNs now = sim()->Now();
    if (auto* fr = obs::FrOf(sim())) {
      fr->Note(now, kInvalidNode, "wrong-shard", wrong->rid().seq, pending.shard_slot);
    }
    // Refresh the map view (inside ResolveTarget) and resend at the new
    // owner. Still the same logical invocation: no observer event, and the
    // bumped attempt count marks the resend a retransmit server-side.
    const RequestId rid{id(), wrong->rid().seq};
    auto request = MakeMessage<RpcRequest>(rid, pending.policy, pending.body,
                                           pending.attempts, ack_floor_,
                                           pending.shard_slot);
    Send(ResolveTarget(pending), std::move(request));
    // Always armed, even with the retry policy disabled: a redirected request
    // has no other resend path, and past the immediate-redirect cap the
    // handler above relies on this timer — without it the operation would
    // hang outstanding forever. The policy's backoff fields have usable
    // defaults regardless of `enabled`.
    ArmRetryTimer(wrong->rid().seq, pending.attempts);
    return;
  }
  if (const auto* nack = As<NackMsg>(*msg)) {
    auto it = outstanding_.find(nack->rid().seq);
    if (it == outstanding_.end()) {
      return;
    }
    if (it->second.attempts > 1) {
      // A stale NACK from the first attempt racing a retransmission that
      // bypassed the middlebox: the retry may still succeed, keep waiting.
      return;
    }
    const TimeNs sent = it->second.first_sent;
    sim()->Cancel(it->second.retry_timer);
    outstanding_.erase(it);
    if (InWindow(sent)) {
      ++nacked_in_window_;
    }
    if (timeseries_ != nullptr) {
      timeseries_->Count(sim()->Now());
    }
    // A NACKed request was never admitted, so it can never execute: safe to
    // acknowledge for session-table GC.
    ResolveForAck(nack->rid().seq);
    if (observer_ != nullptr) {
      observer_->OnNack(id(), nack->rid().seq, sim()->Now());
    }
    return;
  }
}

void ClientHost::AccountLost(TimeNs penalty_ns) {
  for (const auto& [seq, pending] : outstanding_) {
    sim()->Cancel(pending.retry_timer);
    if (InWindow(pending.first_sent)) {
      ++lost_in_window_;
      latencies_.Record(penalty_ns);
    }
  }
  outstanding_.clear();
  for (const auto& [seq, first_sent] : abandoned_) {
    if (InWindow(first_sent)) {
      ++lost_in_window_;
      latencies_.Record(penalty_ns);
    }
  }
  abandoned_.clear();
}

}  // namespace hovercraft
