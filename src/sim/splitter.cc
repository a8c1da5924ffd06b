#include "sim/splitter.h"

#include <cassert>
#include <string>

namespace slb::sim {

Splitter::Splitter(Simulator* sim, obs::MetricsRegistry& metrics,
                   std::string_view prefix, SplitPolicy* policy,
                   std::vector<Channel*> channels, DurationNs send_overhead,
                   DurationNs source_interval,
                   const delivery::DeliveryConfig& delivery)
    : sim_(sim),
      policy_(policy),
      send_overhead_(send_overhead),
      channels_(std::move(channels)),
      core_(metrics, prefix, static_cast<int>(channels_.size()),
            delivery.mode, delivery.replay_buffer_bytes, source_interval),
      blocks_(metrics.counter(std::string(prefix) + "blocks")),
      block_ns_(metrics.histogram(std::string(prefix) + "block_ns")),
      rerouted_(metrics.counter(std::string(prefix) + "rerouted")) {
  assert(sim != nullptr);
  assert(policy != nullptr);
  assert(send_overhead > 0);  // zero would allow infinite same-instant sends
  for (std::size_t j = 0; j < channels_.size(); ++j) {
    channels_[j]->set_on_send_space(
        [this, j] { on_send_space(static_cast<int>(j)); });
  }
}

void Splitter::start() {
  // The source starts producing now, not at the epoch (matters when a
  // region joins a shared timeline late).
  core_.start(sim_->now());
  sim_->schedule_after(0, [this] { next_send(); });
}

void Splitter::set_input(Channel* input) {
  assert(input != nullptr);
  input_ = input;
  input_->set_on_recv_ready([this] {
    // New upstream data: resume if we were idle waiting for input (not
    // blocked on a full output channel — that wake-up comes separately).
    if (idle_for_input_) {
      idle_for_input_ = false;
      next_send();
    }
  });
}

void Splitter::on_ack(std::uint64_t cum) {
  if (!core_.on_ack(cum)) return;
  // A trimmed buffer may end a replay-full blocking episode — the same
  // wake-up a freed send buffer gives, charged the same way.
  if (blocked_on_ >= 0 && !full(blocked_on_)) do_send(end_block());
}

Splitter::ReplaySummary Splitter::quarantine(int j) {
  if (!core_.up(j)) return {};
  const ReplaySummary summary = core_.quarantine(j);
  if (blocked_on_ == j) {
    // Blocked on the connection that just died: charge the wait (the
    // real splitter's timed select returns with an error here) and move
    // on to a survivor immediately.
    end_block();
    sim_->schedule_after(0, [this] { next_send(); });
  }
  if (idle_for_input_ && core_.next_replay() != nullptr) {
    // Mid-pipeline splitter parked waiting for upstream data: the replay
    // queue is sendable without input, so resume.
    idle_for_input_ = false;
    sim_->schedule_after(0, [this] { next_send(); });
  }
  return summary;
}

void Splitter::readmit(int j) {
  if (core_.up(j)) return;
  core_.set_up(j, true);
  if (idle_no_channel_) {
    idle_no_channel_ = false;
    sim_->schedule_after(0, [this] { next_send(); });
  }
}

void Splitter::set_shed_watermarks(std::uint64_t high, std::uint64_t low) {
  shed_high_ = high;
  shed_low_ = low;
}

void Splitter::shed_backlog() {
  if (input_ != nullptr) return;
  // Drop the oldest backlog tuples — they have already waited longest and
  // in a streaming region stale data is the least valuable. Each one
  // consumes the sequence number it would have carried, so the merger's
  // gap accounting stays exact.
  const auto dropped =
      core_.shed_backlog(sim_->now(), shed_high_, shed_low_);
  if (dropped.count > 0 && on_shed_) on_shed_(dropped.first, dropped.count);
}

void Splitter::next_send() {
  assert(blocked_on_ < 0);
  // Crash replays outrank fresh tuples (the merger is gating on them)
  // and need no source input.
  if (core_.next_replay() == nullptr) {
    if (input_ != nullptr && input_->recv_empty()) {
      idle_for_input_ = true;  // wait for the upstream stage
      return;
    }
    shed_backlog();
  }
  const int picked = policy_->pick_connection();
  assert(picked >= 0 && picked < static_cast<int>(channels_.size()));
  const int j = core_.route(picked);
  if (j < 0) {
    // Total outage: park until a connection returns.
    idle_no_channel_ = true;
    return;
  }

  // A full replay buffer back-pressures exactly like a full send buffer:
  // the source blocks, the wait lands in j's blocking counter, and the
  // blocking-rate signal stays truthful (DESIGN.md §10).
  if (!full(j)) {
    do_send(j);
    return;
  }

  if (policy_->reroute_on_block()) {
    // Section 4.4 baseline: divert to any connection with buffer space.
    const int n = static_cast<int>(channels_.size());
    for (int step = 1; step < n; ++step) {
      const int k = (j + step) % n;
      if (core_.up(k) && !full(k)) {
        rerouted_.inc();
        do_send(k);
        return;
      }
    }
  }

  // Elect to block (Section 4.4: "we detect when a TCP send will block,
  // and then we block anyway, just making sure to record how long").
  blocked_on_ = j;
  block_start_ = sim_->now();
  blocks_.inc();
}

void Splitter::do_send(int j) {
  Tuple t;
  const auto* replay = core_.next_replay();
  const bool retransmit = replay != nullptr;
  if (retransmit) {
    // Crash replay: the sequence (and arrival stamp) survive — the sink
    // must not be able to tell a retransmission from the original.
    t = replay->payload;
  } else if (input_ != nullptr) {
    // Forwarded tuple: restamp the sequence, keep the original arrival
    // time so end-to-end latency survives region boundaries.
    t = input_->pop_recv();
    t.seq = core_.next_seq();
  } else {
    t.created = core_.arrival(sim_->now());
    t.seq = core_.next_seq();
  }
  core_.commit(j, t.seq, sizeof(Tuple), t, retransmit);
  channels_[static_cast<std::size_t>(j)]->push_send(t);
  // Pacing: the send keeps the splitter busy for `send_overhead_`
  // (stretched by the throttle), and the next fresh tuple also waits for
  // its open-loop release; a pending replay consumed no release and goes
  // as soon as the splitter is free.
  core_.paced(sim_->now(), sim_->now() + send_overhead_, !retransmit);
  sim_->schedule_at(core_.ready_at(core_.next_replay() == nullptr),
                    [this] { next_send(); });
}

void Splitter::on_send_space(int j) {
  // A full replay buffer keeps waiting on an ack to trim it.
  if (blocked_on_ == j && !full(j)) do_send(end_block());
}

int Splitter::end_block() {
  const int j = blocked_on_;
  const DurationNs waited = sim_->now() - block_start_;
  core_.charge_blocked(j, waited);
  block_ns_.record(static_cast<std::uint64_t>(waited));
  blocked_on_ = -1;
  return j;
}

}  // namespace slb::sim
