// The simulated splitter: a single thread of control distributing tuples
// over per-worker connections (paper Sections 2–4).
//
// The single-threadedness is load-bearing: because one control flow sends
// to all connections, blocking on one connection gives every other
// connection slack — the origin of the *drafting* phenomenon (Section
// 4.2). The splitter here is a state machine driven by simulator events:
//
//   * every `send_overhead` ns it asks its SplitPolicy for a target and
//     pushes one tuple (closed-loop source: tuples are always available,
//     matching the paper's throughput-bound experiments);
//   * when the chosen connection's send buffer is full it BLOCKS — and
//     records exactly how long, charged to that connection in the
//     delivery core (the paper's MSG_DONTWAIT + timed select, Section 3);
//   * if the policy enables transport-level re-routing (Section 4.4's
//     failed baseline) it instead scans for any connection with space and
//     only blocks when all are full.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/policies.h"
#include "delivery/delivery.h"
#include "delivery/send_core.h"
#include "obs/metrics.h"
#include "sim/channel.h"
#include "sim/event.h"
#include "sim/tuple.h"
#include "util/time.h"

namespace slb::sim {

/// Registry handles for the splitter's hot-path events (DESIGN.md §8).
/// All pointers optional; a null member disables that metric. The
/// pointed-to registry must outlive the splitter.
struct SplitterMetrics {
  obs::Counter* sent = nullptr;       // tuples pushed to any channel
  obs::Counter* blocks = nullptr;     // distinct blocking episodes
  obs::Histogram* block_ns = nullptr; // per-episode blocked duration
  obs::Counter* failovers = nullptr;  // diverted off quarantined channels
  obs::Counter* rerouted = nullptr;   // Section 4.4 block-time diversions
  obs::Counter* shed = nullptr;       // source tuples dropped by watermarks
  obs::Counter* retransmits = nullptr;  // replayed sends (at-least-once)
  obs::Gauge* replay_bytes = nullptr;   // bytes held across replay buffers
  obs::Gauge* ack_lag = nullptr;        // next_seq - cumulative ack
};

class Splitter {
 public:
  /// @param source_interval mean inter-arrival gap of the upstream tuple
  ///   source: 0 = closed loop (a tuple is always ready — the paper's
  ///   throughput-bound experiments); > 0 = open loop at rate
  ///   1/source_interval, with arrears bursting out after blocking, like
  ///   a real upstream stage's queue. Throws std::invalid_argument when
  ///   negative.
  Splitter(Simulator* sim, SplitPolicy* policy, DurationNs send_overhead,
           DurationNs source_interval = 0);

  /// Connects the splitter to its channels and builds its delivery core
  /// in `delivery`'s mode. At-least-once holds every sent tuple in its
  /// channel's byte-capped replay buffer until acked, accounted at
  /// sizeof(Tuple) bytes (the sim has no wire encoding). Must be called
  /// once before start().
  void wire(std::vector<Channel*> channels,
            const delivery::DeliveryConfig& delivery = {});

  /// Mid-pipeline mode: instead of generating tuples (closed loop /
  /// paced source), the splitter forwards tuples arriving on `input`,
  /// restamping their sequence numbers in arrival order (which preserves
  /// end-to-end order through the region's merger). Call before start().
  void set_input(Channel* input);

  /// Schedules the first send at the current time.
  void start();

  /// Failure handling: marks connection j dead (quarantined) or alive
  /// again. A quarantined connection is never routed to; a splitter
  /// blocked on it is released immediately (the wait is charged to j,
  /// exactly like a normal un-block). If every connection is down the
  /// splitter idles until one comes back.
  void set_channel_up(int j, bool up);

  std::uint64_t total_sent() const { return core_.total_sent(); }
  std::uint64_t sent(int j) const { return core_.sent(j); }
  /// Tuples diverted by the Section 4.4 re-routing baseline.
  std::uint64_t rerouted() const { return rerouted_; }
  /// Tuples diverted because their picked connection was quarantined.
  std::uint64_t failovers() const { return core_.failovers(); }
  /// Number of distinct blocking episodes per connection.
  std::uint64_t blocks(int j) const {
    return blocks_[static_cast<std::size_t>(j)];
  }
  bool blocked() const { return blocked_on_ >= 0; }
  int blocked_on() const { return blocked_on_; }
  /// Cumulative blocked ns per connection: the paper's blocking counters
  /// (Section 3), read in place by the region's control loop.
  std::span<const DurationNs> blocked_ns() const {
    return core_.blocked_ns();
  }

  /// Open-loop sources only: how many released-but-unsent tuples are
  /// queued at the source right now (0 for closed-loop sources). A
  /// growing backlog means the region cannot sustain the offered rate.
  std::uint64_t source_backlog(TimeNs now) const { return core_.backlog(now); }

  /// Admission control (closed-loop sources): scales the source's tuple
  /// rate to `factor` (in (0, 1]) of full speed by stretching the per-send
  /// overhead. 1.0 restores full speed. No effect on open-loop release
  /// times — an external source cannot be slowed down, only shed — nor on
  /// an input-fed splitter, which is not a source.
  void set_throttle(double factor) {
    if (input_ == nullptr) core_.set_throttle(factor);
  }
  double throttle() const { return core_.throttle(); }

  /// Load shedding (open-loop sources): when the source backlog reaches
  /// `high`, drop backlog tuples (oldest first) until it is back at `low`.
  /// Every shed tuple still consumes a sequence number; each shedding
  /// step reports its range through `on_shed`, so the ordered merger can
  /// account it as gaps and `emitted + gaps == sent + shed` stays an
  /// invariant. `high == 0` disables shedding; a `low` at or above `high`
  /// sheds only a backlog above both (SendCore::shed_backlog).
  void set_shed_watermarks(std::uint64_t high, std::uint64_t low);
  void set_on_shed(
      std::function<void(std::uint64_t first, std::uint64_t count)> fn) {
    on_shed_ = std::move(fn);
  }
  /// Total tuples shed at the source so far.
  std::uint64_t shed() const { return core_.shed(); }

  /// Observability: attach registry handles (see SplitterMetrics). The
  /// splitter keeps updating its own counters either way; metrics are a
  /// parallel, thread-safe view for exporters.
  void set_metrics(const SplitterMetrics& metrics) { metrics_ = metrics; }

  // --- At-least-once delivery (DESIGN.md §10) --------------------------

  /// Cumulative ack from the merger: every sequence below `cum` has been
  /// released. Trims the replay buffers, drops pending replays that
  /// released meanwhile, and — if the splitter was blocked on a channel
  /// whose replay buffer just drained — resumes it.
  void on_ack(std::uint64_t cum);

  using ReplaySummary = delivery::SendCore<Tuple>::Replay;

  /// Crash recovery: moves channel j's unacked suffix into the pending
  /// replay queue, drained (oldest sequence first) before fresh source
  /// tuples through the normal pick path — so retransmits respect the
  /// current RAP weights via the same WRR as everything else.
  ReplaySummary replay_channel(int j);

  /// Tuples re-sent after crash replay. Disjoint from total_sent():
  /// sent counters track fresh sequences only, so the throughput signal
  /// and per-channel signatures are unchanged by retransmission.
  std::uint64_t retransmits() const { return core_.retransmits(); }
  /// Highest cumulative ack seen from the merger.
  std::uint64_t acked() const { return core_.acked(); }
  /// Tuples held for replay: buffered unacked + pending re-send.
  std::uint64_t unacked() const { return core_.unacked(); }
  /// Bytes held across all replay buffers.
  std::size_t replay_bytes() const { return core_.replay_bytes(); }

 private:
  void next_send();
  void do_send(int j);
  void on_send_space(int j);
  void shed_backlog();
  /// True when channel j's send or replay buffer cannot take a tuple.
  bool full(int j) const {
    return channels_[static_cast<std::size_t>(j)]->send_full() ||
           !core_.admits(j, sizeof(Tuple));
  }
  /// Ends the current blocking episode, charging its wait to channel
  /// `blocked_on_`, and returns that channel.
  int end_block();
  void update_delivery_gauges();

  Simulator* sim_;
  SplitPolicy* policy_;
  DurationNs send_overhead_;
  std::uint64_t shed_high_ = 0;
  std::uint64_t shed_low_ = 0;
  std::function<void(std::uint64_t, std::uint64_t)> on_shed_;
  Channel* input_ = nullptr;
  std::vector<Channel*> channels_;

  SplitterMetrics metrics_;

  /// Sequences, liveness, replay buffers, acks, blocked time, source
  /// pacing and the send counters (DESIGN.md §10), shared with the
  /// runtime splitter.
  delivery::SendCore<Tuple> core_;

  std::uint64_t rerouted_ = 0;
  std::vector<std::uint64_t> blocks_;

  int blocked_on_ = -1;
  TimeNs block_start_ = 0;
  bool idle_for_input_ = false;
  /// True while every connection is quarantined: the splitter parks and
  /// resumes from set_channel_up(j, true).
  bool idle_no_channel_ = false;
};

}  // namespace slb::sim
