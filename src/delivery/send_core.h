// Splitter-side delivery core of a parallel region (paper §3, §4.4,
// DESIGN.md §10).
//
// The splitter is one thread of control: it picks a connection, sends,
// and blocks when the send would block. This class is the bookkeeping
// around that send, written once and shared by the two substrates:
// sim::Splitter (discrete-event) and rt::LocalRegion (loopback TCP) are
// thin adapters that keep their own event scheduling or sockets, their
// blocking (and, in the sim, Section 4.4 re-routing), and ask the core
// what to send where, and when. It does no I/O, reads no clock and is
// single-threaded, so it can be unit-tested and model-checked directly
// (tests/test_send_core.cc). Its only atomics are the relaxed
// single-writer registry handles it publishes its counts through
// (DESIGN.md §8), which other threads may read at any time.
//
// It owns:
//   * sequence issuance: next_seq() is the next fresh sequence, consumed
//     by a fresh commit() or by shed();
//   * channel liveness and the failover scan for a quarantined pick;
//   * the per-channel replay buffers (at-least-once) and their admission
//     test: a full buffer blocks the picked channel like a full send
//     buffer, it never diverts the tuple;
//   * the cumulative-ack cursor;
//   * each channel's cumulative blocked time, the paper's blocking
//     counter (§3): the adapter charges every wait on a channel here,
//     and the control loop differences the samples into rates;
//   * source pacing, on one clock: the open-loop release time, backlog
//     and shed rule, the arrival stamp of a fresh tuple, the admission
//     throttle, and the earliest time the next send may start. The
//     adapter passes the times in (simulated or monotonic), so the core
//     still reads no clock itself;
//   * crash replay: a quarantined channel's unacked suffix moves into the
//     pending queue, sorted by sequence, which adapters drain ahead of
//     fresh sequences through their normal pick path;
//   * the metrics both substrates publish, registered under the
//     adapter's prefix: the "sent", "failovers", "shed" and
//     "retransmits" counters, and the "replay_buffer_bytes" and
//     "ack_lag" gauges, which only at-least-once writes, wherever they
//     change (commit, ack, quarantine, shed). The core is their only
//     writer.
//
// Payload is what a replay re-sends: sim::Tuple in the sim, the encoded
// wire frame in the runtime.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "delivery/delivery.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace slb::delivery {

/// One channel's sent-but-unacked tuples (sequence, wire size, payload),
/// trimmed by cumulative acks and taken whole on a crash. The byte cap
/// bounds what an ack stall can pin.
template <typename Payload>
class ReplayBuffer {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    std::size_t bytes = 0;
    Payload payload{};
  };

  /// `byte_cap == 0` means unbounded (tests only; real configs cap).
  explicit ReplayBuffer(std::size_t byte_cap = 0) : cap_(byte_cap) {}

  /// True when admitting `next_bytes` more would exceed the cap. An
  /// empty buffer always admits — otherwise one tuple larger than the
  /// cap would wedge the region instead of merely serializing it.
  bool would_block(std::size_t next_bytes) const {
    return cap_ != 0 && !entries_.empty() && bytes_ + next_bytes > cap_;
  }

  /// Entries stay sorted by sequence: a fresh send appends, and a
  /// re-sent older sequence goes in before the newer entries it lands
  /// behind after a crash replay.
  void push(std::uint64_t seq, std::size_t bytes, Payload payload) {
    bytes_ += bytes;
    const auto at = std::upper_bound(
        entries_.begin(), entries_.end(), seq,
        [](std::uint64_t s, const Entry& e) { return s < e.seq; });
    entries_.insert(at, Entry{seq, bytes, std::move(payload)});
  }

  /// Cumulative ack: every sequence below `cum_ack` has been released
  /// downstream, so the buffer's sorted prefix below it goes. Returns the
  /// number of entries dropped.
  std::size_t ack(std::uint64_t cum_ack) {
    const std::size_t before = entries_.size();
    while (!entries_.empty() && entries_.front().seq < cum_ack) {
      bytes_ -= entries_.front().bytes;
      entries_.pop_front();
    }
    return before - entries_.size();
  }

  /// Crash replay: drains the whole buffer, in sequence order.
  std::deque<Entry> take_all() {
    bytes_ = 0;
    return std::exchange(entries_, {});
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t cap_;
  std::size_t bytes_ = 0;
  std::deque<Entry> entries_;
};

template <typename Payload>
class SendCore {
 public:
  using Entry = typename ReplayBuffer<Payload>::Entry;

  /// Sequences [first, first + count).
  struct Range {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
  };

  /// What a quarantine queued for replay.
  struct Replay {
    std::uint64_t tuples = 0;
    std::uint64_t bytes = 0;
  };

  /// Registers the send metrics in `metrics` as `prefix` + name (the
  /// registry must outlive the core). `replay_buffer_bytes` caps each
  /// channel's replay buffer (at-least-once only; 0 = unbounded).
  /// `source_interval` paces fresh sequences: 0 = closed loop (a source
  /// tuple is always ready), > 0 = open loop releasing one every
  /// `source_interval` ns. Throws std::invalid_argument when it is
  /// negative.
  SendCore(obs::MetricsRegistry& metrics, std::string_view prefix,
           int channels, DeliveryMode mode = DeliveryMode::kGapSkip,
           std::size_t replay_buffer_bytes = 0,
           DurationNs source_interval = 0)
      : up_(static_cast<std::size_t>(channels), 1),
        sent_(static_cast<std::size_t>(channels), 0),
        blocked_(static_cast<std::size_t>(channels), 0),
        alo_(mode == DeliveryMode::kAtLeastOnce),
        interval_(source_interval),
        total_sent_(metrics.counter(std::string(prefix) + "sent")),
        failovers_(metrics.counter(std::string(prefix) + "failovers")),
        shed_(metrics.counter(std::string(prefix) + "shed")),
        retransmits_(metrics.counter(std::string(prefix) + "retransmits")),
        replay_bytes_(
            metrics.gauge(std::string(prefix) + "replay_buffer_bytes")),
        ack_lag_(metrics.gauge(std::string(prefix) + "ack_lag")) {
    if (source_interval < 0) {
      throw std::invalid_argument("source_interval must not be negative");
    }
    if (alo_) {
      buffers_.assign(static_cast<std::size_t>(channels),
                      ReplayBuffer<Payload>(replay_buffer_bytes));
    }
  }

  /// Copies would share the registry handles.
  SendCore(const SendCore&) = delete;
  SendCore& operator=(const SendCore&) = delete;

  bool at_least_once() const { return alo_; }
  int channels() const { return static_cast<int>(up_.size()); }

  /// The sequence the next fresh commit() carries.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Drops `count` source tuples: they consume the next sequences without
  /// being sent, and the caller announces the range to the merger as lost.
  Range shed(std::uint64_t count) {
    const Range dropped{next_seq_, count};
    next_seq_ += count;
    shed_.inc(count);
    publish_ack_lag();  // the shed sequences were issued: the ack lag grew
    return dropped;
  }

  // --- Source pacing ---------------------------------------------------

  /// Starts the source clock: the first tuple is released at `now`.
  void start(TimeNs now) { release_ = busy_until_ = now; }
  DurationNs source_interval() const { return interval_; }

  /// Admission control (closed-loop sources): offer only `factor`, in
  /// (0, 1], of full speed by stretching each send's busy time by
  /// 1/factor. 1.0 restores full speed.
  void set_throttle(double factor) {
    assert(factor > 0.0 && factor <= 1.0);
    throttle_ = factor;
  }
  double throttle() const { return throttle_; }

  /// Open loop: source tuples released by `now` but neither sent nor
  /// shed (0 for a closed loop). A growing backlog means the region
  /// cannot sustain the offered rate.
  std::uint64_t backlog(TimeNs now) const {
    if (interval_ <= 0 || now <= release_) return 0;
    return static_cast<std::uint64_t>((now - release_) / interval_);
  }

  /// Arrival stamp of the next fresh tuple: its nominal release time in
  /// an open loop (arrears count as waiting), `now` in a closed one.
  TimeNs arrival(TimeNs now) const { return interval_ > 0 ? release_ : now; }

  /// Open-loop shedding, the one rule both substrates apply: once the
  /// backlog at `now` reaches the `high` watermark, drops the oldest
  /// tuples down to the `low` one, and the release clock moves past
  /// them. Sheds nothing when `high == 0` (shedding off), below `high`,
  /// or at or below `low` — a low watermark at or above the high one
  /// leaves nothing to drop. Returns the shed range (count 0 when
  /// nothing was shed).
  Range shed_backlog(TimeNs now, std::uint64_t high, std::uint64_t low) {
    const std::uint64_t due = backlog(now);
    if (high == 0 || due < high || due <= low) return {next_seq_, 0};
    release_ += static_cast<DurationNs>(due - low) * interval_;
    return shed(due - low);
  }

  /// Records a send that kept the splitter busy from `since` to `end`.
  /// The throttle stretches that busy time, and a `fresh` tuple (not a
  /// retransmit) consumes one source release.
  void paced(TimeNs since, TimeNs end, bool fresh) {
    DurationNs busy = end - since;
    if (throttle_ < 1.0) {  // full speed skips the division (sim hot path)
      busy = static_cast<DurationNs>(static_cast<double>(busy) / throttle_);
    }
    busy_until_ = since + busy;
    if (fresh) release_ += interval_;
  }

  /// Earliest time the next send may start: once the last send's
  /// (throttled) busy time is over and, for a `fresh` tuple, once it is
  /// released (a closed loop's release clock never passes the busy
  /// time). Arrears drain at full speed.
  TimeNs ready_at(bool fresh) const {
    return fresh ? std::max(busy_until_, release_) : busy_until_;
  }

  bool up(int j) const { return up_[index(j)] != 0; }
  void set_up(int j, bool up) { up_[index(j)] = up ? 1 : 0; }

  /// The channel a send picked as `picked` goes to: `picked` itself when
  /// live, otherwise the next live channel in ring order (a failover —
  /// the policy zeroed the dead channel's weight, but smooth-WRR state can
  /// still name it briefly), or -1 when every channel is down.
  int route(int picked) {
    if (up(picked)) return picked;
    const int n = channels();
    for (int step = 1; step < n; ++step) {
      const int k = (picked + step) % n;
      if (up(k)) {
        failovers_.inc();
        return k;
      }
    }
    return -1;
  }

  /// True when channel j's replay buffer admits `bytes` more. When it
  /// does not, the splitter blocks on j until an ack trims it — the wait
  /// is charged to j, exactly like a full send buffer.
  bool admits(int j, std::size_t bytes) const {
    return !alo_ || !buffers_[index(j)].would_block(bytes);
  }

  /// The oldest replay awaiting re-send (nullptr when none). Adapters send
  /// it ahead of any fresh sequence.
  const Entry* next_replay() const {
    return pending_.empty() ? nullptr : &pending_.front();
  }

  /// Records a completed send on channel j: a retransmit of a pending
  /// replay (next_replay() when it was read) or the fresh sequence
  /// next_seq(). At-least-once buffers the payload until acked.
  /// Retransmits are counted apart from `sent`, which tracks fresh
  /// sequences only, so the throughput signal and the conservation
  /// identities stay in sequence space.
  void commit(int j, std::uint64_t seq, std::size_t bytes, Payload payload,
              bool retransmit) {
    if (retransmit) {
      // Usually the front; a quarantine during the send may have queued
      // older replays ahead of it, and an ack that arrived while the
      // runtime was still writing the frame may have dropped it already.
      const auto it = std::lower_bound(
          pending_.begin(), pending_.end(), seq,
          [](const Entry& e, std::uint64_t s) { return e.seq < s; });
      if (it != pending_.end() && it->seq == seq) pending_.erase(it);
      retransmits_.inc();
      // Released meanwhile: the copy is a duplicate the merger discards,
      // and no ack will ever trim it, so it is not buffered.
      if (seq < acked_) return;
    } else {
      assert(seq == next_seq_);
      ++next_seq_;
      ++sent_[index(j)];
      total_sent_.inc();
    }
    if (alo_) {
      buffers_[index(j)].push(seq, bytes, std::move(payload));
      replay_bytes_.add(static_cast<std::int64_t>(bytes));
      ++buffered_;
      publish_ack_lag();
    }
  }

  /// Cumulative ack from the merger: every sequence below `cum` has been
  /// released. Trims the replay buffers and drops pending replays that
  /// released meanwhile. Returns false when `cum` brings nothing new.
  bool on_ack(std::uint64_t cum) {
    if (!alo_ || cum <= acked_) return false;
    acked_ = cum;
    std::size_t bytes = 0;
    for (auto& b : buffers_) {
      buffered_ -= b.ack(cum);
      bytes += b.bytes();
    }
    replay_bytes_.set(static_cast<std::int64_t>(bytes));
    while (!pending_.empty() && pending_.front().seq < cum) {
      pending_.pop_front();
    }
    publish_ack_lag();
    return true;
  }

  /// Marks channel j down and, under at-least-once, moves its unacked
  /// suffix into the pending queue. The queue stays sorted by sequence:
  /// the merger gates on the lowest missing one, and an earlier replay
  /// may already sit there behind newer entries from this channel.
  Replay quarantine(int j) {
    set_up(j, false);
    if (!alo_) return {};
    auto& buffer = buffers_[index(j)];
    const Replay queued{buffer.size(), buffer.bytes()};
    buffered_ -= queued.tuples;
    replay_bytes_.add(-static_cast<std::int64_t>(queued.bytes));
    for (auto& e : buffer.take_all()) pending_.push_back(std::move(e));
    std::sort(pending_.begin(), pending_.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    return queued;
  }

  /// Charges `ns` the splitter spent blocked on channel j.
  void charge_blocked(int j, DurationNs ns) { blocked_[index(j)] += ns; }
  /// Cumulative blocked ns per channel since the core was built; the
  /// sample the control loop differences into blocking rates.
  std::span<const DurationNs> blocked_ns() const { return blocked_; }

  std::uint64_t sent(int j) const { return sent_[index(j)]; }
  std::uint64_t total_sent() const { return total_sent_.value(); }
  std::uint64_t retransmits() const { return retransmits_.value(); }
  std::uint64_t shed() const { return shed_.value(); }
  std::uint64_t failovers() const { return failovers_.value(); }
  /// Highest cumulative ack seen from the merger.
  std::uint64_t acked() const { return acked_; }
  /// Tuples held for replay: buffered unacked plus pending re-send.
  std::uint64_t unacked() const { return buffered_ + pending_.size(); }
  /// Bytes held across the replay buffers.
  std::size_t replay_bytes() const {
    return static_cast<std::size_t>(replay_bytes_.value());
  }

 private:
  static std::size_t index(int j) { return static_cast<std::size_t>(j); }

  /// Refreshes the ack-lag gauge: sequences issued but not yet acked,
  /// shed ones included (at-least-once only).
  void publish_ack_lag() {
    if (alo_) ack_lag_.set(static_cast<std::int64_t>(next_seq_ - acked_));
  }

  std::vector<std::uint8_t> up_;
  std::vector<std::uint64_t> sent_;
  std::vector<DurationNs> blocked_;
  std::vector<ReplayBuffer<Payload>> buffers_;
  /// Replays awaiting re-send, sorted by sequence.
  std::deque<Entry> pending_;
  bool alo_;
  DurationNs interval_;
  /// Open loop: the release time of the next fresh tuple.
  TimeNs release_ = 0;
  /// End of the last send's throttled busy time.
  TimeNs busy_until_ = 0;
  double throttle_ = 1.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t buffered_ = 0;
  // The published counts: each lives only in its registry handle.
  obs::Counter& total_sent_;  // fresh sequences, retransmits excluded
  obs::Counter& failovers_;
  obs::Counter& shed_;
  obs::Counter& retransmits_;
  obs::Gauge& replay_bytes_;  // held across the replay buffers
  obs::Gauge& ack_lag_;  // next_seq - cumulative ack
};

}  // namespace slb::delivery
