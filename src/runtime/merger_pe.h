// The in-order merger PE of the threaded runtime.
//
// One thread polls all worker connections, reads *eagerly* into unbounded
// per-connection reorder queues (the paper's implementation blocks at the
// splitter, not at the merger — Section 4.3), and releases tuples in
// global sequence order. Only counts and timestamps leave the merger; the
// benchmark sink is a counter.
//
// Fault tolerance (optional, see DESIGN.md "Failure model"): when
// constructed with MergerFaultConfig.enabled the merger also
//   * listens on an ephemeral reconnect port — a restarted worker (or the
//     region closing a dead worker's stream) connects there and announces
//     itself with a hello frame carrying its worker id;
//   * treats EOF-without-FIN as a crash, not completion: the slot may be
//     re-admitted later, and the run only ends once every slot has FINed;
//   * skips sequence numbers that stop arriving: if tuples have been
//     queued behind the expected sequence for `gap_timeout`, the tuples it
//     was waiting on died with a worker — release resumes at the next
//     queued sequence and every skipped number is counted as a gap.
//
// The sequencing state machine is delivery::ReleaseCore, shared with the
// simulator's merger; this adapter adds the poll/read/decode loop,
// reconnect handling and the ack socket writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "delivery/delivery.h"
#include "transport/socket.h"
#include "util/time.h"

namespace slb::rt {

struct MergerFaultConfig {
  bool enabled = false;
  /// How long the expected sequence may fail to arrive — while later
  /// tuples sit queued — before it is declared dead and skipped. Must
  /// comfortably exceed the worst-case reorder wait of a healthy run.
  /// Ignored under at-least-once delivery: a missing sequence is
  /// replayed by the splitter, so skipping it would manufacture a gap
  /// the replay is about to fill.
  DurationNs gap_timeout = millis(500);
};

class MergerPe {
 public:
  /// Takes ownership of all worker connections; starts immediately.
  /// `ack_out` (at-least-once only) is the merger->splitter reverse
  /// connection cumulative acks ride on; writes are non-blocking and
  /// drop-on-full — the cumulative encoding makes lost acks harmless.
  explicit MergerPe(
      std::vector<net::Fd> from_workers, MergerFaultConfig fault = {},
      delivery::DeliveryMode mode = delivery::DeliveryMode::kGapSkip,
      net::Fd ack_out = {});

  ~MergerPe();

  MergerPe(const MergerPe&) = delete;
  MergerPe& operator=(const MergerPe&) = delete;

  /// Tuples released downstream so far (monotone, thread-safe).
  std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

  /// Largest reorder-queue depth observed (diagnostic).
  std::size_t max_queue_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// True once every worker sent FIN and all queues drained.
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Fault tolerance only: tells the merger the region is shutting down,
  /// so crashed slots that never reconnected are final — treat their
  /// EOF-without-FIN as completion instead of waiting for a re-admission
  /// that will never come. Call after FINing every live worker.
  void begin_shutdown() {
    closing_.store(true, std::memory_order_release);
  }

  /// Blocks until the merger thread exits.
  void join();

  /// Verifies every released tuple was in strict sequence order (gaps
  /// skipped over dead tuples keep the sequence monotone and do not
  /// violate this).
  bool order_ok() const { return order_ok_.load(std::memory_order_relaxed); }

  /// Sequence numbers skipped because their tuples died with a worker.
  std::uint64_t gaps() const { return gaps_.load(std::memory_order_relaxed); }

  /// Replayed duplicates discarded below the release cursor
  /// (at-least-once only; see DESIGN.md §10).
  std::uint64_t dup_discards() const {
    return dup_discards_.load(std::memory_order_relaxed);
  }

  /// Tuples that arrived after their sequence was declared a gap
  /// (GapSkip fault mode: the gap skip fired, then the tuple showed up).
  std::uint64_t late_discards() const {
    return late_discards_.load(std::memory_order_relaxed);
  }

  /// Hello-frame re-admissions accepted on the reconnect port.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// Port restarted workers connect to (fault tolerance only, else 0).
  std::uint16_t reconnect_port() const {
    return listener_ ? listener_->port() : 0;
  }

 private:
  void run();

  std::vector<net::Fd> from_workers_;
  MergerFaultConfig fault_;
  delivery::DeliveryMode mode_;
  net::Fd ack_out_;
  std::unique_ptr<net::Listener> listener_;
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::size_t> max_depth_{0};
  std::atomic<std::uint64_t> gaps_{0};
  std::atomic<std::uint64_t> dup_discards_{0};
  std::atomic<std::uint64_t> late_discards_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> closing_{false};
  std::atomic<bool> order_ok_{true};
  std::thread thread_;
};

}  // namespace slb::rt
