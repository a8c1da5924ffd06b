// The in-order merger PE of the threaded runtime.
//
// One thread polls all worker connections, reads *eagerly* into unbounded
// per-connection reorder queues (the paper's implementation blocks at the
// splitter, not at the merger — Section 4.3), and releases tuples in
// global sequence order. Only counts and timestamps leave the merger; the
// benchmark sink is a counter.
//
// Every worker connection is a FIFO stream, so the merger needs no timer
// to find sequences that died with a worker: once no open stream can
// still carry the next sequence, it never arrives, and
// delivery::ReleaseCore::skip_unreachable() counts it as a gap (DESIGN.md
// §6). A stream ends at its FIN. An EOF without a FIN is a crash: the
// slot may be re-admitted later, and the run only ends once every slot
// has FINed or the region shuts down. A restarted worker dials the
// merger's listener and announces itself with a hello frame carrying its
// worker id, which reopens the slot. Under GapSkip the crashed stream has
// ended, and the survivors' progress (or the zero-count gap frames the
// splitter sends them as watermarks) passes what it lost. Under
// at-least-once those sequences are replayed instead, and nothing is
// skipped before the end of input.
//
// The sequencing state machine is delivery::ReleaseCore, shared with the
// simulator's merger; this adapter adds the poll/read/decode loop,
// reconnect handling and the ack socket writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "delivery/delivery.h"
#include "delivery/release_core.h"
#include "obs/metrics.h"
#include "transport/socket.h"

namespace slb::rt {

class MergerPe {
 public:
  /// Takes ownership of all worker connections and of the listener they
  /// were accepted on, where restarted workers dial in; starts
  /// immediately.
  /// The merger thread is the single writer of `metrics`' "merger.*"
  /// metrics (DESIGN.md §8): its own "emitted" and "reconnects" counters
  /// and "max_depth" gauge, and through its release core "gaps",
  /// "dup_discards" and "late_discards". The registry must outlive the
  /// PE and is a ctor parameter because the thread starts here.
  /// `ack_out` (at-least-once only) is the merger->splitter reverse
  /// connection cumulative acks ride on; writes are non-blocking and
  /// drop-on-full — the cumulative encoding makes lost acks harmless.
  MergerPe(std::vector<net::Fd> from_workers, net::Listener listener,
           obs::MetricsRegistry& metrics,
           delivery::DeliveryMode mode = delivery::DeliveryMode::kGapSkip,
           net::Fd ack_out = {});

  ~MergerPe();

  MergerPe(const MergerPe&) = delete;
  MergerPe& operator=(const MergerPe&) = delete;

  /// Tuples released downstream so far (monotone, thread-safe).
  std::uint64_t emitted() const { return emitted_.value(); }

  /// Tells the merger the region is shutting down, so crashed slots that
  /// never reconnected are final — treat their EOF-without-FIN as
  /// completion instead of waiting for a re-admission that will never
  /// come. Call after FINing every live worker.
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
  std::uint64_t gaps() const { return core_.gaps(); }

  /// Replayed duplicates discarded below the release cursor
  /// (at-least-once only; see DESIGN.md §10).
  std::uint64_t dup_discards() const { return core_.dup_discards(); }

  /// Tuples that arrived below the release cursor under GapSkip: after
  /// a gap frame declared their sequence shed, or after it was skipped
  /// as unreachable. 0 while every stream is FIFO.
  std::uint64_t late_discards() const { return core_.late_discards(); }

  /// Port restarted workers connect to.
  std::uint16_t reconnect_port() const { return listener_.port(); }

 private:
  void run();

  std::vector<net::Fd> from_workers_;
  delivery::DeliveryMode mode_;
  net::Fd ack_out_;
  net::Listener listener_;
  obs::Counter& emitted_;
  /// The sequencing state; merger-thread only, apart from its counts.
  /// Queues hold bare sequence numbers: only counts leave the merger.
  delivery::ReleaseCore<std::uint64_t> core_;
  /// Hello-frame re-admissions accepted on the reconnect port.
  obs::Counter& reconnects_;
  /// Largest reorder-queue depth observed (a running max).
  obs::Gauge& max_depth_;
  std::atomic<bool> closing_{false};
  std::atomic<bool> order_ok_{true};
  std::thread thread_;
};

}  // namespace slb::rt
