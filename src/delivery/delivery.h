// Delivery semantics for an ordered data-parallel region (DESIGN.md §10).
//
// GapSkip is the historical behavior (PR 1): sequences that die with a
// worker are declared gaps and the merger skips them — ordering survives,
// data does not. AtLeastOnce arms the recovery machinery: the splitter
// keeps a bounded per-channel replay buffer of unacked tuples, the merger
// piggybacks cumulative acks (highest contiguously released sequence)
// back to the splitter, and a crash replays the dead channel's unacked
// suffix onto the survivors. The merger's dedup window (any sequence
// below its release cursor) discards re-sent tuples that already made it
// out, so the sink sees every sequence exactly once, in order.
//
// Both substrates — the discrete-event sim (sim::Region) and the
// loopback-TCP runtime (rt::LocalRegion) — consume this one config.
#pragma once

#include <cstddef>

namespace slb::delivery {

enum class DeliveryMode {
  /// Crash losses become merger gaps (skip-and-continue). No buffers,
  /// no acks — byte-identical to the pre-delivery-subsystem behavior.
  kGapSkip,
  /// Unacked tuples are buffered at the splitter and replayed onto
  /// surviving channels after a crash; the merger deduplicates.
  kAtLeastOnce,
};

struct DeliveryConfig {
  DeliveryMode mode = DeliveryMode::kGapSkip;

  /// Per-channel replay-buffer byte cap. A full buffer back-pressures
  /// the source exactly like a full send buffer (the blocked time is
  /// charged to that channel's blocking counter, so the blocking-rate
  /// signal stays truthful). Sizing guidance in DESIGN.md §10: it bounds
  /// worst-case replay work after a crash, so a cap of roughly
  /// (ack round-trip) x (per-channel send rate) x (tuple bytes) keeps
  /// steady state unblocked.
  std::size_t replay_buffer_bytes = 256 * 1024;

  /// Ack-stall watchdog rung (control loop), at-least-once only:
  /// escalate after this many consecutive sample periods with unacked
  /// tuples outstanding, ack progress frozen, and at least one channel
  /// unquarantined. 0 disables the rung (default). GapSkip keeps no acks
  /// to stall on and ignores it.
  int ack_stall_periods = 0;
};

}  // namespace slb::delivery
