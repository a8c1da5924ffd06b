// Smooth weighted round-robin tuple routing.
//
// The splitter routes each tuple to one connection so that, over any
// window, connection j receives a fraction w_j / kWeightUnits of the
// tuples (paper Section 5.1: "round robin allocation weights"). We use the
// interleaving scheme popularized by nginx: it is deterministic and
// spreads each connection's picks as evenly as possible through the cycle
// instead of sending long bursts, which keeps per-connection queue
// occupancy smooth.
//
// A scanned pick costs O(live connections): it visits only the
// connections with a positive weight, kept in a compact list, and tracks
// the running maximum with a conditional select rather than a branch.
// Between weight changes the pick sequence is usually periodic with
// period sum(w): the scan records each cycle, and once a cycle ends in the
// credit state it started from, every later pick is read from the
// recorded table in O(1) until the next set_weights.
#pragma once

#include <vector>

#include "core/types.h"

namespace slb {

class SmoothWrr {
 public:
  /// Starts with an even split over `connections`.
  explicit SmoothWrr(int connections);

  /// Replaces the weights. Zero-weight connections are never picked while
  /// any positive weight exists. An all-zero vector falls back to plain
  /// round-robin so the splitter can always make progress. Unchanged
  /// weights are a no-op.
  void set_weights(const WeightVector& weights);

  const WeightVector& weights() const { return weights_; }

  /// Chooses the connection for the next tuple.
  ConnectionId pick() {
    if (replay_pos_ < 0) return scan();
    const ConnectionId j = cycle_[static_cast<std::size_t>(replay_pos_)];
    if (++replay_pos_ == total_) replay_pos_ = 0;
    return j;
  }

  int connections() const { return static_cast<int>(weights_.size()); }

 private:
  /// The O(N) pick; records the cycle while total_ <= kWeightUnits.
  ConnectionId scan();
  /// Starts recording a new cycle from the current credit state.
  void start_cycle();

  /// A connection with a positive weight.
  struct Live {
    ConnectionId j;
    Weight w;
  };

  WeightVector weights_;
  std::vector<Live> live_;  // in index order, so ties go to the lowest j
  std::vector<long long> current_;
  long long total_ = 0;
  int fallback_cursor_ = 0;

  /// Credits at the start of the cycle being recorded (or replayed), the
  /// picks of that cycle, and how many have been recorded so far.
  std::vector<long long> cycle_start_;
  std::vector<ConnectionId> cycle_;
  long long recorded_ = 0;
  /// Offset into cycle_ of the next replayed pick; -1 while scanning.
  /// Replay leaves current_ at the cycle start: the scan's state is that
  /// advanced by the first replay_pos_ picks of cycle_.
  long long replay_pos_ = -1;
};

}  // namespace slb
