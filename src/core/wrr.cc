#include "core/wrr.h"

#include <cassert>
#include <limits>

namespace slb {

SmoothWrr::SmoothWrr(int connections)
    : current_(connections, 0),
      cycle_start_(connections, 0),
      cycle_(static_cast<std::size_t>(kWeightUnits), 0) {
  assert(connections > 0);
  set_weights(even_weights(connections));
}

void SmoothWrr::set_weights(const WeightVector& weights) {
  assert(weights.size() == current_.size());
  if (weights == weights_) return;
  if (replay_pos_ >= 0) {
    // Replay leaves current_ at the cycle start; advance it by the picks
    // served since then, exactly as the scan would have.
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      current_[j] += replay_pos_ * weights_[j];
    }
    for (long long k = 0; k < replay_pos_; ++k) {
      current_[static_cast<std::size_t>(cycle_[static_cast<std::size_t>(k)])] -=
          total_;
    }
    replay_pos_ = -1;
  }
  weights_ = weights;
  total_ = 0;
  live_.clear();
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    const Weight w = weights_[j];
    assert(w >= 0);
    total_ += w;
    if (w > 0) live_.push_back(Live{static_cast<ConnectionId>(j), w});
  }
  // Keep the accumulated `current_` credit so weight changes do not cause
  // a burst toward low-index connections; clamp credits of connections
  // that just dropped to zero so they cannot be picked on residual credit.
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    if (weights_[j] == 0 && current_[j] > 0) current_[j] = 0;
  }
  start_cycle();
}

void SmoothWrr::start_cycle() {
  if (total_ == 0 || total_ > kWeightUnits) {
    recorded_ = -1;
    return;
  }
  cycle_start_ = current_;
  recorded_ = 0;
}

ConnectionId SmoothWrr::scan() {
  if (total_ == 0) {
    // Degenerate all-zero weights: plain round-robin.
    const int n = connections();
    const int choice = fallback_cursor_;
    fallback_cursor_ = (fallback_cursor_ + 1) % n;
    return choice;
  }
  // Strict `>` keeps the lowest index among equal credits.
  ConnectionId best = -1;
  long long best_credit = std::numeric_limits<long long>::min();
  for (const Live& c : live_) {
    long long& credit = current_[static_cast<std::size_t>(c.j)];
    credit += c.w;
    const bool ahead = credit > best_credit;
    best = ahead ? c.j : best;
    best_credit = ahead ? credit : best_credit;
  }
  current_[static_cast<std::size_t>(best)] -= total_;
  if (recorded_ >= 0) {
    cycle_[static_cast<std::size_t>(recorded_)] = best;
    if (++recorded_ == total_) {
      // The scan is a pure function of the credits, so a cycle that ends
      // where it began repeats forever.
      if (current_ == cycle_start_) {
        replay_pos_ = 0;
      } else {
        start_cycle();
      }
    }
  }
  return best;
}

}  // namespace slb
