// Time-varying external load on workers — the paper's "simulated load".
//
// Each worker has a piecewise-constant multiplier on its per-tuple service
// time: e.g. 100x until t/8, then 1x, reproduces the experiments in
// Sections 6.1–6.4 where exogenous load disappears an eighth of the way
// through the run.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/time.h"

namespace slb::sim {

/// One multiplier change: from `when` onward the worker's service time is
/// multiplied by `multiplier` (until a later step overrides it).
struct LoadStep {
  TimeNs when = 0;
  double multiplier = 1.0;
};

class LoadProfile {
 public:
  LoadProfile() = default;

  /// Creates a profile for `workers` workers, all permanently at 1x.
  explicit LoadProfile(int workers)
      : steps_(static_cast<std::size_t>(workers)) {}

  int workers() const { return static_cast<int>(steps_.size()); }

  /// Adds a step for one worker. Steps may be added in any order; they
  /// are kept sorted by time, and a step goes after every step at the same
  /// time, so the one added last overrides the others there.
  void add_step(int worker, TimeNs when, double multiplier) {
    assert(worker >= 0 && worker < workers());
    assert(multiplier > 0.0);
    auto& s = steps_[static_cast<std::size_t>(worker)];
    const auto after = std::upper_bound(
        s.begin(), s.end(), when,
        [](TimeNs t, const LoadStep& step) { return t < step.when; });
    s.insert(after, LoadStep{when, multiplier});
  }

  /// Convenience: worker is at `multiplier` from time 0 and drops back to
  /// 1x at `until`.
  void add_load_until(int worker, double multiplier, TimeNs until) {
    add_step(worker, 0, multiplier);
    add_step(worker, until, 1.0);
  }

  /// Multiplier in force for `worker` at time `t` (1.0 before any step).
  double at(int worker, TimeNs t) const {
    assert(worker >= 0 && worker < workers());
    double m = 1.0;
    for (const LoadStep& s : steps_[static_cast<std::size_t>(worker)]) {
      if (s.when <= t) {
        m = s.multiplier;
      } else {
        break;
      }
    }
    return m;
  }

 private:
  std::vector<std::vector<LoadStep>> steps_;
};

}  // namespace slb::sim
