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

  /// Appends a step for one worker. Steps may be added in any order; they
  /// are kept sorted by time.
  void add_step(int worker, TimeNs when, double multiplier) {
    assert(worker >= 0 && worker < workers());
    assert(multiplier > 0.0);
    auto& s = steps_[static_cast<std::size_t>(worker)];
    s.push_back(LoadStep{when, multiplier});
    std::sort(s.begin(), s.end(), [](const LoadStep& a, const LoadStep& b) {
      return a.when < b.when;
    });
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

  /// Times at which any worker's multiplier changes. Read only by tests:
  /// the harness builds Oracle* schedules from capacity_change_times.
  std::vector<TimeNs> change_times() const {
    std::vector<TimeNs> times;
    for (const auto& s : steps_) {
      for (const LoadStep& step : s) times.push_back(step.when);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    return times;
  }

 private:
  std::vector<std::vector<LoadStep>> steps_;
};

}  // namespace slb::sim
