#include "core/controller.h"

#include <algorithm>
#include <cassert>

#include "core/policies.h"  // weights_from_shares, even_live_weights

namespace slb {
namespace {

/// The most a live connection's weight `w` may climb in one update: one
/// geometric step (LoadBalanceController::kGeometricStepFloor).
Weight step_up(Weight w) {
  return std::min(kWeightUnits,
                  w + std::max(LoadBalanceController::kGeometricStepFloor, w));
}

}  // namespace

LoadBalanceController::LoadBalanceController(int connections,
                                             ControllerConfig config)
    : config_(config),
      estimator_(connections),
      saturation_(config.saturation),
      weights_(even_weights(connections)),
      down_(static_cast<std::size_t>(connections), 0),
      capacity_(static_cast<std::size_t>(connections), 0.0) {
  assert(connections > 0);
  functions_.reserve(static_cast<std::size_t>(connections));
  for (int j = 0; j < connections; ++j) {
    functions_.emplace_back();
  }
}

const WeightVector& LoadBalanceController::update(
    TimeNs now, std::span<const DurationNs> cumulative_blocked,
    std::span<const double> capacity) {
  assert(static_cast<int>(cumulative_blocked.size()) == connections());

  // The weights held *during* the period just observed: observations must
  // be attributed to them, not to whatever we decide next.
  const WeightVector held = weights_;

  const bool by_capacity = !capacity.empty();
  estimator_.ingest(now, cumulative_blocked);
  if (!estimator_.ready()) return weights_;

  const std::span<const double> raw = estimator_.raw_rates();
  if (journal_ != nullptr) {
    journal_->append(obs::JsonLine{}
                         .str("ev", "observe")
                         .num("t", static_cast<std::int64_t>(now))
                         .ints("held", held)
                         .reals("raw", raw)
                         .reals("smoothed", estimator_.smoothed_rates())
                         .finish());
  }

  if (config_.enable_overload_protection) {
    saturation_.observe(raw, down_, by_capacity);
    note_overload_transition(now);
    if (saturation_.overloaded() && !by_capacity) {
      // Declared overload: every F_j is pinned at its ceiling, so these
      // observations carry no gradient — folding them in would flatten
      // the model, and decay-driven re-exploration would probe channels
      // that cannot absorb anything (pure loss). Freeze the functions and
      // hold the last feasible weights; admission control / shedding
      // (driven by capacity_deficit) is responsible for draining the
      // region back into the feasible regime. The capacity rule does not
      // freeze: a saturated worker's service time is still its capacity.
      return weights_;
    }
  }

  if (by_capacity) {
    // The capacity rule reads what each worker completes, not how long
    // the splitter blocked, so it carries none of the blocking signal's
    // dead time. The blocking rates above still feed the saturation
    // detector and the journal.
    if (!measure_capacity(capacity)) return weights_;
    allocate_by_capacity();
    note_update();
    return weights_;
  }

  for (std::size_t j = 0; j < raw.size(); ++j) {
    if (down_[j]) continue;  // no traffic, no information
    if (raw[j] > 0.0) {
      seen_blocking_ = true;
      functions_[j].observe(held[j], raw[j], 1.0);
    } else if (config_.zero_sample_weight > 0.0) {
      functions_[j].observe(held[j], 0.0, config_.zero_sample_weight);
    }
    if (config_.decay_factor < 1.0) {
      functions_[j].decay_above(held[j], config_.decay_factor);
    }
  }
  if (journal_ != nullptr && config_.decay_factor < 1.0) {
    journal_->append(obs::JsonLine{}
                         .str("ev", "decay")
                         .real("factor", config_.decay_factor)
                         .ints("held", held)
                         .finish());
  }

  // No connection has ever blocked: every function is identically zero
  // and the optimizer would be choosing between indistinguishable
  // alternatives. Keep the current (even) split until evidence arrives.
  if (!seen_blocking_) return weights_;

  // Every connection down: nothing to optimize over; hold the current
  // weights until someone recovers.
  if (live() == 0) return weights_;

  const bool use_clusters = config_.enable_clustering &&
                            connections() >= config_.clustering_min_connections;
  if (use_clusters) {
    solve_clustered();
  } else {
    clusters_.clear();
    solve_flat();
  }
  note_update();
  return weights_;
}

void LoadBalanceController::note_update() {
  if (metrics_.updates != nullptr) {
    metrics_.updates->inc();
    metrics_.live->set(live());
  }
}

bool LoadBalanceController::measure_capacity(std::span<const double> fresh) {
  assert(fresh.size() == capacity_.size());
  if (live() == 0) return false;
  // A reading that moves more than kChangeFactor against its estimate
  // means the region changed (a load hop).
  bool changed = false;
  double top = 0.0;
  for (std::size_t j = 0; j < capacity_.size(); ++j) {
    if (down_[j] != 0) continue;
    top = std::max({top, capacity_[j], fresh[j]});
    if (fresh[j] >= 0.0 && capacity_[j] > 0.0 &&
        (fresh[j] > kChangeFactor * capacity_[j] ||
         fresh[j] * kChangeFactor < capacity_[j])) {
      changed = true;
    }
  }
  if (top == 0.0) {
    // No live channel measured yet: an even split feeds every one of them
    // enough to be measured.
    weights_ = even_live_weights(down_);
    return false;
  }
  for (std::size_t j = 0; j < capacity_.size(); ++j) {
    if (down_[j] != 0) continue;
    if (fresh[j] >= 0.0) {
      capacity_[j] = fresh[j];
    } else if (changed && capacity_[j] > 0.0) {
      // The region changed under us. An estimate that was not re-measured
      // is stale, and after a load hop the stale one is typically the
      // channel that just recovered (it was starved): raise it to the
      // largest estimate, old or new, so it is fed, and measured, at once.
      capacity_[j] = top;
    }
  }
  return true;
}

void LoadBalanceController::allocate_by_capacity() {
  const std::size_t n = weights_.size();
  // Unmeasured live channels (re-admitted ones) climb the geometric probe;
  // the measured ones share the rest, in proportion to their capacity.
  std::vector<double> shares(n, 0.0);
  WeightVector next(n, 0);
  Weight probes = 0;
  int measured = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (down_[j] != 0) continue;
    if (capacity_[j] == 0.0) {
      next[j] = step_up(weights_[j]);
      probes += next[j];
    } else {
      shares[j] = capacity_[j];
      ++measured;
    }
  }
  // Every measured channel keeps at least one unit, so it stays measured.
  const Weight room = kWeightUnits - measured;
  if (probes > room) {
    for (std::size_t j = 0; j < n; ++j) {
      if (down_[j] == 0 && capacity_[j] == 0.0) {
        next[j] = next[j] * room / probes;
      }
    }
    probes = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (capacity_[j] == 0.0) probes += next[j];
    }
  }
  const WeightVector rest = weights_from_shares(shares, kWeightUnits - probes);
  for (std::size_t j = 0; j < n; ++j) {
    if (down_[j] != 0 || capacity_[j] == 0.0) continue;
    next[j] = rest[j];
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (down_[j] != 0 || capacity_[j] == 0.0 || next[j] > 0) continue;
    const auto top = std::max_element(next.begin(), next.end());
    --*top;
    next[j] = 1;
  }
  weights_ = std::move(next);
  if (metrics_.solves != nullptr) metrics_.solves->inc();
  if (journal_ != nullptr) {
    journal_->append(obs::JsonLine{}
                         .str("ev", "solve")
                         .str("mode", "capacity")
                         .reals("cap", capacity_)
                         .ints("weights", weights_)
                         .finish());
  }
}

void LoadBalanceController::set_weights(const WeightVector& w) {
  assert(static_cast<int>(w.size()) == connections());
  assert(total_weight(w) == kWeightUnits);
  weights_ = w;
}

int LoadBalanceController::live() const {
  int count = 0;
  for (char d : down_) count += d == 0 ? 1 : 0;
  return count;
}

void LoadBalanceController::mark_down(int j) {
  assert(j >= 0 && j < connections());
  const auto ju = static_cast<std::size_t>(j);
  if (down_[ju]) return;
  down_[ju] = 1;
  // Whatever was learned about this connection described a worker that no
  // longer exists; a restarted replacement starts from a clean slate.
  functions_[ju].reset();
  capacity_[ju] = 0.0;
  if (metrics_.mark_downs != nullptr) {
    metrics_.mark_downs->inc();
    metrics_.live->set(live());
  }
  const auto journal_mark_down = [this, j](std::string_view mode) {
    if (journal_ == nullptr) return;
    journal_->append(obs::JsonLine{}
                         .str("ev", "mark_down")
                         .num("j", static_cast<std::int64_t>(j))
                         .str("mode", mode)
                         .ints("weights", weights_)
                         .finish());
  };

  if (live() == 0) {
    // Nothing left to route to: keep weights (the splitter is stalled
    // anyway) so the invariant sum(w) == kWeightUnits survives.
    journal_mark_down("hold");
    return;
  }
  // Safe-mode fallback: a crash during declared overload invalidates the
  // frozen allocation — it was feasible for a region that just lost a
  // worker's worth of capacity. Degrade to an even WRR split over the
  // survivors instead of scaling up stale weights.
  if (overloaded()) {
    weights_ = even_live_weights(down_);
    journal_mark_down("safe_even");
    return;
  }

  // Redistribute j's weight over the survivors proportionally to their
  // current weights (even split if the survivors were all at zero), so
  // routing continues immediately instead of waiting a sample period.
  std::vector<double> shares(static_cast<std::size_t>(connections()), 0.0);
  double survivor_total = 0.0;
  for (int k = 0; k < connections(); ++k) {
    const auto ku = static_cast<std::size_t>(k);
    if (down_[ku]) continue;
    shares[ku] = static_cast<double>(weights_[ku]);
    survivor_total += shares[ku];
  }
  weights_ = survivor_total > 0.0 ? weights_from_shares(shares)
                                  : even_live_weights(down_);
  journal_mark_down("redistribute");
}

void LoadBalanceController::mark_up(int j) {
  assert(j >= 0 && j < connections());
  const auto ju = static_cast<std::size_t>(j);
  if (!down_[ju]) return;
  down_[ju] = 0;
  // Weight stays at zero: the connection re-enters through the same
  // geometric step-up probing as any shut-off channel — a trickle first,
  // doubling per update while it keeps absorbing load without blocking
  // (or, under the capacity rule, until its worker has a reading).
  functions_[ju].reset();
  capacity_[ju] = 0.0;
  if (metrics_.mark_ups != nullptr) {
    metrics_.mark_ups->inc();
    metrics_.live->set(live());
  }
  if (journal_ != nullptr) {
    journal_->append(obs::JsonLine{}
                         .str("ev", "mark_up")
                         .num("j", static_cast<std::int64_t>(j))
                         .finish());
  }
}

void LoadBalanceController::note_overload_transition(TimeNs now) {
  const bool cur = saturation_.overloaded();
  if (metrics_.overloaded != nullptr) {
    metrics_.overloaded->set(cur ? 1 : 0);
  }
  if (cur == last_overloaded_) return;
  last_overloaded_ = cur;
  if (metrics_.overload_enters != nullptr) {
    (cur ? metrics_.overload_enters : metrics_.overload_exits)->inc();
  }
  if (journal_ != nullptr) {
    journal_->append(obs::JsonLine{}
                         .str("ev", cur ? "overload_enter" : "overload_exit")
                         .num("t", static_cast<std::int64_t>(now))
                         .real("aggregate", saturation_.last_aggregate())
                         .real("deficit", saturation_.capacity_deficit())
                         .finish());
  }
}

void LoadBalanceController::journal_solve(std::string_view mode,
                                          const RapSolution& sol) {
  if (metrics_.solves != nullptr) {
    metrics_.solves->inc();
    if (!sol.feasible) metrics_.infeasible->inc();
  }
  if (journal_ == nullptr) return;
  journal_->append(obs::JsonLine{}
                       .str("ev", "solve")
                       .str("mode", mode)
                       .str("solver", "fox")
                       .real("objective", sol.objective)
                       .boolean("feasible", sol.feasible)
                       .ints("weights", weights_)
                       .finish());
}

void LoadBalanceController::attach_metrics(obs::MetricsRegistry& registry,
                                           std::string_view prefix) {
  const auto name = [prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  metrics_.updates = &registry.counter(name("updates"));
  metrics_.solves = &registry.counter(name("solves"));
  metrics_.infeasible = &registry.counter(name("infeasible"));
  metrics_.overload_enters = &registry.counter(name("overload_enters"));
  metrics_.overload_exits = &registry.counter(name("overload_exits"));
  metrics_.mark_downs = &registry.counter(name("mark_downs"));
  metrics_.mark_ups = &registry.counter(name("mark_ups"));
  metrics_.overloaded = &registry.gauge(name("overloaded"));
  metrics_.live = &registry.gauge(name("live"));
  metrics_.live->set(live());
}

void LoadBalanceController::solve_flat() {
  const int n = connections();
  vars_.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (down_[ju]) {
      // Dead connection: pinned at zero; the RAP is solved over survivors.
      vars_[ju] = RapVariable{0, 0};
      continue;
    }
    // A live connection may drop to 0 or climb one geometric step.
    vars_[ju] = RapVariable{0, step_up(weights_[ju])};
  }

  const RapSolution sol =
      solve_fox(vars_, kWeightUnits, [this](int j, Weight w) {
        return functions_[static_cast<std::size_t>(j)].value(w);
      });
  if (sol.feasible) weights_ = sol.weights;
  journal_solve("flat", sol);
}

void LoadBalanceController::solve_clustered() {
  const int n = connections();
  fns_.clear();
  for (const RateFunction& f : functions_) fns_.push_back(&f);

  clusters_ = cluster_functions(fns_, kClusterThreshold);
  const int k = static_cast<int>(clusters_.size());
  if (journal_ != nullptr) {
    journal_->append(obs::JsonLine{}
                         .str("ev", "cluster")
                         .int_lists("clusters", clusters_)
                         .finish());
  }

  // One curve per cluster, fitted to the members' pooled raw evidence.
  // The curves and the merge buffers are reused from tick to tick.
  const auto ku = static_cast<std::size_t>(k);
  if (cluster_curves_.size() < ku) cluster_curves_.resize(ku);
  for (std::size_t c = 0; c < ku; ++c) {
    cluster_curves_[c].fit(merger_.merge(fns_, clusters_[c]));
  }

  // Solve at member granularity, but with every member evaluating its
  // *cluster's* merged function. Clustering's benefit is data aggregation
  // — each function now rests on all of its cluster's observations — and
  // solving per member sidesteps the granularity pathologies of a
  // cluster-level formulation (a coarse cluster cannot absorb the last
  // few 0.1% units, which would otherwise be dumped onto whatever small
  // cluster remains, however badly it blocks). Same-cluster members have
  // identical marginal curves, so the greedy hands them equal weights
  // (within one unit), matching the paper's per-cluster allocations.
  cluster_of_.resize(static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < ku; ++c) {
    for (ConnectionId j : clusters_[c]) {
      cluster_of_[static_cast<std::size_t>(j)] = static_cast<int>(c);
    }
  }

  // No step cap here: every live member is free in [0, R].
  vars_.resize(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    vars_[j] = down_[j] ? RapVariable{0, 0} : RapVariable{0, kWeightUnits};
  }

  // Members of one cluster evaluate the same curve at the same weights,
  // so each cluster's values are memoized, filled upward from 0 as the
  // greedy reaches them.
  constexpr std::size_t kDomain = static_cast<std::size_t>(kWeightUnits) + 1;
  if (memo_.size() < ku * kDomain) memo_.resize(ku * kDomain);
  memo_filled_.assign(ku, 0);
  const RapSolution sol =
      solve_fox(vars_, kWeightUnits, [this](int j, Weight w) {
        const auto c =
            static_cast<std::size_t>(cluster_of_[static_cast<std::size_t>(j)]);
        double* memo = memo_.data() + c * kDomain;
        Weight& filled = memo_filled_[c];
        if (filled <= w) {
          cluster_curves_[c].values(filled, w, memo + filled);
          filled = w + 1;
        }
        return memo[w];
      });
  if (sol.feasible) weights_ = sol.weights;
  journal_solve("clustered", sol);
}

}  // namespace slb
