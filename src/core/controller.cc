#include "core/controller.h"

#include <algorithm>
#include <cassert>

#include "core/policies.h"  // weights_from_shares

namespace slb {

LoadBalanceController::LoadBalanceController(int connections,
                                             ControllerConfig config)
    : config_(config),
      estimator_(connections, kRateEwmaAlpha),
      saturation_(config.saturation),
      weights_(even_weights(connections)),
      down_(static_cast<std::size_t>(connections), 0) {
  assert(connections > 0);
  functions_.reserve(static_cast<std::size_t>(connections));
  for (int j = 0; j < connections; ++j) {
    functions_.emplace_back(config_.function);
  }
  status_.smoothed_rates.assign(static_cast<std::size_t>(connections), 0.0);
  status_.raw_rates.assign(static_cast<std::size_t>(connections), 0.0);
}

const WeightVector& LoadBalanceController::update(
    TimeNs now, std::span<const DurationNs> cumulative_blocked) {
  assert(static_cast<int>(cumulative_blocked.size()) == connections());

  // The weights held *during* the period just observed: observations must
  // be attributed to them, not to whatever we decide next.
  const WeightVector held = weights_;

  estimator_.ingest(now, cumulative_blocked);
  if (!estimator_.ready()) return weights_;

  const int n = connections();
  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    status_.raw_rates[ju] = estimator_.last_raw_rate(j);
    status_.smoothed_rates[ju] = estimator_.rate(j);
  }

  if (journal_ != nullptr) {
    journal_->append(obs::JsonLine{}
                         .str("ev", "observe")
                         .num("t", static_cast<std::int64_t>(now))
                         .ints("held", held)
                         .reals("raw", status_.raw_rates)
                         .reals("smoothed", status_.smoothed_rates)
                         .finish());
  }

  if (config_.enable_overload_protection) {
    saturation_.observe(status_.raw_rates, down_);
    note_overload_transition(now);
    if (saturation_.overloaded()) {
      // Declared overload: every F_j is pinned at its ceiling, so these
      // observations carry no gradient — folding them in would flatten
      // the model, and decay-driven re-exploration would probe channels
      // that cannot absorb anything (pure loss). Freeze the functions and
      // hold the last feasible weights; admission control / shedding
      // (driven by capacity_deficit) is responsible for draining the
      // region back into the feasible regime.
      return weights_;
    }
  }

  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    const double raw = status_.raw_rates[ju];
    if (down_[ju]) continue;  // no traffic, no information
    if (raw > 0.0) {
      seen_blocking_ = true;
      functions_[ju].observe(held[ju], raw, 1.0);
    } else if (config_.zero_sample_weight > 0.0) {
      functions_[ju].observe(held[ju], 0.0, config_.zero_sample_weight);
    }
    if (config_.decay_factor < 1.0) {
      functions_[ju].decay_above(held[ju], config_.decay_factor);
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

  const bool use_clusters =
      config_.enable_clustering && n >= config_.clustering_min_connections;
  if (use_clusters) {
    solve_clustered();
  } else {
    status_.clusters.clear();
    solve_flat();
  }

  ++status_.updates;
  if (metrics_.updates != nullptr) {
    metrics_.updates->inc();
    metrics_.live->set(live());
  }
  return weights_;
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
    std::vector<double> even(static_cast<std::size_t>(connections()), 0.0);
    for (int k = 0; k < connections(); ++k) {
      if (!down_[static_cast<std::size_t>(k)]) {
        even[static_cast<std::size_t>(k)] = 1.0;
      }
    }
    weights_ = weights_from_shares(even);
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
  if (survivor_total <= 0.0) {
    for (int k = 0; k < connections(); ++k) {
      if (!down_[static_cast<std::size_t>(k)]) {
        shares[static_cast<std::size_t>(k)] = 1.0;
      }
    }
  }
  weights_ = weights_from_shares(shares);
  journal_mark_down("redistribute");
}

void LoadBalanceController::mark_up(int j) {
  assert(j >= 0 && j < connections());
  const auto ju = static_cast<std::size_t>(j);
  if (!down_[ju]) return;
  down_[ju] = 0;
  // Weight stays where it is (zero, unless min_weight raises the solver
  // floor): the connection re-enters through the same geometric step-up
  // probing as any shut-off channel — a trickle first, doubling per
  // update while it keeps absorbing load without blocking.
  functions_[ju].reset();
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

void LoadBalanceController::journal_solve(std::string_view mode) {
  if (metrics_.solves != nullptr) {
    metrics_.solves->inc();
    if (!status_.solver_feasible) metrics_.infeasible->inc();
  }
  if (journal_ == nullptr) return;
  journal_->append(obs::JsonLine{}
                       .str("ev", "solve")
                       .str("mode", mode)
                       .str("solver", "fox")
                       .real("objective", status_.objective)
                       .boolean("feasible", status_.solver_feasible)
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
    RapVariable& v = vars_[ju];
    if (down_[ju]) {
      // Dead connection: pinned at zero; the RAP is solved over survivors.
      v.min = 0;
      v.max = 0;
      continue;
    }
    v.min = std::max(config_.min_weight,
                     static_cast<Weight>(weights_[ju] - config_.max_step_down));
    v.min = std::max(v.min, 0);
    const Weight up = std::min(config_.max_step_up,
                               std::max(kGeometricStepFloor, weights_[ju]));
    v.max = std::min(kWeightUnits, static_cast<Weight>(weights_[ju] + up));
    // A connection re-admitted at weight 0 cannot step up to a min_weight
    // floor above its geometric step: the floor wins.
    v.max = std::max(v.max, v.min);
  }

  const RapSolution sol =
      solve_fox(vars_, kWeightUnits, [this](int j, Weight w) {
        return functions_[static_cast<std::size_t>(j)].value(w);
      });
  status_.objective = sol.objective;
  status_.solver_feasible = sol.feasible;
  if (sol.feasible) weights_ = sol.weights;
  journal_solve("flat");
}

void LoadBalanceController::solve_clustered() {
  const int n = connections();
  fns_.clear();
  for (const RateFunction& f : functions_) fns_.push_back(&f);

  status_.clusters = cluster_functions(fns_, config_.clustering);
  const int k = static_cast<int>(status_.clusters.size());
  if (journal_ != nullptr) {
    journal_->append(obs::JsonLine{}
                         .str("ev", "cluster")
                         .int_lists("clusters", status_.clusters)
                         .finish());
  }

  // One curve per cluster, fitted to the members' pooled raw evidence.
  // The curves and the merge buffers are reused from tick to tick.
  const auto ku = static_cast<std::size_t>(k);
  if (cluster_curves_.size() < ku) cluster_curves_.resize(ku);
  for (std::size_t c = 0; c < ku; ++c) {
    cluster_curves_[c].fit(merger_.merge(fns_, status_.clusters[c]),
                           config_.function.delta);
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
    for (ConnectionId j : status_.clusters[c]) {
      cluster_of_[static_cast<std::size_t>(j)] = static_cast<int>(c);
    }
  }

  vars_.assign(static_cast<std::size_t>(n),
               RapVariable{config_.min_weight, kWeightUnits});
  for (int j = 0; j < n; ++j) {
    if (down_[static_cast<std::size_t>(j)]) {
      vars_[static_cast<std::size_t>(j)] = RapVariable{0, 0};
    }
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
  status_.objective = sol.objective;
  status_.solver_feasible = sol.feasible;
  if (sol.feasible) weights_ = sol.weights;
  journal_solve("clustered");
}

}  // namespace slb
