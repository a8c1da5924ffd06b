// Test-only references for the load-balancing core: the plain versions of
// the smooth WRR scan, the dense blocking-rate fit, the O(N^3) complete-
// linkage clustering with its map-based cluster merge, and the heap-based
// Fox greedy. The production code replays WRR cycles, evaluates F_j from
// PAVA knots, caches the linkage matrix and runs Fox over a tournament
// tree; the *Oracle tests (test_core_oracle.cc) drive both with the same
// inputs and require bit-identical results. Also the RapProblem form of
// the RAP (a std::function eval) with the bisection and brute-force
// solvers that cross-check Fox (test_rap, test_rap_property,
// test_robustness).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "core/clustering.h"
#include "core/distance.h"
#include "core/rap.h"
#include "core/rate_function.h"
#include "core/types.h"

namespace slb::testref {

/// Smooth WRR with the O(N) scan on every pick.
class ScanWrr {
 public:
  explicit ScanWrr(int connections) : current_(connections, 0) {
    set_weights(even_weights(connections));
  }

  void set_weights(const WeightVector& weights) {
    assert(weights.size() == current_.size());
    weights_ = weights;
    total_ = 0;
    for (Weight w : weights_) total_ += w;
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      if (weights_[j] == 0 && current_[j] > 0) current_[j] = 0;
    }
  }

  const WeightVector& weights() const { return weights_; }

  ConnectionId pick() {
    if (total_ == 0) {
      const int n = static_cast<int>(weights_.size());
      const int choice = fallback_cursor_;
      fallback_cursor_ = (fallback_cursor_ + 1) % n;
      return choice;
    }
    int best = -1;
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      if (weights_[j] == 0) continue;
      current_[j] += weights_[j];
      if (best < 0 || current_[j] > current_[static_cast<std::size_t>(best)]) {
        best = static_cast<int>(j);
      }
    }
    current_[static_cast<std::size_t>(best)] -= total_;
    return best;
  }

 private:
  WeightVector weights_;
  std::vector<long long> current_;
  long long total_ = 0;
  int fallback_cursor_ = 0;
};

/// Stack-of-blocks PAVA, returning one fitted value per input.
inline std::vector<double> pava(const std::vector<double>& values,
                                const std::vector<double>& weights) {
  struct Block {
    double mean;
    double weight;
    std::size_t count;
  };
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < values.size(); ++i) {
    blocks.push_back({values[i], weights[i], 1});
    while (blocks.size() >= 2 &&
           blocks[blocks.size() - 2].mean >= blocks.back().mean) {
      const Block top = blocks.back();
      blocks.pop_back();
      Block& prev = blocks.back();
      const double combined = prev.weight + top.weight;
      prev.mean = (prev.mean * prev.weight + top.mean * top.weight) / combined;
      prev.weight = combined;
      prev.count += top.count;
    }
  }
  std::vector<double> fitted;
  for (const Block& b : blocks) {
    for (std::size_t k = 0; k < b.count; ++k) fitted.push_back(b.mean);
  }
  return fitted;
}

/// F_j kept as a std::map of raw points and refit into a dense table of
/// kWeightUnits + 1 values.
class DenseRateFunction {
 public:
  DenseRateFunction()
      : fitted_(static_cast<std::size_t>(kWeightUnits) + 1, 0.0) {}

  void observe(Weight w, double rate, double sample_weight = 1.0) {
    if (!std::isfinite(rate) || rate < 0.0) return;
    if (!std::isfinite(sample_weight)) return;
    if (w <= 0 || w > kWeightUnits) return;
    if (sample_weight <= 0.0) return;
    auto [it, inserted] = raw_.try_emplace(w, RawPoint{rate, sample_weight});
    if (!inserted) {
      RawPoint& p = it->second;
      p.value = RateFunction::kMixAlpha * rate +
                (1.0 - RateFunction::kMixAlpha) * p.value;
      p.weight = std::min(p.weight + sample_weight,
                          RateFunction::kMaxPointWeight);
    }
    dirty_ = true;
  }

  void decay_above(Weight w, double factor) {
    bool changed = false;
    for (auto it = raw_.upper_bound(w); it != raw_.end(); ++it) {
      it->second.value *= factor;
      changed = true;
    }
    if (changed) dirty_ = true;
  }

  void load_raw(const std::map<Weight, RawPoint>& points) {
    raw_ = points;
    raw_.erase(0);
    dirty_ = true;
  }

  void reset() {
    raw_.clear();
    dirty_ = true;
  }

  double value(Weight w) const {
    fit();
    return fitted_[static_cast<std::size_t>(w)];
  }

  Weight service_rate() const {
    fit();
    return service_rate_;
  }

  const std::map<Weight, RawPoint>& raw() const { return raw_; }

 private:
  void fit() const {
    if (!dirty_) return;
    dirty_ = false;
    std::vector<Weight> xs{0};
    std::vector<double> ys{0.0};
    std::vector<double> ws{1e9};
    for (const auto& [w, p] : raw_) {
      xs.push_back(w);
      ys.push_back(p.value);
      ws.push_back(std::max(p.weight, kDelta));
    }
    const std::vector<double> iso = pava(ys, ws);
    std::fill(fitted_.begin(), fitted_.end(), 0.0);
    for (std::size_t k = 0; k + 1 < xs.size(); ++k) {
      const Weight x0 = xs[k];
      const Weight x1 = xs[k + 1];
      const double y0 = iso[k];
      const double y1 = iso[k + 1];
      for (Weight x = x0; x <= x1; ++x) {
        const double t = (x1 == x0)
                             ? 0.0
                             : static_cast<double>(x - x0) /
                                   static_cast<double>(x1 - x0);
        fitted_[static_cast<std::size_t>(x)] = y0 + t * (y1 - y0);
      }
    }
    const Weight last = xs.back();
    if (last < kWeightUnits) {
      double slope = 0.0;
      if (xs.size() >= 2) {
        const Weight x0 = xs[xs.size() - 2];
        const double y0 = iso[xs.size() - 2];
        const double y1 = iso[xs.size() - 1];
        if (last > x0) slope = (y1 - y0) / static_cast<double>(last - x0);
      }
      const double base = iso.back();
      for (Weight x = last + 1; x <= kWeightUnits; ++x) {
        fitted_[static_cast<std::size_t>(x)] =
            base + slope * static_cast<double>(x - last);
      }
    }
    service_rate_ = kWeightUnits;
    for (Weight x = 0; x <= kWeightUnits; ++x) {
      if (fitted_[static_cast<std::size_t>(x)] > kDelta) {
        service_rate_ = x;
        break;
      }
    }
  }

  std::map<Weight, RawPoint> raw_;
  mutable std::vector<double> fitted_;
  mutable Weight service_rate_ = kWeightUnits;
  mutable bool dirty_ = true;
};

/// The paper's distance, evaluated per pair from the functions.
inline double pair_distance(const RateFunction& fj, const RateFunction& fk) {
  const double delta = kDelta;
  const double alpha = distance_alpha();
  const double sj = std::max(kMinKnee, static_cast<double>(fj.service_rate()));
  const double sk = std::max(kMinKnee, static_cast<double>(fk.service_rate()));
  const double bj_knee =
      std::max(delta, fj.value(static_cast<Weight>(
                          std::min<double>(sj, kWeightUnits))));
  const double bk_knee =
      std::max(delta, fk.value(static_cast<Weight>(
                          std::min<double>(sk, kWeightUnits))));
  const double bj_full = std::max(delta, fj.value(kWeightUnits));
  const double bk_full = std::max(delta, fk.value(kWeightUnits));
  const double d_knee = std::fabs(std::log(sj / sk));
  const double d_rate_knee = alpha * std::fabs(std::log(bj_knee / bk_knee));
  const double d_rate_full = alpha * std::fabs(std::log(bj_full / bk_full));
  return std::max({d_knee, d_rate_knee, d_rate_full});
}

/// Complete linkage recomputed over member pairs for every candidate pair
/// on every merge.
inline Clusters cluster_functions(
    const std::vector<const RateFunction*>& functions, double threshold) {
  const int n = static_cast<int>(functions.size());
  Clusters clusters;
  for (int j = 0; j < n; ++j) clusters.push_back({j});
  if (n <= 1) return clusters;
  const auto nu = static_cast<std::size_t>(n);
  std::vector<std::vector<double>> dist(nu, std::vector<double>(nu, 0.0));
  for (std::size_t a = 0; a < nu; ++a) {
    for (std::size_t b = a + 1; b < nu; ++b) {
      const double d = pair_distance(*functions[a], *functions[b]);
      dist[a][b] = d;
      dist[b][a] = d;
    }
  }
  const auto linkage = [&](const std::vector<ConnectionId>& ca,
                           const std::vector<ConnectionId>& cb) {
    double worst = 0.0;
    for (ConnectionId a : ca) {
      for (ConnectionId b : cb) {
        worst = std::max(worst, dist[static_cast<std::size_t>(a)]
                                    [static_cast<std::size_t>(b)]);
      }
    }
    return worst;
  };
  while (clusters.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0;
    std::size_t bj = 0;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        const double d = linkage(clusters[i], clusters[j]);
        if (d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    if (best > threshold) break;
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(bj));
  }
  canonicalize(clusters);
  return clusters;
}

/// A cluster's pooled raw evidence accumulated in a std::map.
inline std::map<Weight, RawPoint> merge_cluster_raw(
    const std::vector<const RateFunction*>& functions,
    const std::vector<ConnectionId>& members) {
  std::map<Weight, RawPoint> merged;
  for (ConnectionId m : members) {
    for (const auto& [w, p] : functions[static_cast<std::size_t>(m)]->raw()) {
      RawPoint& cell = merged[w];
      cell.value += p.value * p.weight;
      cell.weight += p.weight;
    }
  }
  for (auto& [w, p] : merged) {
    if (p.weight > 0.0) p.value /= p.weight;
  }
  return merged;
}

/// A RAP instance with a type-erased eval: the form the cross-check
/// solvers below take. `eval(j, w)` must be monotone non-decreasing in
/// `w` for every `j`.
struct RapProblem {
  std::function<double(int j, Weight w)> eval;
  std::vector<RapVariable> vars;
  Weight total = kWeightUnits;
};

/// The production Fox greedy, called through the problem's
/// std::function eval.
inline RapSolution solve_fox(const RapProblem& p) {
  assert(p.eval);
  return slb::solve_fox(p.vars, p.total, p.eval);
}

/// Binary search on the objective value in the spirit of Galil & Megiddo
/// (1979). Exact for monotone instances; cross-checks Fox.
inline RapSolution solve_bisect(const RapProblem& p) {
  assert(p.eval);
  rap_detail::validate(p.vars, p.total);
  const int n = static_cast<int>(p.vars.size());
  RapSolution sol;
  sol.weights.resize(static_cast<std::size_t>(n));
  Weight allocated = 0;
  for (int j = 0; j < n; ++j) {
    sol.weights[static_cast<std::size_t>(j)] =
        p.vars[static_cast<std::size_t>(j)].min;
    allocated += p.vars[static_cast<std::size_t>(j)].min;
  }
  if (allocated > p.total) {
    sol.objective = rap_detail::objective_of(p.eval, sol.weights);
    sol.feasible = false;
    return sol;
  }

  // Candidate objective values: every attainable F_j(w) in range. The
  // optimum must be one of them (or the mandatory floor max_j F_j(m_j)).
  std::vector<double> candidates;
  for (int j = 0; j < n; ++j) {
    const RapVariable& v = p.vars[static_cast<std::size_t>(j)];
    for (Weight w = v.min; w <= v.max; ++w) {
      candidates.push_back(rap_detail::safe_eval(p.eval, j, w));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // cap_j(lambda): largest w in [m_j, M_j] with F_j(w) <= lambda, found by
  // binary search thanks to monotonicity. Returns m_j - 1 when even the
  // minimum exceeds lambda.
  auto cap = [&](int j, double lambda) -> Weight {
    const RapVariable& v = p.vars[static_cast<std::size_t>(j)];
    if (rap_detail::safe_eval(p.eval, j, v.min) > lambda) return v.min - 1;
    Weight lo = v.min;
    Weight hi = v.max;
    while (lo < hi) {
      const Weight mid = lo + (hi - lo + 1) / 2;
      if (rap_detail::safe_eval(p.eval, j, mid) <= lambda) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };

  auto feasible_at = [&](double lambda) {
    Weight capacity = 0;
    for (int j = 0; j < n; ++j) {
      const Weight c = cap(j, lambda);
      if (c < p.vars[static_cast<std::size_t>(j)].min) return false;
      capacity += c;
      if (capacity >= p.total) return true;
    }
    return capacity >= p.total;
  };

  // Binary search the smallest feasible candidate.
  std::size_t lo = 0;
  std::size_t hi = candidates.size();  // one past the end == "none work"
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feasible_at(candidates[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  // Round-robin fill toward per-variable limits, one unit each per pass.
  // A front-to-back fill would dump the whole budget on the lowest index
  // whenever the functions tie (all-zero / all-identical F_j, the common
  // degenerate case); spreading matches the greedy solver's tie-break and
  // returns the uniform point.
  auto fill_round_robin = [&](const std::vector<Weight>& limit) {
    bool progress = true;
    while (allocated < p.total && progress) {
      progress = false;
      for (int j = 0; j < n && allocated < p.total; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        if (sol.weights[ju] < limit[ju]) {
          sol.weights[ju] += 1;
          allocated += 1;
          progress = true;
        }
      }
    }
  };

  if (lo == candidates.size()) {
    // Even the loosest lambda cannot place all traffic: capacity-bound.
    std::vector<Weight> limit(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      limit[static_cast<std::size_t>(j)] = p.vars[static_cast<std::size_t>(j)].max;
    }
    fill_round_robin(limit);
    sol.objective = rap_detail::objective_of(p.eval, sol.weights);
    sol.feasible = false;
    return sol;
  }

  const double lambda = candidates[lo];
  std::vector<Weight> limit(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    limit[static_cast<std::size_t>(j)] = cap(j, lambda);
  }
  fill_round_robin(limit);
  sol.objective = rap_detail::objective_of(p.eval, sol.weights);
  sol.feasible = allocated == p.total;
  return sol;
}

/// Exhaustive optimal objective (not weights), for tiny N and total
/// only: cost is O((total+1)^N).
inline double bruteforce_objective(const RapProblem& p) {
  assert(p.eval);
  rap_detail::validate(p.vars, p.total);
  const int n = static_cast<int>(p.vars.size());
  double best = std::numeric_limits<double>::infinity();
  WeightVector w(static_cast<std::size_t>(n), 0);

  // Depth-first enumeration of all assignments hitting the budget exactly.
  std::function<void(int, Weight, double)> go = [&](int j, Weight used,
                                                    double worst) {
    if (worst >= best) return;  // prune
    if (j == n) {
      if (used == p.total) best = std::min(best, worst);
      return;
    }
    const RapVariable& v = p.vars[static_cast<std::size_t>(j)];
    for (Weight x = v.min; x <= v.max; ++x) {
      const Weight next = used + x;
      if (next > p.total) break;
      go(j + 1, next, std::max(worst, rap_detail::safe_eval(p.eval, j, x)));
    }
  };
  go(0, 0, 0.0);
  return best;
}

/// Fox's greedy over a binary heap of pending units.
inline RapSolution solve_fox_heap(const RapProblem& p) {
  const auto safe = [&p](int j, Weight w) {
    const double v = p.eval(j, w);
    return std::isfinite(v) ? v : std::numeric_limits<double>::max();
  };
  const int n = static_cast<int>(p.vars.size());
  RapSolution sol;
  sol.weights.resize(static_cast<std::size_t>(n));
  Weight allocated = 0;
  for (int j = 0; j < n; ++j) {
    sol.weights[static_cast<std::size_t>(j)] =
        p.vars[static_cast<std::size_t>(j)].min;
    allocated += p.vars[static_cast<std::size_t>(j)].min;
  }
  const auto objective = [&] {
    double worst = 0.0;
    for (int j = 0; j < n; ++j) {
      worst = std::max(worst, safe(j, sol.weights[static_cast<std::size_t>(j)]));
    }
    return worst;
  };
  if (allocated > p.total) {
    sol.objective = objective();
    sol.feasible = false;
    return sol;
  }
  struct Entry {
    double value;
    Weight reached;
    int j;
    bool operator>(const Entry& o) const {
      if (value != o.value) return value > o.value;
      if (reached != o.reached) return reached > o.reached;
      return j > o.j;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  const auto push_next = [&](int j) {
    const auto ju = static_cast<std::size_t>(j);
    const Weight next = sol.weights[ju] + 1;
    if (next <= p.vars[ju].max) heap.push(Entry{safe(j, next), next, j});
  };
  for (int j = 0; j < n; ++j) push_next(j);
  while (allocated < p.total && !heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    sol.weights[static_cast<std::size_t>(e.j)] += 1;
    allocated += 1;
    push_next(e.j);
  }
  sol.objective = objective();
  sol.feasible = allocated == p.total;
  return sol;
}

}  // namespace slb::testref
