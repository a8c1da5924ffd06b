#include "core/clustering.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>

namespace slb {

Clusters cluster_functions(const std::vector<const RateFunction*>& functions,
                           double threshold) {
  const int n = static_cast<int>(functions.size());
  Clusters clusters;
  clusters.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) clusters.push_back({j});
  if (n <= 1) return clusters;

  const auto nu = static_cast<std::size_t>(n);
  const double alpha = distance_alpha();
  std::vector<DistanceFeatures> features;
  features.reserve(nu);
  for (const RateFunction* f : functions) {
    features.push_back(distance_features(*f));
  }

  // Knees are whole weights floored at kMinKnee, so they take few
  // distinct values: each ordered pair of distinct knees (told apart by
  // their bits) gets its knee term computed once.
  std::vector<std::uint64_t> knee_bits;
  std::vector<std::size_t> knee_of(nu);
  for (std::size_t a = 0; a < nu; ++a) {
    const auto bits = std::bit_cast<std::uint64_t>(features[a].knee);
    const auto it = std::find(knee_bits.begin(), knee_bits.end(), bits);
    knee_of[a] = static_cast<std::size_t>(it - knee_bits.begin());
    if (it == knee_bits.end()) knee_bits.push_back(bits);
  }
  const std::size_t kk = knee_bits.size();
  std::vector<double> knee_terms(kk * kk);
  std::vector<char> knee_done(kk * kk, 0);

  // linkage[a * n + b]: complete-linkage distance between the clusters in
  // slots a and b, the max over their cross-pairs (floored at 0, which
  // also keeps a NaN pair distance from counting). A merge into slot a
  // takes the elementwise max of the two rows: the max over the union.
  // A linkage above the threshold only ever loses the scan and keeps any
  // cluster that includes it above the threshold, so a pair distance
  // needs to be exact only up to the threshold.
  std::vector<double> linkage(nu * nu, 0.0);
  for (std::size_t a = 0; a < nu; ++a) {
    for (std::size_t b = a + 1; b < nu; ++b) {
      const std::size_t cell = knee_of[a] * kk + knee_of[b];
      if (!knee_done[cell]) {
        knee_done[cell] = 1;
        knee_terms[cell] = knee_term(features[a].knee, features[b].knee);
      }
      const double d =
          std::max(0.0, feature_distance(features[a], features[b], alpha,
                                         knee_terms[cell], threshold));
      linkage[a * nu + b] = d;
      linkage[b * nu + a] = d;
    }
  }

  // Live slots in cluster position order: a merge keeps the lower
  // position and removes the higher one, as erasing from a vector would,
  // so positions and slot numbers order the clusters alike.
  std::vector<std::size_t> slots(nu);
  for (std::size_t a = 0; a < nu; ++a) slots[a] = a;

  // Each live slot's nearest later slot: the smallest linkage to any live
  // slot after it, at the first such slot. Scanning these rows in order
  // with strict < finds the pair the full (i, j) scan would.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  std::vector<double> row_min(nu, kNone);
  std::vector<std::size_t> row_arg(nu, nu);
  const auto scan_row = [&](std::size_t pos) {
    const std::size_t a = slots[pos];
    const double* row = &linkage[a * nu];
    double best = kNone;
    std::size_t arg = nu;
    for (std::size_t p = pos + 1; p < slots.size(); ++p) {
      if (row[slots[p]] < best) {
        best = row[slots[p]];
        arg = slots[p];
      }
    }
    row_min[a] = best;
    row_arg[a] = arg;
  };
  for (std::size_t pos = 0; pos < nu; ++pos) scan_row(pos);

  while (slots.size() > 1) {
    double best = kNone;
    std::size_t bi = 0;
    for (std::size_t pos = 0; pos < slots.size(); ++pos) {
      if (row_min[slots[pos]] < best) {
        best = row_min[slots[pos]];
        bi = pos;
      }
    }
    if (best == kNone || best > threshold) break;
    const std::size_t a = slots[bi];
    const std::size_t b = row_arg[a];
    for (std::size_t s : slots) {
      if (s == a || s == b) continue;
      const double d = std::max(linkage[a * nu + s], linkage[b * nu + s]);
      linkage[a * nu + s] = d;
      linkage[s * nu + a] = d;
    }
    clusters[a].insert(clusters[a].end(), clusters[b].begin(),
                       clusters[b].end());
    slots.erase(std::find(slots.begin(), slots.end(), b));
    // Linkages to a only grew and b is gone, so a row's minimum moves
    // only if it sat at a or b; a's own row changed throughout.
    for (std::size_t pos = 0; pos < slots.size(); ++pos) {
      const std::size_t s = slots[pos];
      if (s == a || row_arg[s] == a || row_arg[s] == b) scan_row(pos);
    }
  }

  Clusters out;
  out.reserve(slots.size());
  for (std::size_t s : slots) out.push_back(std::move(clusters[s]));
  canonicalize(out);
  return out;
}

ClusterMerger::ClusterMerger()
    : cells_(static_cast<std::size_t>(kWeightUnits) + 1),
      seen_(static_cast<std::size_t>(kWeightUnits) + 1, 0) {}

const RawPoints& ClusterMerger::merge(
    const std::vector<const RateFunction*>& functions,
    const std::vector<ConnectionId>& members) {
  assert(!members.empty());
  // Each cell accumulates its members' evidence in member order.
  touched_.clear();
  for (ConnectionId m : members) {
    for (const auto& [w, p] : functions[static_cast<std::size_t>(m)]->raw()) {
      const auto wu = static_cast<std::size_t>(w);
      if (!seen_[wu]) {
        seen_[wu] = 1;
        touched_.push_back(w);
      }
      RawPoint& cell = cells_[wu];
      cell.value += p.value * p.weight;
      cell.weight += p.weight;
    }
  }
  std::sort(touched_.begin(), touched_.end());
  points_.clear();
  for (Weight w : touched_) {
    const auto wu = static_cast<std::size_t>(w);
    RawPoint cell = cells_[wu];
    if (cell.weight > 0.0) cell.value /= cell.weight;
    points_.emplace_back(w, cell);
    cells_[wu] = RawPoint{};
    seen_[wu] = 0;
  }
  return points_;
}

RateFunction merge_cluster_function(
    const std::vector<const RateFunction*>& functions,
    const std::vector<ConnectionId>& members) {
  ClusterMerger merger;
  RateFunction fn;
  fn.load_raw(merger.merge(functions, members));
  return fn;
}

void canonicalize(Clusters& clusters) {
  for (auto& c : clusters) std::sort(c.begin(), c.end());
  std::sort(clusters.begin(), clusters.end(),
            [](const std::vector<ConnectionId>& a,
               const std::vector<ConnectionId>& b) {
              return a.front() < b.front();
            });
}

}  // namespace slb
