// Agglomerative clustering of connections by blocking-rate-function shape
// (paper Section 5.3).
//
// With many connections, the (roughly fixed) stream of blocking
// observations is spread thin and each per-connection function becomes
// unreliable. Connections that share a host — or just a performance class
// — behave alike, so we cluster functions with the paper's distance,
// aggregate each cluster's raw evidence into one function, solve the RAP
// over the (few) clusters, and hand each member its cluster's per-member
// weight.
#pragma once

#include <vector>

#include "core/distance.h"
#include "core/rate_function.h"

namespace slb {

/// The controller's clustering threshold: clusters merge while the
/// complete-linkage distance between the two closest is at most this.
inline constexpr double kClusterThreshold = 1.0;

/// A grouping of connection indices; every connection appears in exactly
/// one cluster.
using Clusters = std::vector<std::vector<ConnectionId>>;

/// Bottom-up agglomerative clustering with complete linkage. Deterministic:
/// ties merge the lexicographically smallest pair. Each function's
/// distance inputs are computed once and each pairwise distance once
/// (exactly up to the threshold; beyond it a pair can never merge). A
/// merge updates the linkage matrix and rescans only the rows whose
/// nearest later cluster moved, each in O(N). Clusters merge while the
/// complete-linkage distance between the two closest is at most
/// `threshold` (the controller passes kClusterThreshold).
Clusters cluster_functions(const std::vector<const RateFunction*>& functions,
                           double threshold);

/// Builds clusters' aggregate raw evidence (see merge_cluster_function)
/// in per-weight buffers that are reused from one call to the next.
class ClusterMerger {
 public:
  ClusterMerger();

  /// The aggregate raw points of `members`, in increasing weight order.
  /// Valid until the next call.
  const RawPoints& merge(const std::vector<const RateFunction*>& functions,
                      const std::vector<ConnectionId>& members);

 private:
  std::vector<RawPoint> cells_;  // all zero between calls
  std::vector<char> seen_;       // all zero between calls
  std::vector<Weight> touched_;
  RawPoints points_;
};

/// Builds the aggregate function for one cluster: at every weight observed
/// by any member, the evidence-weighted mean of the members' raw values,
/// with the members' sample weights summed. The result sees all the data
/// the members saw individually.
RateFunction merge_cluster_function(
    const std::vector<const RateFunction*>& functions,
    const std::vector<ConnectionId>& members);

/// Canonicalizes clusters for stable output: members sorted ascending,
/// clusters ordered by first member.
void canonicalize(Clusters& clusters);

}  // namespace slb
