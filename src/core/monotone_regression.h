// Weighted monotone (isotonic) regression via the pool-adjacent-violators
// algorithm (PAVA).
//
// The paper (Section 5.1) forces each connection's raw blocking-rate data
// into non-decreasing order by "monotone regression" before interpolation.
// PAVA computes the non-decreasing sequence minimizing the weighted squared
// error to the input, in O(n).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace slb {

/// A run of consecutive points that PAVA has pooled to one fitted value.
struct IsotonicBlock {
  double mean;
  double weight;
  std::size_t count;
};

/// Appends one point (strictly positive `weight`) to a fit held as a stack
/// of blocks, pooling adjacent blocks that violate monotonicity. Pushing
/// every point in domain order into an empty vector gives the blocks of
/// isotonic_fit; callers that refit often keep the vector to reuse its
/// storage.
void isotonic_push(std::vector<IsotonicBlock>& blocks, double value,
                   double weight);

/// Computes the weighted L2 isotonic (non-decreasing) fit of `values`.
///
/// @param values observations y_i in domain order.
/// @param weights strictly positive sample weights; must match size.
/// @returns fitted values g_i with g_0 <= g_1 <= ... minimizing
///   sum_i weights[i] * (values[i] - g_i)^2.
std::vector<double> isotonic_fit(std::span<const double> values,
                                 std::span<const double> weights);

/// Unweighted convenience overload (all weights 1).
std::vector<double> isotonic_fit(std::span<const double> values);

/// True if `values` is non-decreasing.
bool is_non_decreasing(std::span<const double> values);

}  // namespace slb
