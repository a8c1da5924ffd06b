#include "core/monotone_regression.h"

#include <cassert>

namespace slb {

void isotonic_push(std::vector<IsotonicBlock>& blocks, double value,
                   double weight) {
  assert(weight > 0.0);
  blocks.push_back({value, weight, 1});
  while (blocks.size() >= 2 &&
         blocks[blocks.size() - 2].mean >= blocks.back().mean) {
    const IsotonicBlock top = blocks.back();
    blocks.pop_back();
    IsotonicBlock& prev = blocks.back();
    const double combined = prev.weight + top.weight;
    prev.mean = (prev.mean * prev.weight + top.mean * top.weight) / combined;
    prev.weight = combined;
    prev.count += top.count;
  }
}

std::vector<double> isotonic_fit(std::span<const double> values,
                                 std::span<const double> weights) {
  assert(values.size() == weights.size());
  const std::size_t n = values.size();
  std::vector<double> fitted;
  if (n == 0) return fitted;

  // Classic stack-of-blocks PAVA. Each block covers a run of indices and
  // carries the weighted mean of its members; adjacent blocks whose means
  // violate monotonicity are pooled.
  std::vector<IsotonicBlock> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    isotonic_push(blocks, values[i], weights[i]);
  }

  fitted.reserve(n);
  for (const IsotonicBlock& b : blocks) {
    for (std::size_t k = 0; k < b.count; ++k) fitted.push_back(b.mean);
  }
  return fitted;
}

std::vector<double> isotonic_fit(std::span<const double> values) {
  const std::vector<double> ones(values.size(), 1.0);
  return isotonic_fit(values, ones);
}

bool is_non_decreasing(std::span<const double> values) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] < values[i - 1]) return false;
  }
  return true;
}

}  // namespace slb
