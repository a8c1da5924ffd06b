// Determinism and conservation invariants over a sweep of region
// configurations: identical configs replay identically, and tuples are
// neither lost nor duplicated anywhere in the pipeline.
#include <gtest/gtest.h>

#include <memory>

#include "sim/harness.h"
#include "util/rng.h"

namespace slb::sim {
namespace {

/// Builds a randomized-but-seed-determined experiment spec.
ExperimentSpec random_spec(std::uint64_t seed) {
  Rng rng(seed);
  ExperimentSpec spec;
  spec.workers = 2 + static_cast<int>(rng.below(7));  // 2..8
  spec.base_multiplies = 500 * (1 + static_cast<long>(rng.below(8)));
  spec.duration_paper_s = 40;
  const int loaded = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(spec.workers)));
  if (loaded > 0) {
    LoadClass cls;
    for (int w = 0; w < loaded; ++w) cls.workers.push_back(w);
    cls.multiplier = 2.0 + rng.uniform() * 48.0;
    cls.until_paper_s = rng.chance(0.5) ? 20.0 : -1.0;
    spec.loads.push_back(cls);
  }
  return spec;
}

PolicyKind random_policy(std::uint64_t seed) {
  switch (seed % 4) {
    case 0: return PolicyKind::kRoundRobin;
    case 1: return PolicyKind::kLbStatic;
    case 2: return PolicyKind::kLbAdaptive;
    default: return PolicyKind::kReroute;
  }
}

class RegionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionSweep, IdenticalConfigsReplayIdentically) {
  const ExperimentSpec spec = random_spec(GetParam());
  const PolicyKind kind = random_policy(GetParam());

  auto run = [&] {
    auto region = make_region(kind, spec);
    region->run_for(spec.scale.from_paper_seconds(spec.duration_paper_s));
    struct Snapshot {
      std::uint64_t emitted;
      std::uint64_t sent;
      std::uint64_t events;
      WeightVector weights;
      std::vector<DurationNs> blocked;
    };
    return Snapshot{region->emitted(), region->splitter().total_sent(),
                    region->simulator().events_processed(),
                    region->policy().weights(),
                    std::vector<DurationNs>(
                        region->splitter().blocked_ns().begin(),
                        region->splitter().blocked_ns().end())};
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.blocked, b.blocked);
}

TEST_P(RegionSweep, ConservationAndOrderInvariants) {
  const ExperimentSpec spec = random_spec(GetParam() ^ 0xfeed);
  const PolicyKind kind = random_policy(GetParam() >> 2);
  auto region = make_region(kind, spec);
  region->run_for(spec.scale.from_paper_seconds(spec.duration_paper_s));

  // Everything sent is either emitted or still inside a bounded buffer.
  const std::uint64_t sent = region->splitter().total_sent();
  const std::uint64_t emitted = region->emitted();
  EXPECT_LE(emitted, sent);
  std::uint64_t in_buffers = 0;
  for (int j = 0; j < region->workers(); ++j) {
    in_buffers += region->channel(j).occupancy();
    in_buffers += region->merger().queue_size(j);
    if (region->worker(j).busy() || region->worker(j).holding()) {
      ++in_buffers;
    }
  }
  EXPECT_EQ(sent, emitted + in_buffers);

  // Ordered merger: the emitted count equals the contiguous sequence
  // prefix (no gaps, no duplicates).
  EXPECT_EQ(region->merger().expected_seq(), emitted);

  // Per-connection sends sum to the total and respect the weights within
  // routing granularity.
  std::uint64_t per_conn = 0;
  for (int j = 0; j < region->workers(); ++j) {
    per_conn += region->splitter().sent(j);
  }
  EXPECT_EQ(per_conn, sent);

  // Weights always sum to the full allocation.
  EXPECT_EQ(total_weight(region->policy().weights()), kWeightUnits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionSweep,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(Determinism, HarnessRunsAreReproducible) {
  ExperimentSpec spec;
  spec.workers = 4;
  spec.base_multiplies = 1000;
  spec.duration_paper_s = 40;
  spec.loads.push_back({{0, 1}, 10.0, -1.0, 1.0 / 8.0});
  const std::uint64_t work = ideal_work(spec);
  const ExperimentResult a =
      run_fixed_work(PolicyKind::kLbAdaptive, spec, work);
  const ExperimentResult b =
      run_fixed_work(PolicyKind::kLbAdaptive, spec, work);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_DOUBLE_EQ(a.exec_time_paper_s, b.exec_time_paper_s);
  EXPECT_DOUBLE_EQ(a.final_throughput_mtps, b.final_throughput_mtps);
}

}  // namespace
}  // namespace slb::sim
