// The controller on the fluid plant (tests/fluid_plant.h): rt-skew's
// two channels, 500 and 5000 tuples/s, sampled every 100 ms for 200 s,
// static or hopping every 25 periods, at dead times of 0-10 periods.
// Every case prints its numbers beside Oracle*'s.
#include <gtest/gtest.h>

#include <cstdio>

#include "fluid_plant.h"

namespace slb {
namespace {

fluid::PlantConfig plant(int d, int hop_every) {
  fluid::PlantConfig cfg;
  cfg.dead_periods = d;
  cfg.hop_every = hop_every;
  return cfg;
}

void report(const char* label, const fluid::PlantConfig& cfg,
            const fluid::PlantResult& r) {
  const fluid::PlantResult oracle = fluid::run_oracle(cfg);
  std::printf("%-22s d=%-2d hops=%-2d %6.0f tuples/s  w_loaded %d-%d  "
              "(Oracle* %6.0f)\n",
              label, cfg.dead_periods, cfg.hop_every, r.tput, r.loaded_min,
              r.loaded_max, oracle.tput);
}

TEST(FluidPlant, PaperRuleReproducesTheStaticRow) {
  // The blocking-rate rule's limit cycle under static skew: the static
  // row of ROADMAP's fluid probe table, to the tuple.
  const double expected[] = {5495.0, 4896.0, 4418.0};
  for (int d = 0; d <= 2; ++d) {
    const fluid::PlantConfig cfg = plant(d, 0);
    const fluid::PlantResult r = fluid::run_policy<BlockingRatePolicy>(cfg);
    report("paper rule, static", cfg, r);
    EXPECT_NEAR(r.tput, expected[d], 1.0) << "d=" << d;
  }
}

TEST(FluidPlant, PaperRuleIgnoresCompletions) {
  fluid::PlantConfig with = plant(2, 25);
  fluid::PlantConfig without = with;
  without.completions = false;
  EXPECT_EQ(fluid::run_policy<BlockingRatePolicy>(with).tput,
            fluid::run_policy<BlockingRatePolicy>(without).tput);
}

TEST(FluidPlant, CapacityRuleHoldsTheStaticOptimum) {
  for (int d : {0, 2, 5, 10}) {
    const fluid::PlantConfig cfg = plant(d, 0);
    const fluid::PlantResult r = fluid::run_policy<LoadBalancingPolicy>(cfg);
    report("capacity rule, static", cfg, r);
    EXPECT_GE(r.tput, 5000.0) << "d=" << d;
    // 91 is the capacity share of the loaded channel.
    EXPECT_GE(r.loaded_min, 61) << "d=" << d;
    EXPECT_LE(r.loaded_max, 137) << "d=" << d;
  }
}

TEST(FluidPlant, CapacityRuleRelearnsHops) {
  for (int d : {0, 1, 2, 5}) {
    const fluid::PlantConfig cfg = plant(d, 25);
    const fluid::PlantResult r = fluid::run_policy<LoadBalancingPolicy>(cfg);
    report("capacity rule, hops", cfg, r);
    EXPECT_GE(r.tput, 3500.0) << "d=" << d;
  }
  // The blocking-rate rule on the same hops, for the record.
  const fluid::PlantConfig cfg = plant(5, 25);
  report("paper rule, hops", cfg, fluid::run_policy<BlockingRatePolicy>(cfg));
}

TEST(FluidPlant, CapacityRuleWithoutCompletionsIsThePaperRule) {
  fluid::PlantConfig cfg = plant(1, 25);
  cfg.completions = false;
  EXPECT_EQ(fluid::run_policy<LoadBalancingPolicy>(cfg).tput,
            fluid::run_policy<BlockingRatePolicy>(cfg).tput);
}

TEST(FluidPlant, EvenCapacitiesStayEven) {
  // Symmetric channels: the capacity rule never starves either one.
  fluid::PlantConfig cfg = plant(2, 0);
  cfg.capacities = {2500.0, 2500.0};
  LoadBalanceController ctrl(2);
  ServiceMeter meter(2);
  Weight lowest = kWeightUnits;
  fluid::run_plant(cfg, ctrl.weights(),
                   [&](int, TimeNs now, const std::vector<DurationNs>& b,
                       const std::vector<std::uint64_t>& c,
                       const std::vector<DurationNs>& busy) {
                     meter.ingest(c, busy);
                     const WeightVector& w =
                         ctrl.update(now, b, meter.fresh());
                     lowest = std::min({lowest, w[0], w[1]});
                     return w;
                   });
  EXPECT_GE(lowest, 450);
}

}  // namespace
}  // namespace slb
