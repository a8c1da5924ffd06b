// Golden-trace regression test for the controller decision journal
// (DESIGN.md §8). A fixed-seed simulated run — 3 workers, adaptive LB
// with overload protection, load changes, a crash/recover fault — emits
// its decision journal, which must match the committed golden file
// byte-for-byte. Any change to the adaptation pipeline (observation
// smoothing, decay, clustering, solver, saturation detection) shows up
// here as a readable diff at the first divergent line.
//
// Regenerating after an *intentional* behavior change:
//   SLB_REGEN_GOLDEN=1 ./test_golden_trace
// then commit the updated tests/golden/decision_journal.jsonl.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.h"
#include "obs/journal.h"
#include "sim/fault.h"
#include "sim/region.h"
#include "util/time.h"

namespace slb {
namespace {

constexpr const char* kGoldenPath =
    SLB_GOLDEN_DIR "/decision_journal.jsonl";
constexpr const char* kCapacityGoldenPath =
    SLB_GOLDEN_DIR "/decision_journal_capacity.jsonl";

constexpr int kWorkers = 3;

ControllerConfig golden_controller(double decay_factor = 0.9) {
  ControllerConfig cfg;
  cfg.decay_factor = decay_factor;
  cfg.enable_overload_protection = true;
  cfg.saturation.enter_periods = 3;
  return cfg;
}

/// The fixed scenario. Everything here is deterministic: virtual time,
/// event-ordered faults, seeded policy. Returns the journal contents: the
/// controller's decisions and, with `capacity_lines`, the control loop's
/// per-period capacity lines as well.
obs::DecisionJournal run_scenario(std::unique_ptr<LoadBalancingPolicy> policy,
                                  bool capacity_lines = false) {
  sim::RegionConfig cfg;
  cfg.workers = kWorkers;
  cfg.base_cost = micros(6);
  cfg.send_overhead = 500;
  cfg.sample_period = millis(5);
  cfg.protection.admission_control = true;

  sim::LoadProfile load(cfg.workers);
  // Worker 0 slows down 3x mid-run, recovers later; a global burst
  // saturates the region long enough to trip the detector.
  load.add_step(0, millis(30), 3.0);
  load.add_step(0, millis(90), 1.0);
  for (int j = 0; j < cfg.workers; ++j) {
    load.add_step(j, millis(120), 6.0);
    load.add_step(j, millis(170), 1.0);
  }

  obs::DecisionJournal journal;
  policy->set_journal(&journal);

  sim::Region region(cfg, std::move(policy), load);
  if (capacity_lines) {
    region.set_journal(&journal);
    region.control().set_journal_capacity(true);
  }
  region.inject_fault({sim::FaultKind::kWorkerCrash, 2, millis(60), 0});
  region.inject_fault({sim::FaultKind::kWorkerRecover, 2, millis(80), 0});
  region.start();
  region.run_for(millis(220));

  // Moving the journal out would leave the policy pointing at a dead
  // object if the region kept running, but the run is over: copy.
  obs::DecisionJournal out;
  for (const std::string& line : journal.lines()) out.append(line);
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The scenario under the paper's rule.
obs::DecisionJournal run_scenario(double decay_factor = 0.9) {
  return run_scenario(std::make_unique<BlockingRatePolicy>(
      kWorkers, golden_controller(decay_factor)));
}

/// The same scenario under the capacity rule, with the loop's capacity
/// lines.
obs::DecisionJournal run_capacity_scenario() {
  return run_scenario(
      std::make_unique<LoadBalancingPolicy>(kWorkers, golden_controller()),
      /*capacity_lines=*/true);
}

bool contains(const obs::DecisionJournal& journal, std::string_view needle) {
  for (const std::string& l : journal.lines()) {
    if (l.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// Compares `journal` with the golden file at `path`, or rewrites the
/// file when SLB_REGEN_GOLDEN is set.
void expect_matches_golden(const obs::DecisionJournal& journal,
                           const char* path) {
  if (const char* regen = std::getenv("SLB_REGEN_GOLDEN");
      regen != nullptr && *regen != '\0') {
    ASSERT_TRUE(journal.write_jsonl(path)) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path << " (digest "
                 << journal.digest_hex() << ") — commit it";
  }

  const std::vector<std::string> golden = read_lines(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << path
      << " — run with SLB_REGEN_GOLDEN=1 to create it";

  // Readable failure: report the first divergent entry, not a wall of
  // bytes. A digest mismatch with identical lines is impossible by
  // construction (digest is over the lines).
  const std::size_t n = std::min(golden.size(), journal.lines().size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(journal.lines()[i], golden[i])
        << "decision journal diverges from " << path << " at entry " << i
        << " — if the adaptation change is intentional, regenerate with "
        << "SLB_REGEN_GOLDEN=1";
  }
  ASSERT_EQ(journal.entries(), golden.size())
      << "journal length changed (golden " << golden.size() << " entries)";
}

TEST(GoldenTrace, JournalIsNonTrivial) {
  const obs::DecisionJournal journal = run_scenario();
  // The scenario must actually exercise the pipeline: observations,
  // decay, solves, the fault path, and the saturation detector.
  EXPECT_GT(journal.entries(), 20u);
  EXPECT_TRUE(contains(journal, "\"ev\":\"observe\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"decay\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"solve\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"mark_down\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"mark_up\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"overload_enter\""));
}

TEST(GoldenTrace, TwoRunsAreByteIdentical) {
  const obs::DecisionJournal a = run_scenario();
  const obs::DecisionJournal b = run_scenario();
  ASSERT_EQ(a.entries(), b.entries());
  EXPECT_EQ(a.digest(), b.digest());
  for (std::size_t i = 0; i < a.lines().size(); ++i) {
    ASSERT_EQ(a.lines()[i], b.lines()[i]) << "first divergence at entry "
                                          << i;
  }
}

TEST(GoldenTrace, MatchesCommittedGolden) {
  expect_matches_golden(run_scenario(), kGoldenPath);
}

TEST(GoldenTrace, CapacityRuleMatchesCommittedGolden) {
  const obs::DecisionJournal journal = run_capacity_scenario();
  EXPECT_TRUE(contains(journal, "\"mode\":\"capacity\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"capacity\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"mark_up\""));
  EXPECT_TRUE(contains(journal, "\"ev\":\"overload_enter\""));
  EXPECT_EQ(journal.digest(), run_capacity_scenario().digest());
  expect_matches_golden(journal, kCapacityGoldenPath);
}

TEST(GoldenTrace, CatchesPerturbedDecayFactor) {
  // The negative control: a 0.9 -> 0.8 decay-factor change must move the
  // journal. If this fails, the golden test is not actually sensitive to
  // the controller's decision inputs.
  const obs::DecisionJournal baseline = run_scenario(0.9);
  const obs::DecisionJournal perturbed = run_scenario(0.8);
  EXPECT_NE(baseline.digest(), perturbed.digest());
}

}  // namespace
}  // namespace slb
