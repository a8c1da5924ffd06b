// Tests for the per-period trace recorder used by the in-depth figures.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/trace.h"

namespace slb::sim {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.workers = 2;
  spec.base_multiplies = 1000;
  return spec;
}

TEST(Trace, RecordsOneRowPerPeriod) {
  const ExperimentSpec spec = small_spec();
  auto region = make_region(PolicyKind::kRoundRobin, spec);
  TraceRecorder trace(spec.scale);
  trace.attach(*region);
  region->run_for(spec.scale.paper_second * 10);
  ASSERT_EQ(trace.rows().size(), 10u);
  EXPECT_NEAR(trace.rows().front().paper_s, 1.0, 1e-9);
  EXPECT_NEAR(trace.rows().back().paper_s, 10.0, 1e-9);
}

TEST(Trace, RowsCarryWeightsAndRates) {
  const ExperimentSpec spec = small_spec();
  auto region = make_region(PolicyKind::kLbAdaptive, spec);
  TraceRecorder trace(spec.scale);
  trace.attach(*region);
  region->run_for(spec.scale.paper_second * 5);
  for (const TraceRow& row : trace.rows()) {
    ASSERT_EQ(row.weights.size(), 2u);
    ASSERT_EQ(row.block_rates.size(), 2u);
    EXPECT_EQ(total_weight(row.weights), kWeightUnits);
    for (double r : row.block_rates) EXPECT_GE(r, 0.0);
  }
}

TEST(Trace, ClusterColumnOnlyWhenClustering) {
  const ExperimentSpec spec = small_spec();
  auto region = make_region(PolicyKind::kLbAdaptive, spec);
  TraceRecorder trace(spec.scale);
  trace.attach(*region);
  region->run_for(spec.scale.paper_second * 3);
  for (const TraceRow& row : trace.rows()) {
    EXPECT_TRUE(row.cluster_of.empty());
  }
}

TEST(Trace, ClusterAssignmentsRecordedWhenEnabled) {
  ExperimentSpec spec;
  spec.workers = 8;
  spec.base_multiplies = 2000;
  spec.controller.enable_clustering = true;
  spec.controller.clustering_min_connections = 4;
  spec.loads.push_back({{0, 1, 2, 3}, 20.0, -1.0});
  auto region = make_region(PolicyKind::kLbAdaptive, spec);
  TraceRecorder trace(spec.scale);
  trace.attach(*region);
  region->run_for(spec.scale.paper_second * 30);
  bool saw_clusters = false;
  for (const TraceRow& row : trace.rows()) {
    if (row.cluster_of.empty()) continue;
    saw_clusters = true;
    ASSERT_EQ(row.cluster_of.size(), 8u);
    for (int c : row.cluster_of) EXPECT_GE(c, 0);
  }
  EXPECT_TRUE(saw_clusters);
}

TEST(Trace, WritesWellFormedCsv) {
  const ExperimentSpec spec = small_spec();
  auto region = make_region(PolicyKind::kRoundRobin, spec);
  TraceRecorder trace(spec.scale);
  trace.attach(*region);
  region->run_for(spec.scale.paper_second * 4);

  const std::string path = ::testing::TempDir() + "/slb_trace_test.csv";
  ASSERT_TRUE(trace.write_csv(path));
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "paper_s,w0,w1,rate0,rate1,emitted,shed,overloaded");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 4);
  std::remove(path.c_str());
}

TEST(Trace, RenderWeightsProducesOneLinePerStride) {
  const ExperimentSpec spec = small_spec();
  auto region = make_region(PolicyKind::kRoundRobin, spec);
  TraceRecorder trace(spec.scale);
  trace.attach(*region);
  region->run_for(spec.scale.paper_second * 20);
  const std::string text = trace.render_weights(10);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("t="), std::string::npos);
}

TEST(Trace, RenderWeightsTreatsStrideBelowOneAsOne) {
  const ExperimentSpec spec = small_spec();
  auto region = make_region(PolicyKind::kRoundRobin, spec);
  TraceRecorder trace(spec.scale);
  trace.attach(*region);
  region->run_for(spec.scale.paper_second * 3);
  const std::string every = trace.render_weights(1);
  EXPECT_EQ(std::count(every.begin(), every.end(), '\n'), 3);
  EXPECT_EQ(trace.render_weights(0), every);
  EXPECT_EQ(trace.render_weights(-1), every);
}

}  // namespace
}  // namespace slb::sim
