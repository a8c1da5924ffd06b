// Golden-output regression test for the flow layer (DESIGN.md §9).
//
// Eight fixed pipeline shapes — the load-balanced one- and two-stage
// pipelines, an unordered stage, an open-loop stage, the three overload
// protection shapes (watchdog ladder, source shedding, closed-loop
// admission) and the examples/pipeline_app application — each run in
// virtual time with a DecisionJournal attached to every parallel stage's
// control loop. The run is summarised slice by slice (delivered count,
// source throttle, shed count) and at the end (ordering, source blocking,
// latency, per-stage processed counts, journal digests, final weights),
// and the summary must match the committed golden file byte for byte.
// Any change to how a flow stage is wired, sampled or actuated shows up
// here as a readable diff at the first divergent line.
//
// Regenerating after an *intentional* behavior change:
//   SLB_REGEN_GOLDEN=1 ./test_flow_golden
// then commit the updated tests/golden/flow_pipeline.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/policies.h"
#include "flow/pipeline.h"
#include "obs/journal.h"
#include "util/time.h"

namespace slb::flow {
namespace {

constexpr const char* kGoldenPath = SLB_GOLDEN_DIR "/flow_pipeline.txt";

control::RegionControlLoop& stage_loop(Pipeline& p, int s) {
  return p.stage_region(s).control();
}

PipelineConfig fast_config() {
  PipelineConfig cfg;
  cfg.sample_period = millis(5);
  cfg.channel_buffer = 16;
  cfg.link_latency = micros(1);
  return cfg;
}

PipelineConfig overloaded_pipeline(bool open_loop) {
  PipelineConfig cfg;
  cfg.source_overhead = 200;
  cfg.sample_period = millis(5);
  if (open_loop) {
    cfg.source_interval =
        static_cast<DurationNs>(static_cast<double>(micros(10)) / 8.0);
  }
  return cfg;
}

ControllerConfig overload_controller() {
  ControllerConfig cfg;
  cfg.enable_overload_protection = true;
  cfg.saturation.smoothing_alpha = 1.0;
  cfg.saturation.enter_periods = 2;
  return cfg;
}

struct Shape {
  std::string name;
  std::function<std::unique_ptr<Pipeline>()> build;
  DurationNs slice;
  int slices;
};

/// Every load-balanced stage runs the paper's blocking-rate rule, which
/// the committed golden pins.
std::vector<Shape> shapes() {
  std::vector<Shape> out;
  out.push_back({"lb-one-stage", [] {
                   sim::LoadProfile load(4);
                   load.add_step(0, 0, 20.0);
                   PipelineBuilder b(fast_config());
                   b.op("pre", micros(1));
                   b.parallel("par", 4, micros(20),
                              std::make_unique<BlockingRatePolicy>(4),
                              true, std::move(load));
                   return b.build();
                 },
                 millis(100), 10});
  out.push_back({"lb-two-stages", [] {
                   sim::LoadProfile first_load(3);
                   first_load.add_step(1, 0, 15.0);
                   sim::LoadProfile second_load(3);
                   second_load.add_step(2, 0, 15.0);
                   PipelineBuilder b(fast_config());
                   b.parallel("stage-a", 3, micros(15),
                              std::make_unique<BlockingRatePolicy>(3),
                              true, std::move(first_load));
                   b.parallel("stage-b", 3, micros(15),
                              std::make_unique<BlockingRatePolicy>(3),
                              true, std::move(second_load));
                   return b.build();
                 },
                 millis(100), 10});
  out.push_back({"unordered", [] {
                   sim::LoadProfile load(2);
                   load.add_step(0, 0, 20.0);
                   PipelineBuilder b(fast_config());
                   b.parallel("par", 2, micros(10),
                              std::make_unique<RerouteOnBlockPolicy>(2),
                              /*ordered=*/false, std::move(load));
                   return b.build();
                 },
                 millis(10), 5});
  out.push_back({"open-loop", [] {
                   PipelineConfig cfg = fast_config();
                   cfg.source_interval = micros(20);
                   sim::LoadProfile load(2);
                   load.add_step(1, millis(50), 3.0);
                   PipelineBuilder b(cfg);
                   b.parallel("par", 2, micros(30),
                              std::make_unique<BlockingRatePolicy>(2),
                              true, std::move(load));
                   b.op("post", micros(2));
                   return b.build();
                 },
                 millis(20), 10});
  out.push_back({"overload-watchdog", [] {
                   PipelineConfig cfg = overloaded_pipeline(true);
                   cfg.protection.watchdog = true;
                   cfg.protection.watchdog_periods = 4;
                   PipelineBuilder b(cfg);
                   b.parallel("score", 4, micros(10),
                              std::make_unique<BlockingRatePolicy>(4));
                   return b.build();
                 },
                 millis(40), 10});
  out.push_back({"overload-shed", [] {
                   PipelineConfig cfg = overloaded_pipeline(true);
                   cfg.protection.shed_high_watermark = 128;
                   cfg.protection.shed_low_watermark = 64;
                   PipelineBuilder b(cfg);
                   b.parallel("score", 4, micros(10),
                              std::make_unique<BlockingRatePolicy>(
                                  4, overload_controller()));
                   return b.build();
                 },
                 millis(50), 10});
  out.push_back({"overload-admission", [] {
                   PipelineConfig cfg = overloaded_pipeline(false);
                   cfg.protection.admission_control = true;
                   ControllerConfig ctrl;
                   ctrl.enable_overload_protection = true;
                   PipelineBuilder b(cfg);
                   b.parallel("score", 4, micros(10),
                              std::make_unique<BlockingRatePolicy>(4, ctrl));
                   return b.build();
                 },
                 millis(50), 12});
  out.push_back({"pipeline-app", [] {
                   PipelineConfig cfg;
                   cfg.sample_period = millis(10);
                   sim::LoadProfile score_load(6);
                   score_load.add_load_until(0, 25.0, seconds_f(1.0));
                   score_load.add_load_until(1, 25.0, seconds_f(1.0));
                   PipelineBuilder b(cfg);
                   b.op("parse", micros(1));
                   b.op("enrich", micros(2));
                   b.parallel("score", 6, micros(30),
                              std::make_unique<BlockingRatePolicy>(6),
                              true, std::move(score_load));
                   b.op("emit", micros(1));
                   return b.build();
                 },
                 millis(200), 10});
  return out;
}

template <typename T>
std::string join(const std::vector<T>& values) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ' ';
    os << values[i];
  }
  os << ']';
  return os.str();
}

/// Runs one shape and returns its summary lines.
std::vector<std::string> run_shape(const Shape& shape) {
  std::vector<std::string> lines;
  lines.push_back("shape " + shape.name);
  std::unique_ptr<Pipeline> p = shape.build();

  // One journal per parallel stage, attached to its control loop (and
  // through it to the stage policy's controller).
  std::vector<int> parallel_stages;
  for (int s = 0; s < p->stages(); ++s) {
    if (p->stage_is_parallel(s)) parallel_stages.push_back(s);
  }
  std::vector<obs::DecisionJournal> journals(parallel_stages.size());
  for (std::size_t i = 0; i < parallel_stages.size(); ++i) {
    stage_loop(*p, parallel_stages[i]).set_journal(&journals[i]);
  }

  for (int k = 1; k <= shape.slices; ++k) {
    p->run_for(shape.slice);
    std::ostringstream os;
    os << "slice " << k << " delivered=" << p->delivered()
       << " throttle=" << obs::format_double(p->source_throttle())
       << " shed=" << p->shed_tuples();
    lines.push_back(os.str());
  }

  std::vector<std::uint64_t> processed;
  for (int s = 0; s < p->stages(); ++s) {
    processed.push_back(p->stage_processed(s));
  }
  std::ostringstream end;
  end << "end order_ok=" << p->order_ok()
      << " source_blocked=" << p->source_blocked()
      << " stage_processed=" << join(processed);
  lines.push_back(end.str());

  const RunningStats& lat = p->latency();
  std::ostringstream latency;
  latency << "latency count=" << lat.count()
          << " mean=" << obs::format_double(lat.mean())
          << " min=" << obs::format_double(lat.min())
          << " max=" << obs::format_double(lat.max())
          << " stddev=" << obs::format_double(lat.stddev());
  lines.push_back(latency.str());

  for (std::size_t i = 0; i < parallel_stages.size(); ++i) {
    const int s = parallel_stages[i];
    control::RegionControlLoop& loop = stage_loop(*p, s);
    std::ostringstream os;
    os << "stage " << s << ' ' << p->stage_name(s)
       << " journal_entries=" << journals[i].entries()
       << " journal_digest=" << journals[i].digest_hex()
       << " weights=" << join(loop.policy().weights());
    lines.push_back(os.str());
    loop.set_journal(nullptr);
  }
  return lines;
}

std::vector<std::string> run_all() {
  std::vector<std::string> lines;
  for (const Shape& shape : shapes()) {
    for (std::string& line : run_shape(shape)) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(FlowGolden, ShapesExerciseEveryPath) {
  const std::vector<std::string> lines = run_all();
  // Line `offset` after the "shape <name>" header.
  auto line_of = [&](std::string_view name, std::size_t offset) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i] == "shape " + std::string(name)) {
        return i + offset < lines.size() ? lines[i + offset] : std::string();
      }
    }
    return std::string();
  };
  // The shed shape sheds, the admission shape throttles at some point,
  // the unordered shape reorders, and the LB stages journal decisions.
  EXPECT_EQ(line_of("overload-shed", 10).find(" shed=0"), std::string::npos);
  bool throttled = false;
  for (std::size_t k = 1; k <= 12; ++k) {
    throttled = throttled ||
                line_of("overload-admission", k).find("throttle=1 ") ==
                    std::string::npos;
  }
  EXPECT_TRUE(throttled);
  EXPECT_EQ(line_of("unordered", 6).rfind("end order_ok=0", 0), 0u);
  EXPECT_EQ(line_of("lb-one-stage", 11).rfind("end order_ok=1", 0), 0u);
  EXPECT_EQ(line_of("lb-one-stage", 13).find("journal_entries=0 "),
            std::string::npos);
}

TEST(FlowGolden, MatchesCommittedGolden) {
  const std::vector<std::string> lines = run_all();

  if (const char* regen = std::getenv("SLB_REGEN_GOLDEN");
      regen != nullptr && *regen != '\0') {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    for (const std::string& line : lines) out << line << '\n';
    GTEST_SKIP() << "regenerated " << kGoldenPath << " — commit it";
  }

  const std::vector<std::string> golden = read_lines(kGoldenPath);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << kGoldenPath
      << " — run with SLB_REGEN_GOLDEN=1 to create it";
  const std::size_t n = std::min(golden.size(), lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(lines[i], golden[i])
        << "flow summary diverges from " << kGoldenPath << " at line " << i
        << " — if the change is intentional, regenerate with "
        << "SLB_REGEN_GOLDEN=1";
  }
  ASSERT_EQ(lines.size(), golden.size())
      << "summary length changed (golden " << golden.size() << " lines)";
}

}  // namespace
}  // namespace slb::flow
