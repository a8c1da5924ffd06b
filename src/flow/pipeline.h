// A small dataflow layer over the simulator: linear pipelines of
// operators with embedded data-parallel regions — the shape of the
// paper's Figure 1 application (Src -> ... -> splitter -> F_1..F_N ->
// merger -> ... -> Sink), minus task-parallel side branches.
//
// Every hop is a bounded TCP-like channel, so back pressure propagates
// end to end: a slow stage eventually stalls the source, and a parallel
// region's splitter measures per-connection blocking exactly as in a
// standalone region. Each parallel stage *is* a sim::Region on the
// pipeline's simulator, fed by the stage's input channel and chained into
// the next stage, so it runs its own routing policy (LB-adaptive and
// friends), control loop, metrics and fault injection.
//
//   flow::PipelineBuilder b;
//   b.op("parse", micros(2))
//    .parallel("score", 4, micros(20),
//              std::make_unique<LoadBalancingPolicy>(4, ControllerConfig{}))
//    .op("sink-prep", micros(1));
//   auto p = b.build();
//   p->run_for(seconds(1));
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/protection.h"
#include "core/policies.h"
#include "obs/metrics.h"
#include "sim/channel.h"
#include "sim/event.h"
#include "sim/load_profile.h"
#include "sim/region.h"
#include "sim/sink.h"
#include "sim/splitter.h"
#include "sim/worker.h"
#include "util/stats.h"
#include "util/time.h"

namespace slb::flow {

struct PipelineConfig {
  /// Source pacing: 0 = closed loop (a tuple is always available).
  DurationNs source_interval = 0;
  /// Source per-tuple cost (bounds the maximum input rate).
  DurationNs source_overhead = 100;
  /// Channel buffer depth (send and receive sides) for every hop.
  std::size_t channel_buffer = 32;
  DurationNs link_latency = micros(2);
  /// Sampling / policy-update period for parallel stages; must be
  /// positive.
  DurationNs sample_period = millis(10);

  /// Protection knobs (DESIGN.md §7, §9), enforced by each parallel
  /// stage region's control::RegionControlLoop and aggregated onto the
  /// pipeline's single source: admission throttle = min over stage
  /// factors (equivalently 1 - max capacity deficit, floored at
  /// control::kMinThrottle), shed watermarks = the tightest across
  /// stages, and the full watchdog ladder (forced throttle → tightened
  /// shedding → safe-mode WRR) per stage.
  control::ProtectionConfig protection;
};

class Pipeline;

class PipelineBuilder {
 public:
  explicit PipelineBuilder(PipelineConfig config = {}) : config_(config) {}

  /// Appends a single-PE operator with the given per-tuple cost.
  /// `load` (optional, 1 worker) imposes time-varying external load.
  PipelineBuilder& op(std::string name, DurationNs cost,
                      sim::LoadProfile load = {});

  /// Appends a data-parallel region (a sim::Region): splitter + `width`
  /// replicas + in-order merger (or parallel sinks when `ordered` is
  /// false), balanced by `policy`. `load` (optional, `width` workers)
  /// imposes per-replica external load.
  PipelineBuilder& parallel(std::string name, int width, DurationNs cost,
                            std::unique_ptr<SplitPolicy> policy,
                            bool ordered = true,
                            sim::LoadProfile load = {});

  /// Assembles the pipeline. The builder is consumed. Throws
  /// std::invalid_argument before building anything for a
  /// `sample_period` that is not positive.
  std::unique_ptr<Pipeline> build();

 private:
  friend class Pipeline;

  struct StageSpec {
    std::string name;
    bool parallel = false;
    int width = 1;
    DurationNs cost = 0;
    std::unique_ptr<SplitPolicy> policy;
    bool ordered = true;
    sim::LoadProfile load;
  };

  PipelineConfig config_;
  std::vector<StageSpec> specs_;
  bool consumed_ = false;
};

/// An assembled, runnable pipeline.
class Pipeline {
 public:
  /// Runs for `duration` virtual time (the source starts on first use).
  void run_for(DurationNs duration);

  /// Tuples that reached the terminal sink.
  std::uint64_t delivered() const { return sink_.count(); }

  /// True while every delivered tuple has arrived in sequence order.
  bool order_ok() const { return order_ok_; }

  int stages() const { return static_cast<int>(stages_.size()); }
  const std::string& stage_name(int s) const {
    return stages_[static_cast<std::size_t>(s)]->name;
  }
  bool stage_is_parallel(int s) const {
    return stages_[static_cast<std::size_t>(s)]->region != nullptr;
  }
  /// Tuples the stage has fully processed (for parallel stages: released
  /// by its merger).
  std::uint64_t stage_processed(int s) const;

  /// The region of a parallel stage (asserts on op stages): its policy,
  /// control loop, splitter, merger, metrics registry and
  /// fault injection.
  sim::Region& stage_region(int s);

  sim::Simulator& simulator() { return sim_; }
  TimeNs now() const { return sim_.now(); }

  /// Cumulative time the *source* spent blocked: end-to-end back
  /// pressure reaching the front of the pipeline.
  DurationNs source_blocked() const {
    return source_->blocked_ns()[0];
  }

  /// End-to-end tuple latency (source release -> terminal sink), over
  /// every delivered tuple.
  const RunningStats& latency() const { return latency_; }

  /// Current admission-control factor on the source (1.0 = unthrottled).
  double source_throttle() const { return source_->throttle(); }

  /// Tuples shed at the source so far. Each consumed a source sequence
  /// number, but stage splitters restamp forwarded tuples with their own
  /// dense streams, so sheds are invisible to downstream ordering.
  std::uint64_t shed_tuples() const;

  /// The pipeline's metrics registry (DESIGN.md §8): "source.*" for the
  /// source splitter. Each parallel stage's splitter, merger, worker,
  /// control-loop and policy metrics live in its region's own registry
  /// (`stage_region(s).metrics()`) under the standalone names.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  friend class PipelineBuilder;

  struct Stage {
    std::string name;
    std::unique_ptr<sim::Channel> input;  // upstream writes, stage reads
    std::unique_ptr<sim::TupleSink> out;  // adapter into the next input

    // Op stages:
    std::unique_ptr<sim::LoadProfile> load;
    std::unique_ptr<sim::Worker> worker;

    // Parallel stages. Declared last so it is destroyed before the
    // input channel and output adapter it holds pointers into.
    std::unique_ptr<sim::Region> region;
  };

  explicit Pipeline(PipelineConfig config) : config_(config) {}

  void ensure_started();
  void sample_tick();

  PipelineConfig config_;
  /// Declared before the source that holds handles into it.
  obs::MetricsRegistry metrics_;
  obs::Gauge* throttle_gauge_ = nullptr;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<Stage>> stages_;

  std::unique_ptr<RoundRobinPolicy> source_policy_;
  std::unique_ptr<sim::Splitter> source_;

  sim::CountingSink sink_;
  RunningStats latency_;
  std::uint64_t last_seq_ = 0;
  bool seen_any_ = false;
  bool order_ok_ = true;
  bool started_ = false;
};

}  // namespace slb::flow
