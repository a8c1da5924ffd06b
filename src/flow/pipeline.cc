#include "flow/pipeline.h"

#include <algorithm>
#include <cassert>

namespace slb::flow {

PipelineBuilder::PipelineBuilder(PipelineConfig config) : config_(config) {}

PipelineBuilder& PipelineBuilder::op(std::string name, DurationNs cost,
                                     sim::LoadProfile load) {
  assert(!consumed_);
  assert(cost > 0);
  StageSpec spec;
  spec.name = std::move(name);
  spec.parallel = false;
  spec.cost = cost;
  spec.load = std::move(load);
  specs_.push_back(std::move(spec));
  return *this;
}

PipelineBuilder& PipelineBuilder::parallel(std::string name, int width,
                                           DurationNs cost,
                                           std::unique_ptr<SplitPolicy> policy,
                                           bool ordered,
                                           sim::LoadProfile load) {
  assert(!consumed_);
  assert(width > 0);
  assert(cost > 0);
  assert(policy != nullptr);
  StageSpec spec;
  spec.name = std::move(name);
  spec.parallel = true;
  spec.width = width;
  spec.cost = cost;
  spec.policy = std::move(policy);
  spec.ordered = ordered;
  spec.load = std::move(load);
  specs_.push_back(std::move(spec));
  return *this;
}

std::unique_ptr<Pipeline> PipelineBuilder::build() {
  assert(!consumed_);
  assert(!specs_.empty());
  consumed_ = true;

  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline(config_));
  const control::ProtectionConfig& prot = config_.protection;
  sim::Simulator* sim = &pipeline->sim_;

  sim::Channel::Config chan_cfg;
  chan_cfg.send_capacity = config_.channel_buffer;
  chan_cfg.recv_capacity = config_.channel_buffer;
  chan_cfg.latency = config_.link_latency;

  // Pass 1: create stage shells and their input channels.
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    auto stage = std::make_unique<Pipeline::Stage>();
    stage->name = specs_[s].name;
    stage->parallel = specs_[s].parallel;
    stage->input = std::make_unique<sim::Channel>(
        sim, static_cast<int>(s), chan_cfg);
    pipeline->stages_.push_back(std::move(stage));
  }

  // Pass 2: wire each stage's machinery and its output adapter.
  pipeline->sink_.set_on_tuple([p = pipeline.get()](const sim::Tuple& t) {
    if (p->seen_any_ && t.seq <= p->last_seq_) p->order_ok_ = false;
    p->last_seq_ = t.seq;
    p->seen_any_ = true;
    p->latency_.add(static_cast<double>(p->sim_.now() - t.created));
  });

  for (std::size_t s = 0; s < specs_.size(); ++s) {
    StageSpec& spec = specs_[s];
    Pipeline::Stage& stage = *pipeline->stages_[s];

    sim::TupleSink* downstream;
    if (s + 1 < specs_.size()) {
      stage.out = std::make_unique<sim::ChannelSink>(
          pipeline->stages_[s + 1]->input.get());
      downstream = stage.out.get();
    } else {
      downstream = &pipeline->sink_;
    }

    if (!spec.parallel) {
      stage.load = std::make_unique<sim::LoadProfile>(
          spec.load.workers() == 0 ? sim::LoadProfile(1)
                                   : std::move(spec.load));
      assert(stage.load->workers() == 1);
      stage.worker = std::make_unique<sim::Worker>(
          sim, /*id=*/0, spec.cost, stage.load.get(), nullptr);
      stage.worker->wire(stage.input.get(), downstream, /*port=*/0);
      continue;
    }

    // Parallel region: splitter fed by the stage input, `width` channels
    // and workers, and an (un)ordered merger chained downstream.
    stage.load = std::make_unique<sim::LoadProfile>(
        spec.load.workers() == 0 ? sim::LoadProfile(spec.width)
                                 : std::move(spec.load));
    assert(stage.load->workers() == spec.width);
    stage.policy = std::move(spec.policy);
    stage.counters =
        std::make_unique<BlockingCounterSet>(static_cast<std::size_t>(
            spec.width));
    stage.merger = std::make_unique<sim::Merger>(
        sim, spec.width, sim::Merger::kUnbounded, spec.ordered);
    stage.merger->connect_downstream(downstream);

    std::vector<sim::Channel*> channel_ptrs;
    for (int j = 0; j < spec.width; ++j) {
      stage.channels.push_back(
          std::make_unique<sim::Channel>(sim, j, chan_cfg));
      stage.workers.push_back(std::make_unique<sim::Worker>(
          sim, j, spec.cost, stage.load.get(), nullptr));
      stage.workers.back()->wire(stage.channels.back().get(),
                                 stage.merger.get());
      channel_ptrs.push_back(stage.channels.back().get());
    }
    stage.splitter = std::make_unique<sim::Splitter>(
        sim, stage.policy.get(), config_.source_overhead);
    stage.splitter->wire(std::move(channel_ptrs), stage.counters.get());
    stage.splitter->set_input(stage.input.get());

    // Each parallel stage runs the shared decision pipeline over its own
    // counters and policy; actuation is aggregated onto the source in
    // Pipeline::sample_tick.
    stage.port = std::make_unique<Pipeline::StagePort>(&stage);
    control::ControlLoopConfig loop_cfg;
    loop_cfg.protection = prot;
    loop_cfg.closed_loop_source = config_.source_interval == 0;
    stage.loop = std::make_unique<control::RegionControlLoop>(
        stage.port.get(), stage.policy.get(), loop_cfg);

    if (config_.metrics) {
      obs::MetricsRegistry& reg = pipeline->metrics_;
      const std::string prefix = "stage." + stage.name + ".";
      sim::SplitterMetrics sm;
      sm.sent = &reg.counter(prefix + "splitter.sent");
      sm.blocks = &reg.counter(prefix + "splitter.blocks");
      sm.block_ns = &reg.histogram(prefix + "splitter.block_ns");
      sm.failovers = &reg.counter(prefix + "splitter.failovers");
      sm.rerouted = &reg.counter(prefix + "splitter.rerouted");
      sm.shed = &reg.counter(prefix + "splitter.shed");
      stage.splitter->set_metrics(sm);
      sim::MergerMetrics mm;
      mm.emitted = &reg.counter(prefix + "merger.emitted");
      mm.gaps = &reg.counter(prefix + "merger.gaps");
      mm.reorder_depth = &reg.histogram(prefix + "merger.reorder_depth");
      mm.gap_wait_ns = &reg.histogram(prefix + "merger.gap_wait_ns");
      stage.merger->set_metrics(mm);
      for (std::size_t j = 0; j < stage.workers.size(); ++j) {
        stage.workers[j]->set_service_histogram(&reg.histogram(
            prefix + "worker." + std::to_string(j) + ".service_ns"));
      }
      stage.policy->attach_metrics(reg, prefix + "policy.");
      stage.loop->attach_metrics(reg, prefix);
    }
  }

  // The source is a 1-connection splitter writing into stage 0's input.
  pipeline->source_policy_ = std::make_unique<RoundRobinPolicy>(1);
  pipeline->source_ = std::make_unique<sim::Splitter>(
      sim, pipeline->source_policy_.get(), config_.source_overhead,
      config_.source_interval);
  pipeline->source_->wire({pipeline->stages_.front()->input.get()},
                          &pipeline->source_counters_);
  if (config_.metrics) {
    obs::MetricsRegistry& reg = pipeline->metrics_;
    sim::SplitterMetrics sm;
    sm.sent = &reg.counter("source.sent");
    sm.blocks = &reg.counter("source.blocks");
    sm.block_ns = &reg.histogram("source.block_ns");
    sm.shed = &reg.counter("source.shed");
    pipeline->source_->set_metrics(sm);
    pipeline->throttle_gauge_ = &reg.gauge("source.throttle_m");
    pipeline->throttle_gauge_->set(1000);
  }
  if (prot.shed_high_watermark > 0) {
    // Shedding needs no gap accounting here: every stage splitter
    // restamps forwarded tuples with its own dense sequence stream, so a
    // source-side shed is invisible to downstream ordering.
    pipeline->source_->set_shed_watermarks(prot.shed_high_watermark,
                                           prot.shed_low_watermark);
    pipeline->applied_shed_high_ = prot.shed_high_watermark;
    pipeline->applied_shed_low_ = prot.shed_low_watermark;
  }
  return pipeline;
}

void Pipeline::ensure_started() {
  if (started_) return;
  started_ = true;
  source_->start();
  for (auto& stage : stages_) {
    if (stage->parallel) stage->splitter->start();
  }
  sim_.schedule_after(config_.sample_period, [this] { sample_tick(); });
}

void Pipeline::sample_tick() {
  // Run every parallel stage's decision pipeline, then aggregate the
  // resulting actions onto the single shared source: the throttle is the
  // min over stage factors (equivalently 1 - max capacity deficit,
  // floored at min_throttle, since clamp is monotone), and the shed
  // watermarks are the tightest any stage's watchdog demands.
  double factor = 1.0;
  bool throttled = false;
  std::uint64_t shed_high = config_.protection.shed_high_watermark;
  std::uint64_t shed_low = config_.protection.shed_low_watermark;
  for (auto& stage : stages_) {
    if (!stage->parallel) continue;
    const control::ControlActions& acts =
        stage->loop->tick(sim_.now(), config_.sample_period);
    if (acts.throttle_set) {
      throttled = true;
      factor = std::min(factor, acts.throttle);
    }
    if (config_.protection.shed_high_watermark > 0 && acts.shed_high < shed_high) {
      shed_high = acts.shed_high;
      shed_low = acts.shed_low;
    }
  }
  if (throttled) {
    source_throttle_ = factor;
    source_->set_throttle(factor);
    if (throttle_gauge_ != nullptr) {
      throttle_gauge_->set(static_cast<std::int64_t>(factor * 1000.0));
    }
  }
  if (config_.protection.shed_high_watermark > 0 &&
      (shed_high != applied_shed_high_ || shed_low != applied_shed_low_)) {
    applied_shed_high_ = shed_high;
    applied_shed_low_ = shed_low;
    source_->set_shed_watermarks(shed_high, shed_low);
  }
  sim_.schedule_after(config_.sample_period, [this] { sample_tick(); });
}

void Pipeline::run_for(DurationNs duration) {
  ensure_started();
  sim_.run_until(sim_.now() + duration);
}

std::uint64_t Pipeline::stage_processed(int s) const {
  const Stage& stage = *stages_[static_cast<std::size_t>(s)];
  return stage.parallel ? stage.merger->emitted()
                        : stage.worker->processed();
}

SplitPolicy& Pipeline::stage_policy(int s) {
  Stage& stage = *stages_[static_cast<std::size_t>(s)];
  assert(stage.parallel);
  return *stage.policy;
}

BlockingCounterSet& Pipeline::stage_counters(int s) {
  Stage& stage = *stages_[static_cast<std::size_t>(s)];
  assert(stage.parallel);
  return *stage.counters;
}

control::RegionControlLoop& Pipeline::stage_control(int s) {
  Stage& stage = *stages_[static_cast<std::size_t>(s)];
  assert(stage.parallel);
  return *stage.loop;
}

std::uint64_t Pipeline::shed_tuples() const { return source_->shed(); }

int Pipeline::StagePort::channels() const {
  return static_cast<int>(stage->workers.size());
}

std::vector<DurationNs> Pipeline::StagePort::sample_blocked() {
  return stage->counters->sample();
}

std::vector<std::uint64_t> Pipeline::StagePort::sample_delivered() {
  std::vector<std::uint64_t> delivered;
  delivered.reserve(stage->workers.size());
  for (std::size_t j = 0; j < stage->workers.size(); ++j) {
    delivered.push_back(stage->merger->emitted_from(static_cast<int>(j)));
  }
  return delivered;
}

}  // namespace slb::flow
