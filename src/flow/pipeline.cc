#include "flow/pipeline.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace slb::flow {

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
  // A zero period would reschedule the sample tick at the same instant
  // forever, with or without a parallel stage.
  if (config_.sample_period <= 0) {
    throw std::invalid_argument("PipelineBuilder: sample_period " +
                                std::to_string(config_.sample_period));
  }

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

    // A parallel stage is a region on the pipeline's timeline whose
    // splitter forwards the stage input and whose merger feeds the next
    // stage. Its control loop actuates only its own (input-fed) splitter,
    // where throttling and shedding do not apply; Pipeline::sample_tick
    // aggregates the loop's actions onto the shared source. The region
    // takes the source's interval so its loop knows whether the source is
    // closed-loop; the pacing never binds on an input-fed splitter, since
    // input tuple k arrives after the source released it.
    sim::RegionConfig region_cfg;
    region_cfg.workers = spec.width;
    region_cfg.base_cost = spec.cost;
    region_cfg.channel_buffer = config_.channel_buffer;
    region_cfg.ordered = spec.ordered;
    region_cfg.link_latency = config_.link_latency;
    region_cfg.send_overhead = config_.source_overhead;
    region_cfg.source_interval = config_.source_interval;
    region_cfg.sample_period = config_.sample_period;
    region_cfg.protection = prot;
    stage.region = std::make_unique<sim::Region>(
        region_cfg, std::move(spec.policy), std::move(spec.load),
        sim::HostModel{}, sim, sim::SharedPlacement{}, stage.input.get(),
        downstream);
  }

  // The source is a 1-connection splitter writing into stage 0's input.
  pipeline->source_policy_ = std::make_unique<RoundRobinPolicy>(1);
  pipeline->source_ = std::make_unique<sim::Splitter>(
      sim, pipeline->metrics_, "source.", pipeline->source_policy_.get(),
      std::vector<sim::Channel*>{pipeline->stages_.front()->input.get()},
      config_.source_overhead, config_.source_interval);
  pipeline->throttle_gauge_ = &pipeline->metrics_.gauge("source.throttle_m");
  pipeline->throttle_gauge_->set(1000);
  if (prot.shed_high_watermark > 0) {
    // Shedding needs no gap accounting here: every stage splitter
    // restamps forwarded tuples with its own dense sequence stream, so a
    // source-side shed is invisible to downstream ordering.
    pipeline->source_->set_shed_watermarks(prot.shed_high_watermark,
                                           prot.shed_low_watermark);
  }
  return pipeline;
}

void Pipeline::ensure_started() {
  if (started_) return;
  started_ = true;
  source_->start();
  // Each stage region schedules its own sample tick here, before the
  // pipeline's, so every period's stage ticks run before the aggregation.
  for (auto& stage : stages_) {
    if (stage->region != nullptr) stage->region->start();
  }
  sim_.schedule_after(config_.sample_period, [this] { sample_tick(); });
}

void Pipeline::sample_tick() {
  // Aggregate this period's stage actions onto the single shared source:
  // the throttle is the min over stage factors (equivalently 1 - max
  // capacity deficit, floored at kMinThrottle, since clamp is monotone),
  // and the shed watermarks are the tightest any stage's watchdog demands.
  double factor = 1.0;
  std::uint64_t shed_high = config_.protection.shed_high_watermark;
  std::uint64_t shed_low = config_.protection.shed_low_watermark;
  for (auto& stage : stages_) {
    if (stage->region == nullptr) continue;
    const control::ControlActions& acts =
        stage->region->control().last_actions();
    factor = std::min(factor, acts.throttle);
    if (acts.shed_high < shed_high) {
      shed_high = acts.shed_high;
      shed_low = acts.shed_low;
    }
  }
  source_->set_throttle(factor);
  throttle_gauge_->set(static_cast<std::int64_t>(factor * 1000.0));
  source_->set_shed_watermarks(shed_high, shed_low);
  sim_.schedule_after(config_.sample_period, [this] { sample_tick(); });
}

void Pipeline::run_for(DurationNs duration) {
  ensure_started();
  sim_.run_until(sim_.now() + duration);
}

std::uint64_t Pipeline::stage_processed(int s) const {
  const Stage& stage = *stages_[static_cast<std::size_t>(s)];
  return stage.region != nullptr ? stage.region->emitted()
                                 : stage.worker->processed();
}

sim::Region& Pipeline::stage_region(int s) {
  Stage& stage = *stages_[static_cast<std::size_t>(s)];
  assert(stage.region != nullptr);
  return *stage.region;
}

std::uint64_t Pipeline::shed_tuples() const { return source_->shed(); }

}  // namespace slb::flow
