#include "sim/region.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace slb::sim {

Region::Region(RegionConfig config, std::unique_ptr<SplitPolicy> policy,
               LoadProfile load, HostModel hosts, Simulator* external_sim,
               SharedPlacement shared, Channel* input, TupleSink* downstream)
    : config_(config),
      policy_(std::move(policy)),
      load_(std::move(load)),
      hosts_(std::move(hosts)),
      lost_tuples_(metrics_.counter("region.lost_tuples")),
      owned_sim_(external_sim == nullptr ? std::make_unique<Simulator>()
                                         : nullptr),
      sim_(external_sim == nullptr ? owned_sim_.get() : external_sim) {
  assert(config_.workers > 0);
  assert(policy_ != nullptr);
  if (load_.workers() == 0) load_ = LoadProfile(config_.workers);
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument("Region of " +
                                std::to_string(config_.workers) +
                                " workers: " + what);
  };
  if (load_.workers() != config_.workers) {
    reject("load profile of width " + std::to_string(load_.workers()));
  }
  if (!hosts_.trivial() && hosts_.workers() < config_.workers) {
    reject("host model placing " + std::to_string(hosts_.workers()));
  }
  if (shared.hosts != nullptr) {
    if (shared.host_of.size() != static_cast<std::size_t>(config_.workers)) {
      reject("shared placement of width " +
             std::to_string(shared.host_of.size()));
    }
    for (const int h : shared.host_of) {
      if (h < 0 || h >= shared.hosts->hosts()) {
        reject("shared host " + std::to_string(h) + " of " +
               std::to_string(shared.hosts->hosts()));
      }
    }
  }
  // Zero would allow infinite same-instant sends, or reschedule the
  // sample tick at the same instant forever.
  if (config_.send_overhead <= 0) {
    reject("send_overhead " + std::to_string(config_.send_overhead));
  }
  if (config_.sample_period <= 0) {
    reject("sample_period " + std::to_string(config_.sample_period));
  }

  Channel::Config chan_cfg;
  chan_cfg.send_capacity = config_.channel_buffer;
  chan_cfg.recv_capacity = config_.channel_buffer;
  chan_cfg.latency = config_.link_latency;

  const std::size_t merge_cap =
      config_.merge_buffer == 0 ? Merger::kUnbounded : config_.merge_buffer;
  merger_ = std::make_unique<Merger>(sim_, metrics_, config_.workers,
                                     merge_cap, config_.ordered,
                                     config_.delivery.mode);
  service_ =
      std::make_unique<control::ServiceCounters>(metrics_, config_.workers);
  std::vector<Channel*> channel_ptrs;
  channel_ptrs.reserve(static_cast<std::size_t>(config_.workers));
  for (int j = 0; j < config_.workers; ++j) {
    channels_.push_back(std::make_unique<Channel>(sim_, j, chan_cfg));
    workers_.push_back(std::make_unique<Worker>(sim_, j, config_.base_cost,
                                                &load_, &hosts_));
    workers_.back()->wire(channels_.back().get(), merger_.get());
    workers_.back()->set_service_histogram(&service_->histogram(j));
    // Crash losses funnel into the merger so it skips the dead sequences
    // instead of gating on tuples that will never arrive (GapSkip). This
    // is a perfect failure detector, on purpose: the runtime merger
    // infers the same losses from ended streams (DESIGN.md §6), and exact
    // reports keep every sim trace independent of detection latency.
    // Under at-least-once the lost transmissions are replayed from the
    // splitter's buffers instead — declaring them gaps would let the
    // cursor skip sequences a replay is about to deliver.
    const auto lost = [this](const Tuple& t) {
      lost_tuples_.inc();
      if (!alo()) merger_->note_lost(t.seq, 1);
    };
    channels_.back()->set_on_lost(lost);
    workers_.back()->set_on_lost(lost);
    if (shared.hosts != nullptr) {
      workers_.back()->bind_shared_host(
          shared.hosts, shared.host_of[static_cast<std::size_t>(j)]);
    }
    channel_ptrs.push_back(channels_.back().get());
  }
  splitter_ = std::make_unique<Splitter>(
      sim_, metrics_, "splitter.", policy_.get(), std::move(channel_ptrs),
      config_.send_overhead, config_.source_interval, config_.delivery);
  if (input != nullptr) splitter_->set_input(input);
  if (downstream != nullptr) merger_->connect_downstream(downstream);

  if (alo()) {
    // The reverse hop: cumulative acks ride back to the splitter with
    // the same link latency as the forward direction.
    merger_->set_on_ack(
        [this](std::uint64_t cum) { splitter_->on_ack(cum); },
        config_.link_latency);
  }

  const control::ProtectionConfig& prot = config_.protection;
  if (prot.shed_high_watermark > 0) {
    splitter_->set_shed_watermarks(prot.shed_high_watermark,
                                   prot.shed_low_watermark);
    // Shed tuples consumed sequence numbers they will never deliver;
    // route them into the merger's gap set so ordered emission is not
    // gated on them and `emitted + gaps == sent + shed` holds.
    splitter_->set_on_shed([this](std::uint64_t first, std::uint64_t count) {
      merger_->note_lost(first, count);
    });
  }

  loop_ = std::make_unique<control::RegionControlLoop>(
      config_.workers, policy_.get(), prot, config_.source_interval,
      config_.delivery, metrics_);

  merger_->set_on_emit([this](const Tuple& /*t*/) {
    const std::uint64_t emitted = merger_->emitted();
    for (EmitTrigger& trigger : emit_triggers_) {
      if (!trigger.fired && emitted >= trigger.threshold) {
        trigger.fired = true;
        trigger.fn();
      }
    }
    if (stop_target_ != 0 && emitted >= stop_target_) {
      target_reached_at_ = sim_->now();
      sim_->stop();
    }
  });
}

void Region::inject_fault(const FaultEvent& fault) {
  if (fault.worker < 0 || fault.worker >= config_.workers) {
    throw std::invalid_argument(
        "Region: fault on worker " + std::to_string(fault.worker) + " of " +
        std::to_string(config_.workers));
  }
  sim_->schedule_at(fault.at, [this, fault] {
    apply_fault_now(fault.kind, fault.worker, fault.duration);
  });
}

void Region::apply_fault_now(FaultKind kind, int worker,
                             DurationNs duration) {
  const auto j = static_cast<std::size_t>(worker);
  switch (kind) {
    case FaultKind::kWorkerCrash: {
      if (workers_[j]->down()) return;
      // Order matters: quarantine the splitter first, so the blocked-on-j
      // release it may schedule routes around the dead connection and
      // finds the replayed unacked suffix pending; then kill the data
      // plane (reporting losses) and tell the control loop.
      const Splitter::ReplaySummary replay = splitter_->quarantine(worker);
      workers_[j]->crash();
      channels_[j]->fail();
      loop_->mark_channel_down(sim_->now(), worker, replay.tuples,
                               replay.bytes);
      break;
    }
    case FaultKind::kWorkerRecover:
      if (!workers_[j]->down()) return;
      channels_[j]->restore();
      workers_[j]->recover();
      splitter_->readmit(worker);
      loop_->mark_channel_up(worker);
      break;
    case FaultKind::kChannelStall:
      channels_[j]->stall(duration);
      break;
  }
}

void Region::at_emitted(std::uint64_t threshold, std::function<void()> fn) {
  emit_triggers_.push_back(EmitTrigger{threshold, std::move(fn), false});
}

void Region::ensure_started() {
  if (started_) return;
  started_ = true;
  splitter_->start();
  sim_->schedule_after(config_.sample_period, [this] { sample_tick(); });
}

void Region::sample_tick() {
  // Region-level per-period diagnostics.
  emitted_last_period_ = merger_->emitted() - prev_emitted_;
  prev_emitted_ = merger_->emitted();
  shed_last_period_ = splitter_->shed() - prev_shed_;
  prev_shed_ = splitter_->shed();

  // The whole decision pipeline — observation ingest, policy update,
  // admission throttle, watchdog ladder — runs in the shared control
  // loop on this period's sample, read in place from the splitter and
  // the merger; the region applies what it decides.
  const control::ControlActions& acts = loop_->tick(
      sim_->now(), config_.sample_period, splitter_->blocked_ns(),
      service_->read(), merger_->emitted_from(),
      {splitter_->acked(), splitter_->unacked()});
  // An input-fed (flow stage) splitter is not a source and ignores both.
  splitter_->set_throttle(acts.throttle);
  splitter_->set_shed_watermarks(acts.shed_high, acts.shed_low);

  if (sample_hook_) sample_hook_(*this);

  sim_->schedule_after(config_.sample_period, [this] { sample_tick(); });
}

void Region::run_for(DurationNs duration) {
  ensure_started();
  sim_->run_until(sim_->now() + duration);
}

RunResult Region::run_until_emitted(std::uint64_t target, TimeNs deadline) {
  ensure_started();
  RunResult result;
  if (merger_->emitted() >= target) {
    result.reached_target = true;
    result.emitted = merger_->emitted();
    result.finish_time = sim_->now();
    return result;
  }
  stop_target_ = target;
  target_reached_at_ = -1;
  sim_->run_while(deadline);
  stop_target_ = 0;

  result.emitted = merger_->emitted();
  result.reached_target = target_reached_at_ >= 0;
  result.finish_time =
      result.reached_target ? target_reached_at_ : deadline;
  return result;
}

}  // namespace slb::sim
