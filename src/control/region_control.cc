#include "control/region_control.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace slb::control {

ServiceCounters::ServiceCounters(obs::MetricsRegistry& metrics, int workers)
    : completed_(static_cast<std::size_t>(workers), 0),
      busy_(static_cast<std::size_t>(workers), 0) {
  for (int j = 0; j < workers; ++j) {
    hists_.push_back(
        &metrics.histogram("worker." + std::to_string(j) + ".service_ns"));
  }
}

ServiceSample ServiceCounters::read() {
  for (std::size_t j = 0; j < hists_.size(); ++j) {
    completed_[j] = hists_[j]->count();
    busy_[j] = static_cast<DurationNs>(hists_[j]->sum());
  }
  return {completed_, busy_};
}

RegionControlLoop::RegionControlLoop(int channels, SplitPolicy* policy,
                                     const ProtectionConfig& protection,
                                     DurationNs source_interval,
                                     const delivery::DeliveryConfig& delivery,
                                     obs::MetricsRegistry& metrics)
    : policy_(policy),
      protection_(protection),
      closed_loop_source_(source_interval == 0),
      at_least_once_(delivery.mode == delivery::DeliveryMode::kAtLeastOnce),
      ack_stall_periods_(at_least_once_ ? delivery.ack_stall_periods : 0),
      prev_cumulative_(static_cast<std::size_t>(channels), 0),
      down_(static_cast<std::size_t>(channels), 0),
      service_(channels),
      headroom_ring_(kHeadroomPeriods),
      throttle_gauge_(metrics.gauge("region.throttle_m")),
      watchdog_gauge_(metrics.gauge("region.watchdog_stage")),
      headroom_gauge_(metrics.gauge("region.headroom_m")),
      bottleneck_gauge_(metrics.gauge("region.bottleneck")) {
  assert(policy_ != nullptr);
  assert(channels > 0);
  if (policy_->weights().size() != static_cast<std::size_t>(channels)) {
    throw std::invalid_argument("RegionControlLoop: policy '" +
                                policy_->name() +
                                "' lacks one weight per channel");
  }
  actions_.block_rates.assign(static_cast<std::size_t>(channels), 0.0);
  capacity_gauges_.reserve(static_cast<std::size_t>(channels));
  std::string name = "region.capacity_tps.";
  const std::size_t prefix = name.size();
  for (int j = 0; j < channels; ++j) {
    name.resize(prefix);
    name += std::to_string(j);
    capacity_gauges_.push_back(&metrics.gauge(name));
  }
  bottleneck_gauge_.set(-1);
  actions_.shed_high = protection.shed_high_watermark;
  actions_.shed_low = protection.shed_low_watermark;
  throttle_gauge_.set(1000);
  policy_->attach_metrics(metrics, "policy.");
}

void RegionControlLoop::set_journal(obs::DecisionJournal* journal) {
  journal_ = journal;
  policy_->set_journal(journal);
}

void RegionControlLoop::check_ack_stall(TimeNs now, const DeliverySample& d,
                                        double aggregate) {
  const bool any_up = std::find(down_.begin(), down_.end(), 0) != down_.end();
  // A stall with every channel quarantined is expected (nothing can
  // deliver, let alone ack); the reconnect machinery owns that case.
  const bool stalled = d.unacked > 0 && d.cum_ack == prev_cum_ack_ && any_up;
  prev_cum_ack_ = d.cum_ack;
  if (!stalled) {
    ack_stall_streak_ = 0;
    return;
  }
  if (++ack_stall_streak_ < ack_stall_periods_) return;
  ack_stall_streak_ = 0;
  ++ack_stalls_;
  if (journal_ != nullptr) {
    obs::JsonLine line;
    line.str("ev", "ack_stall")
        .num("t", static_cast<std::int64_t>(now))
        .num("ack", d.cum_ack)
        .num("unacked", d.unacked);
    journal_->append(line.finish());
  }
  watchdog_escalate(now, aggregate);
}

void RegionControlLoop::publish_capacity(TimeNs now, DurationNs span) {
  if (!service_.ready()) return;
  double capacity = 0.0;
  std::uint64_t served = 0;
  for (std::size_t j = 0; j < down_.size(); ++j) {
    const int jj = static_cast<int>(j);
    if (service_.fresh()[j] >= 0.0) {
      capacity_gauges_[j]->set(std::llround(service_.capacity(jj)));
    }
    served += service_.served(jj);
    if (down_[j] == 0) capacity += service_.capacity(jj);
  }
  headroom_ring_[headroom_next_] = {capacity, served, span};
  headroom_next_ = (headroom_next_ + 1) % headroom_ring_.size();
  double capacity_sum = 0.0;
  double served_sum = 0.0;
  double span_sum = 0.0;
  int periods = 0;
  for (const HeadroomPeriod& p : headroom_ring_) {
    if (p.span <= 0) continue;
    capacity_sum += p.capacity;
    served_sum += static_cast<double>(p.served);
    span_sum += static_cast<double>(p.span);
    ++periods;
  }
  const double rate = span_sum > 0.0 ? served_sum * 1e9 / span_sum : 0.0;
  const double headroom = rate > 0.0 ? capacity_sum / periods / rate : 0.0;
  headroom_gauge_.set(std::llround(headroom * 1000.0));

  const WeightVector& weights = policy_->weights();
  int bottleneck = -1;
  double worst = -1.0;
  for (std::size_t j = 0; j < down_.size(); ++j) {
    const double c = service_.capacity(static_cast<int>(j));
    if (down_[j] != 0 || c <= 0.0) continue;
    const double load = static_cast<double>(weights[j]) / c;
    if (load > worst) {
      worst = load;
      bottleneck = static_cast<int>(j);
    }
  }
  bottleneck_gauge_.set(bottleneck);

  if (journal_ != nullptr && journal_capacity_) {
    std::vector<int> period_served(down_.size());
    for (std::size_t j = 0; j < down_.size(); ++j) {
      period_served[j] =
          static_cast<int>(service_.served(static_cast<int>(j)));
    }
    obs::JsonLine line;
    line.str("ev", "capacity")
        .num("t", static_cast<std::int64_t>(now))
        .ints("served", period_served)
        .reals("cap", service_.capacities())
        .real("headroom", headroom)
        .num("bottleneck", static_cast<std::int64_t>(bottleneck));
    journal_->append(line.finish());
  }
}

const ControlActions& RegionControlLoop::tick(
    TimeNs now, DurationNs span,
    std::span<const DurationNs> cumulative_blocked,
    const ServiceSample& service,
    std::span<const std::uint64_t> delivered,
    const DeliverySample& delivery) {
  assert(cumulative_blocked.size() == prev_cumulative_.size());

  // 1. Ingest: per-period blocking rates from the cumulative counters.
  double aggregate = 0.0;
  for (std::size_t j = 0; j < cumulative_blocked.size(); ++j) {
    const DurationNs delta = cumulative_blocked[j] - prev_cumulative_[j];
    const double rate =
        span > 0 ? static_cast<double>(delta) / static_cast<double>(span)
                 : 0.0;
    actions_.block_rates[j] = rate;
    aggregate += rate;
    prev_cumulative_[j] = cumulative_blocked[j];
  }

  // 2. Policy update on this period's capacity readings: decay /
  // regression / RAP solve or capacity allocation (or frozen weights under
  // declared overload, or safe-mode WRR) happen inside; every decision is
  // journaled by the controller itself.
  const bool read_service = !service.completed.empty();
  if (read_service) service_.ingest(service.completed, service.busy);
  policy_->on_sample(PolicySample{
      now, cumulative_blocked,
      read_service ? service_.fresh() : std::span<const double>{},
      delivered});

  // 3. Admission throttle, computed with the *current* watchdog stage —
  // an escalation this period takes effect on the next period's factor.
  if (protection_.admission_control && closed_loop_source_) {
    const SplitPolicy::OverloadState overload = policy_->overload_state();
    double factor = 1.0;
    if (overload.overloaded) {
      factor = std::clamp(1.0 - overload.capacity_deficit, kMinThrottle,
                          1.0);
    }
    if (stage_ >= 1) factor = kMinThrottle;
    actions_.throttle = factor;
    throttle_gauge_.set(static_cast<std::int64_t>(factor * 1000.0));
  }

  // 4. Watchdog ladder.
  if (protection_.watchdog) {
    if (aggregate >= kWatchdogBlockBudget) {
      calm_streak_ = 0;
      if (++hot_streak_ >= protection_.watchdog_periods) {
        hot_streak_ = 0;
        watchdog_escalate(now, aggregate);
      }
    } else {
      hot_streak_ = 0;
      if (stage_ > 0 && ++calm_streak_ >= protection_.watchdog_periods) {
        calm_streak_ = 0;
        watchdog_unwind(now, aggregate);
      }
    }
  }

  if (journal_ != nullptr && journal_ticks_) {
    obs::JsonLine line;
    line.str("ev", "control")
        .num("t", static_cast<std::int64_t>(now))
        .reals("rates", actions_.block_rates)
        .real("agg", aggregate)
        .real("throttle", actions_.throttle)
        .num("stage", static_cast<std::int64_t>(stage_))
        .num("shed_hi", actions_.shed_high)
        .num("shed_lo", actions_.shed_low)
        .boolean("safe", policy_->safe_mode())
        .ints("w", policy_->weights());
    journal_->append(line.finish());
  }

  // 5. Capacity gauges, from the readings the policy saw.
  if (read_service) publish_capacity(now, span);

  // 6. Ack-stall rung (at-least-once only), after the control line, so a
  // stall escalates the stage without changing this tick's line.
  if (ack_stall_periods_ > 0) check_ack_stall(now, delivery, aggregate);
  return actions_;
}

void RegionControlLoop::mark_channel_down(TimeNs now, int j,
                                          std::uint64_t replayed_tuples,
                                          std::uint64_t replayed_bytes) {
  assert(j >= 0 && j < static_cast<int>(down_.size()));
  if (at_least_once_ && journal_ != nullptr) {
    obs::JsonLine line;
    line.str("ev", "replay")
        .num("t", static_cast<std::int64_t>(now))
        .num("ch", static_cast<std::int64_t>(j))
        .num("tuples", replayed_tuples)
        .num("bytes", replayed_bytes);
    journal_->append(line.finish());
  }
  down_[static_cast<std::size_t>(j)] = 1;
  policy_->on_channel_down(j);
}

void RegionControlLoop::mark_channel_up(int j) {
  assert(j >= 0 && j < static_cast<int>(down_.size()));
  down_[static_cast<std::size_t>(j)] = 0;
  service_.restart(j);
  policy_->on_channel_up(j);
}

void RegionControlLoop::watchdog_escalate(TimeNs now, double aggregate) {
  if (stage_ >= 3) return;
  ++stage_;
  watchdog_gauge_.set(stage_);
  switch (stage_) {
    case 1:
      // Forced throttle: applied by the admission pass on closed-loop
      // sources from the next tick on. Nothing to do for open loop.
      break;
    case 2:
      if (protection_.shed_high_watermark > 0) {
        actions_.shed_high =
            std::max<std::uint64_t>(1, protection_.shed_high_watermark / 2);
        actions_.shed_low = protection_.shed_low_watermark / 2;
      }
      break;
    case 3:
      policy_->enter_safe_mode();
      break;
  }
  if (journal_ != nullptr) {
    obs::JsonLine line;
    line.str("ev", "watchdog_escalate")
        .num("t", static_cast<std::int64_t>(now))
        .num("stage", static_cast<std::int64_t>(stage_))
        .real("agg", aggregate);
    journal_->append(line.finish());
  }
}

void RegionControlLoop::watchdog_unwind(TimeNs now, double aggregate) {
  policy_->exit_safe_mode();
  actions_.shed_high = protection_.shed_high_watermark;
  actions_.shed_low = protection_.shed_low_watermark;
  actions_.throttle = 1.0;
  stage_ = 0;
  watchdog_gauge_.set(0);
  if (journal_ != nullptr) {
    obs::JsonLine line;
    line.str("ev", "watchdog_unwind")
        .num("t", static_cast<std::int64_t>(now))
        .real("agg", aggregate);
    journal_->append(line.finish());
  }
}

}  // namespace slb::control
