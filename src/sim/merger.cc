#include "sim/merger.h"

#include <cassert>

namespace slb::sim {

Merger::Merger(Simulator* sim, obs::MetricsRegistry& metrics,
               int connections, std::size_t capacity, bool ordered,
               delivery::DeliveryMode mode)
    : sim_(sim),
      core_(metrics, connections,
            ordered ? mode : delivery::DeliveryMode::kGapSkip, capacity),
      on_space_(static_cast<std::size_t>(connections)),
      refused_(static_cast<std::size_t>(connections), 0),
      emitted_from_(static_cast<std::size_t>(connections), 0),
      ordered_(ordered),
      emitted_(metrics.counter("merger.emitted")),
      reorder_depth_(metrics.histogram("merger.reorder_depth")),
      gap_wait_ns_(metrics.histogram("merger.gap_wait_ns")) {
  assert(sim != nullptr);
  assert(connections > 0);
  assert(capacity > 0);
}

void Merger::set_on_space(int j, std::function<void()> fn) {
  on_space_[static_cast<std::size_t>(j)] = std::move(fn);
}

void Merger::connect_downstream(TupleSink* downstream) {
  downstream_ = downstream;
  // When the downstream frees space, resume draining (ordered mode) —
  // a zero-delay event keeps the call stack flat.
  downstream_->set_on_space(0, [this] {
    sim_->schedule_after(0, [this] { drain(); });
  });
}

bool Merger::emit(int from, const Tuple& t) {
  if (downstream_ != nullptr && !downstream_->offer(0, t)) return false;
  emitted_.inc();
  ++emitted_from_[static_cast<std::size_t>(from)];
  // Tuples parked behind the sequence gate right now (the emitting one is
  // still queued in the core, so subtract it).
  const std::size_t queued = core_.queued();
  reorder_depth_.record(queued > 0 ? queued - 1 : 0);
  if (on_emit_) on_emit_(t);
  return true;
}

void Merger::set_on_ack(std::function<void(std::uint64_t)> fn,
                        DurationNs latency) {
  on_ack_ = std::move(fn);
  ack_latency_ = latency;
}

void Merger::maybe_schedule_ack() {
  if (!on_ack_ || ack_scheduled_ || core_.unacked() == 0) return;
  // One coalesced in-flight ack at a time: the value is read at fire
  // time, so progress made while it was in flight rides along — the
  // cumulative encoding makes dropped/merged acks free.
  ack_scheduled_ = true;
  sim_->schedule_after(ack_latency_, [this] {
    ack_scheduled_ = false;
    if (core_.unacked() > 0) {
      on_ack_(core_.take_ack());
      maybe_schedule_ack();  // progress during the flight, if any
    }
  });
}

bool Merger::try_push(int j, Tuple t) {
  // Stale arrivals (already released, or declared a gap) are accepted and
  // dropped so the worker does not retry a tuple that must never be
  // emitted.
  switch (core_.offer(j, t)) {
    case Core::Offer::kFull:
      refused_[static_cast<std::size_t>(j)] = 1;
      return false;
    case Core::Offer::kStale:
      return true;
    case Core::Offer::kAccepted:
      drain();
      return true;
  }
  return true;
}

void Merger::note_lost(std::uint64_t first, std::uint64_t count) {
  if (!ordered_) return;  // no sequence gating to un-stick
  // A range already behind the cursor cannot happen for real losses; the
  // early return keeps the call idempotent.
  if (first + count <= core_.expected()) return;
  core_.note_lost(first, count, sim_->now());
  drain();
}

void Merger::drain() {
  const TimeNs now = sim_->now();
  if (ordered_) {
    core_.release(
        [this](int from, const Tuple& t) { return emit(from, t); },
        [this, now](std::uint64_t count, TimeNs declared_at) {
          gap_wait_ns_.record(static_cast<std::uint64_t>(now - declared_at),
                              count);
        });
  } else {
    // Parallel sinks: no sequence gating — the queues only hold tuples
    // the downstream refused.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (int j = 0; j < static_cast<int>(on_space_.size()); ++j) {
        while (const Tuple* t = core_.head(j)) {
          if (!emit(j, *t)) break;
          core_.pop(j);
          progressed = true;
        }
      }
    }
  }
  // Un-stall refused workers whose queues gained space — decoupled
  // through the event queue so a long drain cannot recurse through worker
  // code. A worker that was not refused holds no result, so waking it
  // would be a no-op poll (DESIGN.md §10).
  core_.take_freed([this](int j) {
    const auto ju = static_cast<std::size_t>(j);
    if (refused_[ju] == 0) return;
    refused_[ju] = 0;
    if (on_space_[ju]) sim_->schedule_after(0, on_space_[ju]);
  });
  maybe_schedule_ack();
}

}  // namespace slb::sim
