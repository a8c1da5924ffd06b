#include "sim/merger.h"

#include <cassert>

namespace slb::sim {

Merger::Merger(Simulator* sim, int connections, std::size_t capacity,
               bool ordered)
    : sim_(sim),
      core_(connections, delivery::DeliveryMode::kGapSkip, capacity),
      on_space_(static_cast<std::size_t>(connections)),
      refused_(static_cast<std::size_t>(connections), 0),
      emitted_from_(static_cast<std::size_t>(connections), 0),
      ordered_(ordered) {
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
  ++emitted_;
  ++emitted_from_[static_cast<std::size_t>(from)];
  if (metrics_.emitted != nullptr) metrics_.emitted->inc();
  if (metrics_.reorder_depth != nullptr) {
    // Tuples parked behind the sequence gate right now (the emitting one
    // is still queued in the core, so subtract it).
    const std::size_t queued = core_.queued();
    metrics_.reorder_depth->record(queued > 0 ? queued - 1 : 0);
  }
  if (on_emit_) on_emit_(t);
  return true;
}

void Merger::set_on_ack(std::function<void(std::uint64_t)> fn,
                        DurationNs latency) {
  on_ack_ = std::move(fn);
  ack_latency_ = latency;
}

void Merger::sync_discard_metrics() {
  if (metrics_.dup_discards != nullptr) {
    metrics_.dup_discards->advance_to(core_.dup_discards());
  }
  if (metrics_.late_discards != nullptr) {
    metrics_.late_discards->advance_to(core_.late_discards());
  }
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
      sync_discard_metrics();
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
        now, [this](int from, const Tuple& t) { return emit(from, t); },
        [this, now](std::uint64_t count, TimeNs declared_at) {
          if (metrics_.gaps != nullptr) metrics_.gaps->inc(count);
          if (metrics_.gap_wait_ns != nullptr) {
            for (std::uint64_t i = 0; i < count; ++i) {
              metrics_.gap_wait_ns->record(
                  static_cast<std::uint64_t>(now - declared_at));
            }
          }
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
  sync_discard_metrics();
  maybe_schedule_ack();
}

}  // namespace slb::sim
