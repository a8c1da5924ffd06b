// Test-only reference for the discrete-event engine: the plain version of
// sim::Simulator, a std::priority_queue of whole {time, seq,
// std::function} events. The production engine keeps fixed-delay events
// in per-delay FIFO lanes of inline cells beside a heap of {time, seq,
// slot} entries into a recycled slab; the SimulatorOracle tests
// (test_sim_event.cc) run the same seeded programs on both and require
// identical firing traces, clocks and counters, and micro_core's
// BM_SimulatorEventChurn rows time both.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/time.h"

namespace slb::testref {

class ReferenceSimulator {
 public:
  using EventFn = std::function<void()>;

  TimeNs now() const { return now_; }

  void schedule_at(TimeNs t, EventFn fn) {
    assert(t >= now_);
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }

  void schedule_after(DurationNs delay, EventFn fn) {
    assert(delay >= 0);
    schedule_at(now_ + delay, std::move(fn));
  }

  bool step() {
    if (queue_.empty()) return false;
    // priority_queue::top is const; the const_cast move is safe because we
    // pop immediately and never touch the moved-from function.
    Event& top = const_cast<Event&>(queue_.top());
    const TimeNs t = top.time;
    EventFn fn = std::move(top.fn);
    queue_.pop();
    now_ = t;
    ++events_processed_;
    fn();
    return true;
  }

  void run_until(TimeNs deadline) {
    while (!queue_.empty() && queue_.top().time <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

  void run_while(TimeNs deadline) {
    stop_requested_ = false;
    while (!stop_requested_ && !queue_.empty() &&
           queue_.top().time <= deadline) {
      step();
    }
    if (!stop_requested_ && now_ < deadline) now_ = deadline;
  }

  void stop() { stop_requested_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }
  bool idle() const { return queue_.empty(); }

 private:
  struct Event {
    TimeNs time;
    std::uint64_t seq;
    EventFn fn;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace slb::testref
