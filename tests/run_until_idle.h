// Runs a discrete-event simulator (sim::Simulator or the reference
// engine in reference_event.h) until its event queue drains. Only tests
// need this: a region runs to a deadline.
#pragma once

namespace slb::sim {

template <typename Sim>
void run_until_idle(Sim& sim) {
  while (sim.step()) {
  }
}

}  // namespace slb::sim
