// Dynamically shared hosts — the substrate for the paper's stated future
// work (Section 8): multiple parallel regions whose worker PEs share
// machines, so one region's activity *is* another region's exogenous
// load.
//
// Unlike HostModel (a static placement factor), a SharedHostSet tracks
// how many workers are busy on each host right now. A worker starting a
// tuple pays an oversubscription factor based on the instantaneous busy
// count: when a co-located region ramps up, everyone on that host slows
// down — which the other regions' controllers observe purely through
// their own blocking rates, with no shared state or coordination.
#pragma once

#include <cassert>
#include <vector>

#include "sim/host.h"

namespace slb::sim {

class SharedHostSet {
 public:
  explicit SharedHostSet(std::vector<HostSpec> specs) {
    hosts_.reserve(specs.size());
    for (const HostSpec& spec : specs) {
      assert(spec.speed > 0.0);
      assert(spec.threads > 0);
      hosts_.push_back(Host{spec, 0});
    }
  }

  int hosts() const { return static_cast<int>(hosts_.size()); }
  int busy(int host) const { return at(host).busy; }

  /// Marks one more worker busy on `host` and returns the service-time
  /// factor that worker should pay (oversubscription / speed), evaluated
  /// at the new occupancy.
  double begin_service(int host) {
    Host& h = at(host);
    ++h.busy;
    return h.spec.factor(h.busy);
  }

  /// Marks one worker idle again.
  void end_service(int host) {
    Host& h = at(host);
    assert(h.busy > 0);
    --h.busy;
  }

  /// The factor a worker *would* pay if it started now (no state change).
  double peek_factor(int host) const {
    const Host& h = at(host);
    return h.spec.factor(h.busy + 1);
  }

 private:
  struct Host {
    HostSpec spec;
    int busy;
  };

  Host& at(int host) {
    assert(host >= 0 && host < hosts());
    return hosts_[static_cast<std::size_t>(host)];
  }
  const Host& at(int host) const {
    assert(host >= 0 && host < hosts());
    return hosts_[static_cast<std::size_t>(host)];
  }

  std::vector<Host> hosts_;
};

}  // namespace slb::sim
