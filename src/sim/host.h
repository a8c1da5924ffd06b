// Host capacity model — substitutes for the paper's physical machines
// (Section 6: "slow" 2x Xeon X5365 / 8 cores @ 3.0 GHz and "fast"
// 2x Xeon X5687 / 8 cores x 2 SMT @ 3.6 GHz).
//
// A host has a relative `speed` (service times divide by it) and a
// `threads` capacity. Placing more PEs on a host than it has hardware
// threads oversubscribes it: every PE on that host slows down by the
// oversubscription ratio, which reproduces the All-Slow degradation at
// 16+ PEs in Figure 11.
#pragma once

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

namespace slb::sim {

struct HostSpec {
  double speed = 1.0;  // relative per-thread speed; slow host = 1.0
  int threads = 8;     // hardware threads the host can run concurrently

  /// Service-time multiplier for a PE on this host while `pes` PEs share
  /// it: oversubscription / speed.
  double factor(int pes) const {
    return std::max(1.0, static_cast<double>(pes) /
                             static_cast<double>(threads)) /
           speed;
  }
};

/// Immutable placement of workers onto hosts; computes the effective
/// service-time factor per worker.
class HostModel {
 public:
  /// By default every worker runs on its own dedicated speed-1 host.
  HostModel() = default;

  /// Worker w runs on hosts[worker_host[w]]. Throws
  /// std::invalid_argument for a host index outside `hosts`.
  HostModel(std::vector<HostSpec> hosts, std::vector<int> worker_host)
      : hosts_(std::move(hosts)), worker_host_(std::move(worker_host)) {
    for (int h : worker_host_) {
      if (h < 0 || h >= static_cast<int>(hosts_.size())) {
        throw std::invalid_argument("HostModel: host " + std::to_string(h) +
                                    " of " + std::to_string(hosts_.size()));
      }
    }
    pe_count_.assign(hosts_.size(), 0);
    for (int h : worker_host_) ++pe_count_[static_cast<std::size_t>(h)];
  }

  bool trivial() const { return hosts_.empty(); }
  /// Workers placed (0 in the trivial model).
  int workers() const { return static_cast<int>(worker_host_.size()); }

  /// Multiplier applied to worker `w`'s service time:
  /// oversubscription / speed.
  double factor(int w) const {
    if (trivial()) return 1.0;
    assert(w >= 0 && w < static_cast<int>(worker_host_.size()));
    const auto h = static_cast<std::size_t>(
        worker_host_[static_cast<std::size_t>(w)]);
    return hosts_[h].factor(pe_count_[h]);
  }

  /// The host index of worker `w` (-1 in the trivial model).
  int host_of(int w) const {
    if (trivial()) return -1;
    return worker_host_[static_cast<std::size_t>(w)];
  }

  int hosts() const { return static_cast<int>(hosts_.size()); }

 private:
  std::vector<HostSpec> hosts_;
  std::vector<int> worker_host_;
  std::vector<int> pe_count_;
};

}  // namespace slb::sim
