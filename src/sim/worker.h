// A simulated worker PE: pulls tuples from its connection's receive
// buffer, "processes" them for a service time, and offers results to the
// merger. Stateless, as the paper requires of data-parallel regions.
//
// Service time = base_cost x external-load multiplier (LoadProfile)
//              x host factor (HostModel: speed + oversubscription).
// If the merger's reorder queue is full the worker stalls holding its
// result — the back-pressure link that ultimately surfaces as splitter
// blocking.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "sim/channel.h"
#include "sim/event.h"
#include "sim/host.h"
#include "sim/load_profile.h"
#include "sim/merger.h"
#include "sim/shared_host.h"
#include "sim/sink.h"
#include "sim/tuple.h"
#include "util/time.h"

namespace slb::sim {

class Worker {
 public:
  Worker(Simulator* sim, int id, DurationNs base_cost,
         const LoadProfile* load, const HostModel* hosts);

  /// Connects the worker to its input channel and its output sink (the
  /// region's merger, or any TupleSink when composing pipelines). `port`
  /// is the sink input this worker feeds; defaults to the worker id.
  /// Must be called exactly once before the simulation starts.
  void wire(Channel* channel, TupleSink* sink, int port = -1);

  /// Binds the worker to a dynamically shared host (multi-region
  /// clusters): each tuple's service factor then comes from the host's
  /// instantaneous occupancy instead of the static HostModel.
  void bind_shared_host(SharedHostSet* hosts, int host);

  /// Re-evaluates what the worker can do: push a held result, start the
  /// next tuple. Safe to call at any point inside an event.
  void poll();

  /// Fault injection: the PE dies. Its in-service tuple and any held
  /// result are lost (reported via set_on_lost); a shared host slot is
  /// released. The worker ignores input until recover().
  void crash();

  /// A replacement PE comes up, stateless as the paper requires — it
  /// simply starts pulling from its (restored) channel again.
  void recover();

  /// Invoked once per tuple this worker loses to a crash.
  void set_on_lost(std::function<void(const Tuple&)> fn) {
    on_lost_ = std::move(fn);
  }

  int id() const { return id_; }
  bool busy() const { return busy_; }
  /// Holds a result the merger refused, until it makes room.
  bool holding() const { return holding_; }
  bool down() const { return down_; }
  std::uint64_t processed() const { return processed_; }

  /// The effective per-tuple service time if a tuple started now.
  DurationNs current_service_time() const;

  /// Observability: record every started tuple's service time (ns) into
  /// `h` (DESIGN.md §8). Pass nullptr to detach.
  void set_service_histogram(obs::Histogram* h) { service_hist_ = h; }

 private:
  void finish(Tuple t);

  Simulator* sim_;
  int id_;
  DurationNs base_cost_;
  const LoadProfile* load_;
  const HostModel* hosts_;
  Channel* channel_ = nullptr;
  TupleSink* sink_ = nullptr;
  int port_ = 0;
  SharedHostSet* shared_hosts_ = nullptr;
  int shared_host_ = -1;
  bool busy_ = false;
  bool holding_ = false;
  bool down_ = false;
  Tuple held_{};
  std::uint64_t processed_ = 0;
  obs::Histogram* service_hist_ = nullptr;
  std::function<void(const Tuple&)> on_lost_;
  /// Bumped by crash(): a finish event from a previous life reports its
  /// tuple lost instead of forwarding it.
  std::uint64_t epoch_ = 0;
};

}  // namespace slb::sim
