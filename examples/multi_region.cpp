// Multi-region cluster: the paper's future work (Section 8), runnable.
//
//   $ ./build/examples/multi_region
//
// Two independent streaming applications share two hosts. Each has its
// own splitter, its own blocking-rate controller, and no knowledge of
// the other — yet when application B ramps up on host 0, application A's
// controller sees the slowdown purely through its own TCP blocking rates
// and migrates load to its workers on host 1. When B goes quiet again, A
// re-explores and returns to an even split. Cluster-level adaptation
// from purely local control.
#include <cstdio>
#include <memory>

#include "sim/region.h"
#include "sim/shared_host.h"

using namespace slb;
using namespace slb::sim;

namespace {

RegionConfig region_config(int workers, DurationNs base_cost) {
  RegionConfig cfg;
  cfg.workers = workers;
  cfg.base_cost = base_cost;
  cfg.sample_period = millis(10);  // one "paper second"
  cfg.channel_buffer = 32;
  return cfg;
}

}  // namespace

int main() {
  Simulator sim;
  SharedHostSet hosts({{1.0, 4}, {1.0, 4}});  // two 4-thread hosts

  // Application A: 4 workers split across both hosts, LB-adaptive.
  Region app_a(region_config(4, micros(10)),
               std::make_unique<LoadBalancingPolicy>(4, ControllerConfig{}),
               LoadProfile{}, HostModel{}, &sim,
               SharedPlacement{&hosts, {0, 0, 1, 1}});

  // Application B: 4 workers all on host 0. Its tuples are trivial for
  // the first 100 "seconds", heavy for the next 100, trivial again after
  // — a bursty co-tenant.
  LoadProfile b_load(4);
  for (int w = 0; w < 4; ++w) {
    b_load.add_step(w, seconds_f(1.0), 100.0);   // t=100 paper-s: 100x
    b_load.add_step(w, seconds_f(2.0), 1.0);     // t=200 paper-s: quiet
  }
  RegionConfig b_cfg = region_config(4, micros(2));
  b_cfg.source_interval = micros(50);  // open loop: 20K offered tuples/s
  Region app_b(b_cfg, std::make_unique<RoundRobinPolicy>(4),
               std::move(b_load), HostModel{}, &sim,
               SharedPlacement{&hosts, {0, 0, 0, 0}});

  app_a.start();
  app_b.start();

  std::printf("app A's allocation weights (workers 0,1 on host 0 — shared "
              "with app B; workers 2,3 on host 1):\n");
  std::printf("%8s %26s %22s\n", "paper_s", "A weights [h0 h0 h1 h1]",
              "B busy on host 0?");
  for (int step = 0; step < 15; ++step) {
    sim.run_until(sim.now() + millis(200));  // 20 paper-seconds per row
    const WeightVector& w = app_a.policy().weights();
    const double t = static_cast<double>(sim.now()) / millis(10);
    const char* phase = (t >= 100 && t < 200) ? "yes (100x burst)" : "no";
    std::printf("%8.0f    [%4d %4d %4d %4d] %22s\n", t, w[0], w[1], w[2],
                w[3], phase);
  }

  const WeightVector& w = app_a.policy().weights();
  std::printf("\napp A processed %llu tuples, app B %llu; A's final split "
              "host0=%d vs host1=%d\n",
              static_cast<unsigned long long>(app_a.emitted()),
              static_cast<unsigned long long>(app_b.emitted()),
              w[0] + w[1], w[2] + w[3]);
  std::printf("no controller ever saw the other application — only its own "
              "connections' blocking rates.\n");
  return 0;
}
