// Failover: a worker PE dies mid-run over real TCP, and comes back.
//
//   $ ./build/examples/failover
//
// A 3-worker region of the threaded runtime (real loopback sockets, real
// worker threads). One second in, worker 1 is killed abruptly — its
// sockets reset, everything buffered in its kernel queues is lost. The
// splitter sees the broken pipe, quarantines the connection (weight 0,
// survivors renormalized), and retries it with exponential backoff. Two
// seconds later a stateless replacement PE becomes available; the next
// reconnect attempt lands, the merger re-admits the stream via a hello
// frame, and the load balancer probes the connection back up to full
// weight.
//
// Watch the weight column: full share -> 0 at the kill -> geometric
// climb after the restart. The merger's output stays in order throughout;
// tuples that died with the worker are skipped as counted gaps.
//
// With `--safe-mode`, overload protection (DESIGN.md §7) is enabled: the
// closed-loop source keeps the region saturated, so the controller
// declares overload, and the kill then degrades the survivors to an even
// 500/500 WRR split (predictable degradation) instead of re-optimizing
// against saturated rate functions. While overload stays declared the
// weights are frozen, so the post-restart climb is deferred until the
// region has slack again.
#include <cstdio>
#include <cstring>
#include <memory>

#include "runtime/local_region.h"

using namespace slb;
using namespace slb::rt;

int main(int argc, char** argv) {
  const bool safe_mode =
      argc > 1 && std::strcmp(argv[1], "--safe-mode") == 0;

  LocalRegionConfig cfg;
  cfg.workers = 3;
  cfg.multiplies = 20000;
  cfg.work_mode = WorkMode::kTimed;  // stable capacities on small machines
  cfg.sample_period = millis(100);
  cfg.failure_events = {
      {millis(1000), 1, /*restart=*/false},  // kill -9, in spirit
      {millis(3000), 1, /*restart=*/true},   // replacement PE available
  };

  ControllerConfig ctrl;
  if (safe_mode) {
    ctrl.enable_overload_protection = true;
    std::printf("overload protection ON: a kill under declared overload "
                "falls back to an even split over survivors\n");
  }
  LocalRegion region(cfg, std::make_unique<LoadBalancingPolicy>(3, ctrl));

  std::printf("3 workers; worker 1 dies at t=1.0s, replacement at "
              "t=3.0s\n");
  std::printf("%8s %22s %12s\n", "t(s)", "weights [w0 w1 w2]", "emitted");
  region.set_sample_hook([](const LocalSample& s) {
    std::printf("%8.1f       [%4d %4d %4d] %12llu%s\n",
                static_cast<double>(s.elapsed) / 1e9, s.weights[0],
                s.weights[1], s.weights[2],
                static_cast<unsigned long long>(s.emitted),
                s.weights[1] == 0 ? "   <- worker 1 down" : "");
  });

  const LocalRunStats stats = region.run(millis(5000));

  std::printf("\nsent=%llu emitted=%llu gaps=%llu (lost with the crash)\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(stats.emitted),
              static_cast<unsigned long long>(stats.gaps));
  std::printf("channel failures=%llu reconnects=%llu failovers=%llu\n",
              static_cast<unsigned long long>(stats.channel_failures),
              static_cast<unsigned long long>(stats.reconnects),
              static_cast<unsigned long long>(stats.failovers));
  std::printf("order %s: every emitted tuple in sequence, every sent "
              "tuple emitted or accounted as a gap\n",
              stats.order_ok ? "OK" : "VIOLATED");
  std::printf("final weights: [%d %d %d]\n", stats.final_weights[0],
              stats.final_weights[1], stats.final_weights[2]);
  return stats.order_ok ? 0 : 1;
}
