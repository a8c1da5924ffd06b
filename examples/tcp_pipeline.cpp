// Real TCP pipeline: the threaded runtime with the paper's actual
// measurement mechanism (MSG_DONTWAIT sends + timed waits on real kernel
// sockets over loopback).
//
//   $ ./build/examples/tcp_pipeline
//
// Three worker PEs (threads) each behind a real TCP connection; worker 0
// permanently carries 20x external load. Watch the live blocking rates
// and the weights move away from it — this is the same controller code
// the simulator uses, fed by real kernel blocking time. Runs ~4 s.
#include <cstdio>
#include <memory>
#include <vector>

#include "runtime/local_region.h"

using namespace slb;
using namespace slb::rt;

int main() {
  LocalRegionConfig config;
  config.workers = 3;
  config.multiplies = 4'000'000;  // 4 ms of service per tuple
  // kTimed waits the service time out instead of spinning, so the demo
  // behaves the same on a laptop with 2 cores as on a 16-core server;
  // switch to WorkMode::kSpin for the paper's real integer-multiply
  // workload.
  config.work_mode = WorkMode::kTimed;
  // Large payloads keep the kernel buffers shallow in *tuples* (a dozen
  // rather than hundreds), so back pressure reaches the splitter at the
  // same relative depth as the paper's microsecond-scale tuples.
  config.payload_bytes = 2048;
  config.sample_period = millis(200);
  config.load_events = {
      {0, /*worker=*/0, /*multiplier=*/20.0},  // 20x load from the start
  };

  ControllerConfig controller;  // defaults = the capacity rule
  LocalRegion region(config,
                     std::make_unique<LoadBalancingPolicy>(3, controller));

  std::printf("t(s)   weights [w0 w1 w2]    blocking rates\n");
  region.set_sample_hook([&region](const LocalSample& sample) {
    static int count = 0;
    if (++count % 4 != 0) return;
    const std::vector<double>& rates =
        region.control().last_actions().block_rates;
    std::printf("%4.1f   [%4d %4d %4d]       [%.2f %.2f %.2f]\n",
                to_seconds(sample.elapsed), sample.weights[0],
                sample.weights[1], sample.weights[2], rates[0], rates[1],
                rates[2]);
  });

  const LocalRunStats stats = region.run(seconds(6));

  std::printf("\nsent=%llu emitted=%llu (sequential semantics %s)\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(stats.emitted),
              stats.order_ok ? "preserved" : "VIOLATED");
  std::printf("cumulative blocked: [%.2fs %.2fs %.2fs]\n",
              to_seconds(stats.blocked[0]), to_seconds(stats.blocked[1]),
              to_seconds(stats.blocked[2]));
  std::printf("final weights: [%d %d %d] — the 20x-loaded connection 0 "
              "holds well below its even share\n",
              stats.final_weights[0], stats.final_weights[1],
              stats.final_weights[2]);
  return 0;
}
