// A full streaming application in the shape of the paper's Figure 1:
// a pipeline with an embedded, dynamically balanced data-parallel region.
//
//   $ ./build/examples/pipeline_app
//
//   source -> parse -> enrich -> [ score x 6, LB-adaptive ] -> emit -> sink
//
// The "score" region is the expensive part (data parallelism pays for
// it); two of its six replicas carry 25x external load for the first
// half of the run. Watch the region's weights shed and recover while the
// pipeline keeps delivering strictly in order end to end — the merger
// restores sequential semantics inside the region, and every hop's
// bounded channel propagates back pressure all the way to the source.
#include <cstdio>
#include <memory>

#include "flow/pipeline.h"

using namespace slb;
using namespace slb::flow;

int main() {
  PipelineConfig config;
  config.sample_period = millis(10);  // one "paper second"

  sim::LoadProfile score_load(6);
  score_load.add_load_until(0, 25.0, seconds_f(1.0));  // until t=100 s
  score_load.add_load_until(1, 25.0, seconds_f(1.0));

  PipelineBuilder builder(config);
  builder.op("parse", micros(1));
  builder.op("enrich", micros(2));
  builder.parallel("score", 6, micros(30),
                   std::make_unique<LoadBalancingPolicy>(6,
                                                         ControllerConfig{}),
                   /*ordered=*/true, std::move(score_load));
  builder.op("emit", micros(1));
  auto pipeline = builder.build();

  std::printf("score-region weights (replicas 0,1 carry 25x load until "
              "t=100):\n");
  std::printf("%8s %30s %14s\n", "paper_s", "weights", "delivered");
  for (int step = 1; step <= 10; ++step) {
    pipeline->run_for(millis(200));  // 20 paper-seconds
    const WeightVector& w = pipeline->stage_region(2).policy().weights();
    std::printf("%8d   [%4d %4d %4d %4d %4d %4d] %14llu\n", step * 20,
                w[0], w[1], w[2], w[3], w[4], w[5],
                static_cast<unsigned long long>(pipeline->delivered()));
  }

  std::printf("\nend-to-end sequential semantics: %s\n",
              pipeline->order_ok() ? "preserved" : "VIOLATED");
  std::printf("per-stage processed: ");
  for (int s = 0; s < pipeline->stages(); ++s) {
    std::printf("%s=%llu ", pipeline->stage_name(s).c_str(),
                static_cast<unsigned long long>(pipeline->stage_processed(s)));
  }
  std::printf("\nsource blocked %.2f virtual-s: the region's early "
              "bottleneck back-pressured the whole pipeline.\n",
              to_seconds(pipeline->source_blocked()));
  std::printf("end-to-end latency: mean %.1f us, max %.2f ms\n",
              pipeline->latency().mean() / 1e3,
              pipeline->latency().max() / 1e6);
  return 0;
}
