// Extension study: end-to-end latency — the metric the paper's
// introduction motivates ("low latency, high throughput") but its
// evaluation never reports.
//
// Open-loop source at a fixed offered rate (~65 % of the *balanced*
// region capacity), 4 PEs with one 10x-loaded worker. Under round-robin
// the loaded worker gates the region below the offered rate: the source
// backlog grows without bound and latency diverges. The blocking-rate
// balancer sheds the loaded worker, sustains the offered rate, and keeps
// the latency distribution tight. Oracle* bounds what is achievable.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "sim/sink.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace slb;
using namespace slb::sim;

namespace {

struct Row {
  double p50_us = 0;
  double p99_us = 0;
  double max_ms = 0;
  std::uint64_t backlog = 0;
  std::uint64_t delivered = 0;
};

Row run(PolicyKind kind, double duration_paper_s) {
  ExperimentSpec spec;
  spec.workers = 4;
  spec.base_multiplies = 1000;  // 10 us tuples
  spec.duration_paper_s = duration_paper_s;
  spec.loads.push_back({{0}, 10.0, -1.0});

  RegionConfig cfg = build_region_config(spec);
  cfg.source_interval = micros(5);  // 200K offered vs ~310K balanced cap
  // The region's output ends in a sink that measures each tuple's
  // latency: the maximum over all of them, quantiles over 1 in 8.
  CountingSink sink;
  double max_ns = 0.0;
  SampleSet samples;
  Region region(cfg, make_policy(kind, spec), build_load_profile(spec),
                spec.hosts, nullptr, {}, nullptr, &sink);
  sink.set_on_tuple([&](const Tuple& t) {
    const double lat = static_cast<double>(region.now() - t.created);
    max_ns = std::max(max_ns, lat);
    if (sink.count() % 8 == 0) samples.add(lat);
  });
  region.run_for(spec.scale.from_paper_seconds(duration_paper_s));

  Row row;
  row.p50_us = samples.quantile(0.5) / 1e3;
  row.p99_us = samples.quantile(0.99) / 1e3;
  row.max_ms = max_ns / 1e6;
  row.backlog = region.splitter().source_backlog(region.now());
  row.delivered = region.emitted();
  return row;
}

}  // namespace

int main() {
  const double duration_s = 150 * bench::duration_scale();
  bench::print_header(
      "Extension: end-to-end latency at fixed offered load (4 PEs, one "
      "10x loaded, open-loop source at ~65% of balanced capacity)");
  CsvWriter csv(bench::results_dir() + "/ext_latency.csv");
  csv.header({"policy", "p50_us", "p99_us", "max_ms", "source_backlog",
              "delivered"});

  std::printf("  %-12s %10s %10s %10s %14s %12s\n", "policy", "p50(us)",
              "p99(us)", "max(ms)", "src backlog", "delivered");
  for (PolicyKind kind : {PolicyKind::kRoundRobin, PolicyKind::kLbAdaptive,
                          PolicyKind::kOracle}) {
    const Row row = run(kind, duration_s);
    std::printf("  %-12s %10.1f %10.1f %10.2f %14llu %12llu\n",
                policy_name(kind).c_str(), row.p50_us, row.p99_us,
                row.max_ms, static_cast<unsigned long long>(row.backlog),
                static_cast<unsigned long long>(row.delivered));
    csv.row({policy_name(kind), CsvWriter::format(row.p50_us),
             CsvWriter::format(row.p99_us), CsvWriter::format(row.max_ms),
             std::to_string(row.backlog), std::to_string(row.delivered)});
  }
  std::printf(
      "\n  reading: an unsustainable mix is a *latency* catastrophe long "
      "before it reads as a throughput number — RR's source backlog grows "
      "without bound while LB-adaptive holds the offered rate with tail "
      "latencies near Oracle*'s.\n");
  std::printf("  CSV: %s/ext_latency.csv\n", bench::results_dir().c_str());
  return 0;
}
