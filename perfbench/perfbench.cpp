// perfbench: the repository benchmark (workloads and metrics are listed in
// BENCHMARK.json at the repository root).
//
//   perfbench --workload <rt-skew|sim-fanout64>
//             --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// Normally started through perfbench/run.py, which builds it first.
// Human-readable lines go to stdout; the last line is one JSON object with
// the keys correct / attempted / failed / metrics. --trace 0 reports the
// end-to-end metrics. --trace 1 reports the per-layer metrics, taken from
// runs whose policy is wrapped in a timing shim (TimedPolicy); those runs
// alternate with untraced ones so the tracing overhead is measured too.
//
// Every layer is measured from outside, through public entry points only:
// rt::LocalRegion (runtime, transport, delivery), sim::Region and the
// experiment harness (sim), net::encode_frame / net::FrameDecoder
// (transport), the region's metrics registry and sample hooks, getrusage,
// and a SplitPolicy wrapper around LoadBalancingPolicy (core). Nothing in
// src/ is instrumented for the benchmark.
//
// On a shared host the speed of the same work drifts by up to 2x over
// minutes. rt-skew's workers serve each tuple for a fixed time, so their
// capacities do not drift with it, and its regions are pooled.
// sim-fanout64 reports the median of repeated fixed-work runs, with every
// chunk of a run scaled to a nominal host speed by a reference pass timed
// next to it (reference_ns). Set-up time is the median of constructions
// spread over the run.
//
// Correctness gate: every region run must release each issued sequence
// exactly once, in order (at-least-once: emitted == sent and
// gaps == shed), every simulated run
// must finish its fixed work, and on sim-fanout64 the timing wrapper must
// reproduce the bare policy's decision journal. A violation is counted in
// `failed`, makes `correct` false and the exit code non-zero.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/policies.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "runtime/local_region.h"
#include "sim/harness.h"
#include "sim/region.h"
#include "transport/framing.h"
#include "util/rng.h"
#include "util/time.h"

namespace {

using namespace slb;
using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ------------------------------------------------------------- host speed

/// Wall ns of fixed reference work in the shape of the simulator's inner
/// loop, using nothing from src/: a binary heap of timed events, each a
/// std::function that updates one of 64 channel records and schedules the
/// next event. On a shared host its cost swings with the neighbours' use
/// of caches and memory the way the simulator's does, and it never changes
/// with the program.
double reference_ns() {
  constexpr int kChannels = 64;
  constexpr int kEvents = 4000;
  struct Channel {
    std::uint64_t sent = 0;
    std::vector<std::uint64_t> queue;
  };
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::vector<Channel> channels(kChannels);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void(int)> arrive = [&](int c) {
    Channel& ch = channels[static_cast<std::size_t>(c)];
    ch.queue.push_back(now);
    if (ch.queue.size() > 32) ch.queue.erase(ch.queue.begin());
    ++ch.sent;
    const int to = static_cast<int>(next() % kChannels);
    queue.push({now + 1 + next() % 1000, seq++, [&arrive, to] { arrive(to); }});
  };
  const auto t0 = Clock::now();
  for (int c = 0; c < kChannels; ++c) {
    for (int k = 0; k < 8; ++k) {
      queue.push({next() % 1000, seq++, [&arrive, c] { arrive(c); }});
    }
  }
  for (int i = 0; i < kEvents; ++i) {
    Event& top = const_cast<Event&>(queue.top());
    now = top.at;
    std::function<void()> fn = std::move(top.fn);
    queue.pop();
    fn();
  }
  return static_cast<double>(ns_since(t0));
}

/// The nominal host speed: the one at which reference_ns() takes 1 ms.
/// Simulator timings are reported at this speed (each is multiplied by
/// kReferenceNs over a reference pass taken next to it), which cancels the
/// host's drift between runs while leaving every change to the program
/// in the figure.
constexpr double kReferenceNs = 1e6;

void print_setup(const std::vector<double>& setup) {
  std::printf(
      "setup: %zu constructions, min %.1f us, median %.1f us, max %.1f us\n",
      setup.size(), quantile(setup, 0.0) * 1e6, quantile(setup, 0.5) * 1e6,
      quantile(setup, 1.0) * 1e6);
}

// ------------------------------------------------------------- rusage

struct Usage {
  double cpu_s = 0.0;  // user + system
  double vcsw = 0.0;   // voluntary context switches
};

/// RUSAGE_SELF covers every thread of the process, joined ones included;
/// RUSAGE_THREAD only the caller (the splitter, in the runtime).
Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.vcsw = static_cast<double>(ru.ru_nvcsw);
  return u;
}

// ------------------------------------------------------------- core timing

/// Times the two calls through which every substrate drives `core`:
/// on_sample (one controller tick) and pick_connection (one routing
/// decision). Every other SplitPolicy virtual is forwarded untouched, so a
/// wrapped policy makes exactly the decisions the bare one makes — the
/// self-test checks that on the decision journal. Single-threaded like the
/// policies it wraps: substrates call it from the splitter only.
class TimedPolicy final : public SplitPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<SplitPolicy> inner)
      : inner_(std::move(inner)) {}

  ConnectionId pick_connection() override {
    const auto t0 = Clock::now();
    const ConnectionId c = inner_->pick_connection();
    pick_ns_ += ns_since(t0);
    ++picks_;
    return c;
  }
  void on_sample(TimeNs now,
                 std::span<const DurationNs> cumulative_blocked) override {
    const auto t0 = Clock::now();
    inner_->on_sample(now, cumulative_blocked);
    tick_ns_.push_back(static_cast<double>(ns_since(t0)));
  }
  void on_throughput(TimeNs now,
                     std::span<const std::uint64_t> delivered) override {
    inner_->on_throughput(now, delivered);
  }
  void on_channel_down(ConnectionId j) override { inner_->on_channel_down(j); }
  void on_channel_up(ConnectionId j) override { inner_->on_channel_up(j); }
  OverloadState overload_state() const override {
    return inner_->overload_state();
  }
  void enter_safe_mode() override { inner_->enter_safe_mode(); }
  void exit_safe_mode() override { inner_->exit_safe_mode(); }
  bool safe_mode() const override { return inner_->safe_mode(); }
  const WeightVector& weights() const override { return inner_->weights(); }
  bool reroute_on_block() const override { return inner_->reroute_on_block(); }
  void attach_metrics(obs::MetricsRegistry& registry,
                      std::string_view prefix) override {
    inner_->attach_metrics(registry, prefix);
  }
  void set_journal(obs::DecisionJournal* journal) override {
    inner_->set_journal(journal);
  }
  std::string name() const override { return inner_->name(); }

  /// Wall ns of every on_sample call, in call order.
  const std::vector<double>& tick_ns() const { return tick_ns_; }
  /// Wall ns summed over every pick_connection call, timer cost included.
  double pick_ns() const { return static_cast<double>(pick_ns_); }
  std::uint64_t picks() const { return picks_; }

 private:
  std::unique_ptr<SplitPolicy> inner_;
  std::vector<double> tick_ns_;
  std::int64_t pick_ns_ = 0;
  std::uint64_t picks_ = 0;
};

/// Wall ns of one empty timing bracket as TimedPolicy::pick_connection
/// takes it; subtracted from the mean pick so core.pick_ns is the
/// policy's own cost.
double timer_bracket_ns() {
  constexpr int kN = 200000;
  std::int64_t total = 0;
  for (int i = 0; i < kN; ++i) {
    const auto t0 = Clock::now();
    total += ns_since(t0);
  }
  return static_cast<double>(total) / kN;
}

/// The paper's full scheme: blocking-rate functions + RAP, 10 % decay.
std::unique_ptr<SplitPolicy> lb_adaptive(int connections) {
  return std::make_unique<LoadBalancingPolicy>(connections, ControllerConfig{});
}

/// Wraps `policy` in a TimedPolicy when `traced`; `timed` receives the
/// wrapper (or nullptr).
std::unique_ptr<SplitPolicy> maybe_timed(std::unique_ptr<SplitPolicy> policy,
                                         bool traced, TimedPolicy** timed) {
  *timed = nullptr;
  if (!traced) return policy;
  auto wrapper = std::make_unique<TimedPolicy>(std::move(policy));
  *timed = wrapper.get();
  return wrapper;
}

// ------------------------------------------------------------- report

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"tput_tps", "tuples/s"},
    {"cpu_us_per_tuple", "us"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"runtime.splitter_cpu_us_per_tuple", "us"},
    {"runtime.vcsw_per_tuple", "count"},
    {"runtime.worker_busy_frac", "frac"},
    {"runtime.merger_max_depth", "count"},
    {"runtime.splitter_coverage", "frac"},
    {"transport.blocked_frac", "frac"},
    {"transport.codec_ns_per_frame", "ns"},
    {"delivery.replay_bytes_p50", "bytes"},
    {"delivery.ack_lag_p50", "count"},
    {"delivery.retransmits", "count"},
    {"delivery.dup_discards", "count"},
    {"core.tick_us_p50", "us"},
    {"core.tick_us_p99", "us"},
    {"core.tick_share", "frac"},
    {"core.pick_ns", "ns"},
    {"core.solves", "count"},
    {"core.reconverge_s", "s"},
    {"sim.events", "count"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.exec_paper_s", "paper_s"},
    {"host.reference_us", "us"},
    {"trace.overhead_frac", "frac"},
};

/// What one benchmark invocation prints last. Metrics not measured on a
/// workload (the runtime's in the simulator, the simulator's in the
/// runtime) are reported as 0.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double v) {
    values[name] = std::isfinite(v) ? v : 0.0;
  }
  void fail(const std::string& why) {
    correct = false;
    std::printf("FAIL: %s\n", why.c_str());
  }

  void print(bool trace) const {
    const std::span<const MetricSpec> specs =
        trace ? std::span<const MetricSpec>(kPerLayer)
              : std::span<const MetricSpec>(kEndToEnd);
    std::printf("fail_frac %.6g (%llu of %llu issued sequences)\n",
                attempted == 0 ? 1.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const MetricSpec& m : specs) {
      std::printf("%-36s %16.6f %s\n", m.name, value(m.name), m.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec& m : specs) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", value(m.name));
      if (!first) json += ", ";
      first = false;
      json += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

// ------------------------------------------------------------- environment

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

/// Prints nproc, CPU model, build type and commit, and flags a build
/// whose numbers must not be compared: unoptimized, assertions on, or
/// sanitized.
void print_environment(const std::string& commit) {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  const bool comparable = optimized && !sanitized;
  std::printf(
      "env nproc=%ld cpu=\"%s\" build=%s optimized=%s sanitized=%s "
      "commit=%s comparable=%s\n",
      sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
      optimized ? "yes" : "no", sanitized ? "yes" : "no", commit.c_str(),
      comparable ? "yes" : "no");
  if (!comparable) {
    std::printf(
        "WARNING: unoptimized or sanitized build; these numbers are not "
        "comparable with benchmark results\n");
  }
}

// ------------------------------------------------------------- runtime

// rt-skew's fixed settings: two workers (splitter on the calling thread +
// 2 worker PEs + merger = 4 threads = nproc), at-least-once delivery,
// 200 us of timed service per tuple, and one worker kSkewLoad x loaded, the
// load hopping to the other worker every kHopPeriod. Timed service (a
// sleep to an absolute deadline) instead of spinning keeps the workers'
// capacities fixed while the shared host's CPU speed drifts; with spun
// work the throughput of identical runs spread 0.21 (IQR over median).
constexpr int kRtWorkers = 2;
constexpr long kRtMultiplies = 200'000;  // 1 ns each under kTimed
/// Independent regions run back to back; each is constructed afresh. At
/// least 2, so a traced run has untraced regions to compare with.
constexpr int kRtRegions = 2;
constexpr double kSkewLoad = 10.0;
constexpr DurationNs kHopPeriod = millis(2500);

/// One load hop: from `at` on, `worker` carries the kSkewLoad x load.
struct Hop {
  DurationNs at = 0;
  int worker = 0;
};

/// The load schedule of one runtime region, generated from the seed
/// alone; the region receives only `events`.
struct RtSchedule {
  std::vector<rt::LoadEvent> events;
  std::vector<Hop> hops;  // excludes the initial load at t = 0
};

RtSchedule make_rt_schedule(std::uint64_t seed, DurationNs segment) {
  RtSchedule s;
  Rng rng(seed);
  int loaded = static_cast<int>(rng.below(kRtWorkers));
  // The first hop lands somewhere in the second half of the first period.
  DurationNs at = static_cast<DurationNs>(
      static_cast<double>(kHopPeriod) * rng.uniform(0.5, 1.0));
  s.events.push_back({0, loaded, kSkewLoad});
  for (; at < segment; at += kHopPeriod) {
    s.events.push_back({at, loaded, 1.0});
    loaded = 1 - loaded;
    s.events.push_back({at, loaded, kSkewLoad});
    s.hops.push_back({at, loaded});
  }
  return s;
}

struct RtRun {
  bool traced = false;
  rt::LocalRunStats stats;
  double setup_s = 0.0;
  double vcsw = 0.0;            // process, during run()
  double splitter_cpu_s = 0.0;  // calling thread, during run()
  double busy_ns = 0.0;         // sum of worker service times
  double merger_max_depth = 0.0;
  double solves = 0.0;
  std::vector<double> replay_bytes;  // sampled once per period
  std::vector<double> ack_lag;
  std::vector<std::pair<double, WeightVector>> weights;  // (elapsed s, w)
  /// (elapsed s, emitted, process CPU s) at run start and every period.
  struct Progress {
    double at_s = 0.0;
    double emitted = 0.0;
    double cpu_s = 0.0;
  };
  std::vector<Progress> progress;
  std::vector<double> tick_ns;
  double pick_ns = 0.0;
  std::uint64_t picks = 0;

  double elapsed_s() const { return to_seconds(stats.elapsed); }

  /// Tuples emitted, wall seconds and process CPU seconds from the start
  /// of the run to its last sample (the shutdown drain is left out).
  struct Window {
    double tuples = 0.0;
    double seconds = 0.0;
    double cpu_s = 0.0;

    void add(const Window& o) {
      tuples += o.tuples;
      seconds += o.seconds;
      cpu_s += o.cpu_s;
    }
    double tput() const { return tuples / std::max(seconds, 1e-9); }
    double cpu_us_per_tuple() const {
      return cpu_s * 1e6 / std::max(tuples, 1.0);
    }
  };
  Window window() const {
    const Progress& a = progress.front();
    const Progress& b = progress.back();
    return {b.emitted - a.emitted, b.at_s - a.at_s, b.cpu_s - a.cpu_s};
  }

  double blocked_ns() const {
    double b = 0.0;
    for (DurationNs x : stats.blocked) b += static_cast<double>(x);
    return b;
  }
};

rt::LocalRegionConfig rt_config(const RtSchedule& schedule) {
  rt::LocalRegionConfig cfg;
  cfg.workers = kRtWorkers;
  cfg.multiplies = kRtMultiplies;
  cfg.work_mode = rt::WorkMode::kTimed;
  cfg.payload_bytes = 64;
  cfg.delivery.mode = delivery::DeliveryMode::kAtLeastOnce;
  cfg.load_events = schedule.events;
  return cfg;
}

/// Wall seconds to construct one region (sockets, PE threads), which is
/// then torn down without running.
double rt_setup_sample(const rt::LocalRegionConfig& cfg) {
  const TimeNs t0 = monotonic_now();
  rt::LocalRegion region(cfg, lb_adaptive(cfg.workers));
  return to_seconds(monotonic_now() - t0);
}

RtRun run_rt_once(const rt::LocalRegionConfig& cfg, DurationNs duration,
                  bool traced) {
  RtRun r;
  r.traced = traced;
  TimedPolicy* timed = nullptr;
  std::unique_ptr<SplitPolicy> policy =
      maybe_timed(lb_adaptive(cfg.workers), traced, &timed);

  const TimeNs t0 = monotonic_now();
  rt::LocalRegion region(cfg, std::move(policy));
  r.setup_s = to_seconds(monotonic_now() - t0);

  obs::MetricsRegistry& reg = region.metrics();
  const obs::Gauge& replay_g = reg.gauge("splitter.replay_buffer_bytes");
  const obs::Gauge& lag_g = reg.gauge("splitter.ack_lag");
  region.set_sample_hook([&](const rt::LocalSample& s) {
    r.replay_bytes.push_back(static_cast<double>(replay_g.value()));
    r.ack_lag.push_back(static_cast<double>(lag_g.value()));
    r.weights.emplace_back(to_seconds(s.elapsed), s.weights);
    r.progress.push_back({to_seconds(s.elapsed),
                          static_cast<double>(s.emitted),
                          usage(RUSAGE_SELF).cpu_s});
  });

  const Usage p0 = usage(RUSAGE_SELF);
  const Usage s0 = usage(RUSAGE_THREAD);
  r.progress.push_back({0.0, 0.0, p0.cpu_s});
  r.stats = region.run(duration);
  const Usage s1 = usage(RUSAGE_THREAD);
  const Usage p1 = usage(RUSAGE_SELF);
  r.vcsw = p1.vcsw - p0.vcsw;
  r.splitter_cpu_s = s1.cpu_s - s0.cpu_s;

  for (int j = 0; j < cfg.workers; ++j) {
    r.busy_ns += static_cast<double>(
        reg.histogram("worker." + std::to_string(j) + ".service_ns").sum());
  }
  r.merger_max_depth =
      static_cast<double>(reg.gauge("merger.max_depth").value());
  r.solves = static_cast<double>(reg.counter("policy.solves").value());
  if (timed != nullptr) {
    r.tick_ns = timed->tick_ns();
    r.pick_ns = timed->pick_ns();
    r.picks = timed->picks();
  }
  return r;
}

/// Sequences of one run that were not released exactly once in order,
/// checking at-least-once delivery's conservation identity on the way.
std::uint64_t rt_failures(const rt::LocalRunStats& s, Report& report) {
  const std::uint64_t issued = s.sent + s.shed;
  std::uint64_t failed =
      issued > s.emitted ? issued - s.emitted : s.emitted - issued;
  const bool identity = s.emitted == s.sent && s.gaps == s.shed;
  if (!s.order_ok) failed = issued;
  if (!s.order_ok || !identity) {
    failed = std::max<std::uint64_t>(failed, 1);
    report.fail("sent=" + std::to_string(s.sent) +
                " emitted=" + std::to_string(s.emitted) +
                " gaps=" + std::to_string(s.gaps) +
                " shed=" + std::to_string(s.shed) +
                " order_ok=" + (s.order_ok ? "1" : "0"));
  }
  return failed;
}

/// Wall seconds from each hop until the newly loaded worker's weight first
/// falls below twice its capacity share; a hop that never gets there is
/// censored at the next hop (or the end of the run) and counted in
/// `censored`.
std::vector<double> reconvergence(const RtRun& r, const std::vector<Hop>& hops,
                                  int& censored) {
  const double share = 1.0 / (1.0 + kSkewLoad);
  const double threshold = 2.0 * share * kWeightUnits;
  std::vector<double> out;
  for (std::size_t h = 0; h < hops.size(); ++h) {
    const double at = to_seconds(hops[h].at);
    const double end =
        h + 1 < hops.size() ? to_seconds(hops[h + 1].at) : r.elapsed_s();
    if (at >= end) break;
    double t = -1.0;
    for (const auto& [when, w] : r.weights) {
      if (when < at || when >= end) continue;
      if (static_cast<double>(w[static_cast<std::size_t>(hops[h].worker)]) <
          threshold) {
        t = when - at;
        break;
      }
    }
    if (t < 0.0) {
      t = end - at;
      ++censored;
    }
    out.push_back(t);
  }
  return out;
}

/// Round trips one frame of the workload's shape through encode_frame and
/// FrameDecoder::feed/next; returns ns per frame (median of 5 batches), or
/// a negative value if a frame does not come back intact.
double codec_ns_per_frame(std::size_t payload_bytes) {
  net::Frame frame;
  frame.payload.assign(payload_bytes, 0xAB);
  std::vector<std::uint8_t> wire;
  net::FrameDecoder decoder;
  net::Frame out;
  constexpr int kFrames = 50000;
  std::vector<double> per_frame;
  std::uint64_t seq = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kFrames; ++i, ++seq) {
      frame.seq = seq;
      wire.clear();
      net::encode_frame(frame, wire);
      decoder.feed(wire.data(), wire.size());
      if (!decoder.next(out) || out.seq != seq ||
          out.payload.size() != payload_bytes) {
        return -1.0;
      }
    }
    per_frame.push_back(static_cast<double>(ns_since(t0)) / kFrames);
  }
  return median(per_frame);
}

void run_runtime(std::uint64_t seed, double seconds, bool trace,
                 Report& report) {
  // The region's threads inherit the calling thread's timer slack; 1 ns
  // makes the workers' timed service end at its deadline, not up to 50 us
  // (the default slack) after it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const DurationNs segment = seconds_f(seconds / kRtRegions);
  const RtSchedule schedule = make_rt_schedule(seed, segment);
  const rt::LocalRegionConfig cfg = rt_config(schedule);
  std::printf(
      "workload: %d workers, at-least-once, multiplies=%ld, payload=%zu B, "
      "%d x %.2f s regions\n",
      cfg.workers, cfg.multiplies, cfg.payload_bytes, kRtRegions,
      to_seconds(segment));
  for (const rt::LoadEvent& e : schedule.events) {
    std::printf("schedule: t=%.3f s worker %d load x%.0f\n", to_seconds(e.at),
                e.worker, e.multiplier);
  }

  // Set-up time: median over dedicated constructions, spread over the run
  // before each region, plus the measured regions' own.
  std::vector<double> setup;
  std::vector<RtRun> runs;
  for (int i = 0; i < kRtRegions; ++i) {
    for (int k = 0; k < 32 / kRtRegions; ++k) {
      setup.push_back(rt_setup_sample(cfg));
    }
    // Traced runs alternate with untraced ones, which give the baseline
    // for trace.overhead_frac.
    const bool traced = trace && i % 2 == 1;
    RtRun r = run_rt_once(cfg, segment, traced);
    setup.push_back(r.setup_s);
    report.attempted += r.stats.sent + r.stats.shed;
    report.failed += rt_failures(r.stats, report);
    const RtRun::Window win = r.window();
    std::printf(
        "region %d%s: sent=%llu emitted=%llu elapsed=%.3f s tput=%.0f/s "
        "cpu=%.2f us/tuple retransmits=%llu dups=%llu final_w=[%d %d]\n",
        i, traced ? " (traced)" : "",
        static_cast<unsigned long long>(r.stats.sent),
        static_cast<unsigned long long>(r.stats.emitted), r.elapsed_s(),
        win.tput(), win.cpu_us_per_tuple(),
        static_cast<unsigned long long>(r.stats.retransmits),
        static_cast<unsigned long long>(r.stats.dup_discards),
        r.stats.final_weights[0], r.stats.final_weights[1]);
    runs.push_back(std::move(r));
  }

  // The whole run is adaptation, so the result is pooled over regions.
  RtRun::Window plain;
  RtRun::Window traced;
  std::vector<double> reconv;
  int censored = 0;
  for (const RtRun& r : runs) {
    (r.traced ? traced : plain).add(r.window());
    for (double t : reconvergence(r, schedule.hops, censored)) {
      reconv.push_back(t);
    }
  }
  report.set("tput_tps", plain.tput());
  report.set("cpu_us_per_tuple", plain.cpu_us_per_tuple());
  report.set("setup_s", median(setup));
  print_setup(setup);
  std::printf("reconvergence after hops (s):");
  for (double t : reconv) std::printf(" %.2f", t);
  std::printf(" (%d of %zu hops never reconverged)\n", censored,
              reconv.size());
  if (!trace) return;

  const double bracket = timer_bracket_ns();
  const double codec = codec_ns_per_frame(cfg.payload_bytes);
  if (codec < 0.0) report.fail("frame codec round trip lost a frame");

  std::vector<double> split_cpu, vcsw, busy, depth, coverage, blocked,
      replay, lag, ticks, solves;
  double retransmits = 0.0;
  double dups = 0.0;
  double tick_total = 0.0;
  double elapsed_total = 0.0;
  double pick_total = 0.0;
  std::uint64_t picks = 0;
  for (const RtRun& r : runs) {
    if (!r.traced) continue;
    const double el_ns = static_cast<double>(r.stats.elapsed);
    const double sent =
        static_cast<double>(std::max<std::uint64_t>(r.stats.sent, 1));
    const double emitted =
        static_cast<double>(std::max<std::uint64_t>(r.stats.emitted, 1));
    split_cpu.push_back(r.splitter_cpu_s * 1e6 / sent);
    vcsw.push_back(r.vcsw / emitted);
    busy.push_back(r.busy_ns / (el_ns * kRtWorkers));
    depth.push_back(r.merger_max_depth);
    coverage.push_back((r.splitter_cpu_s * 1e9 + r.blocked_ns()) / el_ns);
    blocked.push_back(r.blocked_ns() / (el_ns * kRtWorkers));
    replay.insert(replay.end(), r.replay_bytes.begin(), r.replay_bytes.end());
    lag.insert(lag.end(), r.ack_lag.begin(), r.ack_lag.end());
    ticks.insert(ticks.end(), r.tick_ns.begin(), r.tick_ns.end());
    solves.push_back(r.solves);
    retransmits += static_cast<double>(r.stats.retransmits);
    dups += static_cast<double>(r.stats.dup_discards);
    tick_total += sum(r.tick_ns);
    elapsed_total += el_ns;
    pick_total += r.pick_ns;
    picks += r.picks;
  }
  report.set("runtime.splitter_cpu_us_per_tuple", median(split_cpu));
  report.set("runtime.vcsw_per_tuple", median(vcsw));
  report.set("runtime.worker_busy_frac", median(busy));
  report.set("runtime.merger_max_depth", median(depth));
  report.set("runtime.splitter_coverage", median(coverage));
  report.set("transport.blocked_frac", median(blocked));
  report.set("transport.codec_ns_per_frame", codec);
  report.set("delivery.replay_bytes_p50", median(replay));
  report.set("delivery.ack_lag_p50", median(lag));
  report.set("delivery.retransmits", retransmits);
  report.set("delivery.dup_discards", dups);
  report.set("core.tick_us_p50", quantile(ticks, 0.5) / 1e3);
  report.set("core.tick_us_p99", quantile(ticks, 0.99) / 1e3);
  report.set("core.tick_share", tick_total / elapsed_total);
  report.set("core.pick_ns",
             std::max(0.0, pick_total / static_cast<double>(
                                            std::max<std::uint64_t>(picks, 1)) -
                               bracket));
  report.set("core.solves", median(solves));
  report.set("core.reconverge_s", median(reconv));
  report.set("trace.overhead_frac", 1.0 - traced.tput() / plain.tput());
  std::printf(
      "splitter accounting: cpu + blocked covers %.1f%% of its wall time "
      "(%zu ticks, %llu picks, timer bracket %.1f ns)\n",
      100.0 * median(coverage), ticks.size(),
      static_cast<unsigned long long>(picks), bracket);
}

// ------------------------------------------------------------- simulator

constexpr int kSimWorkers = 64;

/// Figure 13's 64-PE row: 60,000-multiply tuples, clustering on, half the
/// PEs (`loaded`) 100x loaded until an eighth of the fixed work is done.
sim::ExperimentSpec fanout_spec(const std::vector<int>& loaded,
                                double duration_paper_s) {
  sim::ExperimentSpec spec;
  spec.workers = kSimWorkers;
  spec.base_multiplies = 60'000;
  spec.duration_paper_s = duration_paper_s;
  spec.scale.paper_second = millis(100);
  spec.controller.enable_clustering = true;
  spec.controller.clustering_min_connections = 32;
  sim::LoadClass cls;
  cls.workers = loaded;
  cls.multiplier = 100.0;
  cls.until_work_fraction = 1.0 / 8.0;
  spec.loads.push_back(cls);
  return spec;
}

std::unique_ptr<sim::Region> make_sim_region(const sim::ExperimentSpec& spec,
                                             std::unique_ptr<SplitPolicy> p) {
  auto region = std::make_unique<sim::Region>(
      sim::build_region_config(spec), std::move(p),
      sim::build_load_profile(spec), spec.hosts);
  for (const sim::FaultSpec& f : spec.faults) {
    sim::FaultEvent event;
    event.kind = f.kind;
    event.worker = f.worker;
    event.at = spec.scale.from_paper_seconds(f.at_paper_s);
    event.duration = spec.scale.from_paper_seconds(f.duration_paper_s);
    region->inject_fault(event);
  }
  return region;
}

/// Controller ticks (10 ms of simulated time each) per chunk of a
/// simulated run; a chunk takes ~15 ms of wall time.
constexpr std::uint64_t kChunkTicks = 16;

struct SimRun {
  bool traced = false;
  sim::RunResult run;
  std::uint64_t target = 0;
  std::uint64_t gaps = 0;
  double exec_paper_s = 0.0;
  double wall_ns = 0.0;
  double cpu_s = 0.0;
  double events = 0.0;
  double solves = 0.0;
  std::vector<double> tick_ns;
  double pick_ns = 0.0;
  std::uint64_t picks = 0;
  /// wall_ns and cpu_s scaled to the nominal host speed.
  double nominal_wall_ns = 0.0;
  double nominal_cpu_s = 0.0;
  std::vector<double> reference_ns;  // one per chunk
};

/// The fixed-work experiment of sim::run_fixed_work (LB-adaptive), driven
/// here so the region can be timed, traced and journaled. The self-test
/// checks it against run_fixed_work itself.
SimRun run_sim_once(const sim::ExperimentSpec& spec, bool traced,
                    obs::DecisionJournal* journal) {
  SimRun r;
  r.traced = traced;
  r.target = sim::ideal_work(spec);
  TimedPolicy* timed = nullptr;
  std::unique_ptr<SplitPolicy> policy = maybe_timed(
      sim::make_policy(sim::PolicyKind::kLbAdaptive, spec), traced, &timed);

  std::unique_ptr<sim::Region> region =
      make_sim_region(spec, std::move(policy));
  if (journal != nullptr) region->set_journal(journal);

  sim::Region* reg = region.get();
  for (const sim::LoadClass& cls : spec.loads) {
    if (cls.until_work_fraction < 0.0) continue;
    const std::vector<int> lifted = cls.workers;
    region->at_emitted(
        static_cast<std::uint64_t>(cls.until_work_fraction *
                                   static_cast<double>(r.target)),
        [reg, lifted] {
          for (int w : lifted) reg->load().add_step(w, reg->now(), 1.0);
        });
  }
  const TimeNs deadline =
      spec.scale.from_paper_seconds(spec.duration_paper_s * 25.0);

  // The run is cut into chunks of kChunkTicks controller ticks. After each
  // chunk the reference work is timed (and left out of the run's times),
  // and the chunk's wall and CPU time are scaled by kReferenceNs over it.
  const auto w0 = Clock::now();
  double paused_ns = 0.0;
  double paused_cpu = 0.0;
  double last_ns = 0.0;
  double last_cpu = 0.0;
  const double cpu0 = usage(RUSAGE_THREAD).cpu_s;
  const auto chunk_end = [&] {
    const double wall = static_cast<double>(ns_since(w0)) - paused_ns;
    const double cpu = usage(RUSAGE_THREAD).cpu_s - cpu0 - paused_cpu;
    const auto p = Clock::now();
    const double pc = usage(RUSAGE_THREAD).cpu_s;
    const double ref = reference_ns();
    r.reference_ns.push_back(ref);
    r.nominal_wall_ns += (wall - last_ns) * kReferenceNs / ref;
    r.nominal_cpu_s += (cpu - last_cpu) * kReferenceNs / ref;
    r.wall_ns = last_ns = wall;
    r.cpu_s = last_cpu = cpu;
    paused_cpu += usage(RUSAGE_THREAD).cpu_s - pc;
    paused_ns += static_cast<double>(ns_since(p));
  };
  std::uint64_t ticks = 0;
  region->set_sample_hook([&](sim::Region&) {
    if (++ticks % kChunkTicks == 0) chunk_end();
  });
  r.run = region->run_until_emitted(r.target, deadline);
  chunk_end();

  r.exec_paper_s = spec.scale.to_paper_seconds(r.run.finish_time);
  r.gaps = region->merger().gaps();
  r.events = static_cast<double>(region->simulator().events_processed());
  r.solves = static_cast<double>(
      region->metrics().counter("policy.solves").value());
  if (timed != nullptr) {
    r.tick_ns = timed->tick_ns();
    r.pick_ns = timed->pick_ns();
    r.picks = timed->picks();
  }
  return r;
}

std::uint64_t sim_failures(const SimRun& r, Report& report) {
  if (r.run.reached_target && r.gaps == 0 && r.run.emitted >= r.target) {
    return 0;
  }
  report.fail("simulated run incomplete: emitted=" +
              std::to_string(r.run.emitted) + " of " +
              std::to_string(r.target) + " gaps=" + std::to_string(r.gaps));
  return std::max<std::uint64_t>(
      r.target - std::min(r.run.emitted, r.target) + r.gaps, 1);
}

/// The timing wrapper must be invisible to the program. On a short fan-out
/// run with one crash and recovery (channel down/up), the wrapped
/// LB-adaptive must reproduce the bare policy's decision journal byte for
/// byte and its execution time, and the bare run must match
/// sim::run_fixed_work. Safe mode and picks are compared call by call.
bool wrapper_selftest(const std::vector<int>& loaded) {
  sim::ExperimentSpec spec = fanout_spec(loaded, 10.0);
  spec.faults.push_back({sim::FaultKind::kWorkerCrash, 40, 2.0, 0.0});
  spec.faults.push_back({sim::FaultKind::kWorkerRecover, 40, 4.0, 0.0});

  obs::DecisionJournal bare_journal;
  obs::DecisionJournal wrapped_journal;
  const SimRun bare = run_sim_once(spec, false, &bare_journal);
  const SimRun wrapped = run_sim_once(spec, true, &wrapped_journal);
  const sim::ExperimentResult reference = sim::run_fixed_work(
      sim::PolicyKind::kLbAdaptive, spec, sim::ideal_work(spec));
  bool ok = bare_journal.entries() > 0 &&
            bare_journal.digest() == wrapped_journal.digest() &&
            bare.exec_paper_s == wrapped.exec_paper_s &&
            bare.exec_paper_s == reference.exec_time_paper_s &&
            bare.run.emitted == reference.emitted;

  LoadBalancingPolicy plain(8);
  TimedPolicy timed(std::make_unique<LoadBalancingPolicy>(8));
  const auto same = [&] {
    return plain.safe_mode() == timed.safe_mode() &&
           plain.weights() == timed.weights() &&
           plain.pick_connection() == timed.pick_connection();
  };
  ok = ok && same();
  plain.enter_safe_mode();
  timed.enter_safe_mode();
  ok = ok && same() && timed.safe_mode();
  plain.on_channel_down(3);
  timed.on_channel_down(3);
  for (int i = 0; i < 32; ++i) ok = ok && same();
  plain.on_channel_up(3);
  timed.on_channel_up(3);
  plain.exit_safe_mode();
  timed.exit_safe_mode();
  for (int i = 0; i < 32; ++i) ok = ok && same();

  std::printf(
      "wrapper self-test: %s (journal %zu lines, digest %s / %s, "
      "exec %.4f / %.4f / run_fixed_work %.4f paper s)\n",
      ok ? "pass" : "FAIL", bare_journal.entries(),
      bare_journal.digest_hex().c_str(), wrapped_journal.digest_hex().c_str(),
      bare.exec_paper_s, wrapped.exec_paper_s, reference.exec_time_paper_s);
  return ok;
}

void run_simulator(std::uint64_t seed, double seconds, bool trace,
                   Report& report) {
  // The seed picks which half of the PEs starts 100x loaded.
  Rng rng(seed);
  std::vector<int> order(kSimWorkers);
  for (int i = 0; i < kSimWorkers; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = kSimWorkers - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<int> loaded(order.begin(), order.begin() + kSimWorkers / 2);
  std::sort(loaded.begin(), loaded.end());
  std::printf("schedule: loaded PEs");
  for (int w : loaded) std::printf(" %d", w);
  std::printf("\n");

  if (!wrapper_selftest(loaded)) {
    report.fail("timing wrapper changed the policy's decisions");
    report.failed += 1;
    report.attempted += 1;
  }

  const sim::ExperimentSpec spec = fanout_spec(loaded, 200.0);
  // Set-up time: constructions spread over the run, five after each
  // fixed-work run, each scaled like the runs' chunks.
  std::vector<double> setup;
  const auto construct = [&] {
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      make_sim_region(spec,
                      sim::make_policy(sim::PolicyKind::kLbAdaptive, spec));
      setup.push_back(static_cast<double>(ns_since(t0)) * 1e-9 *
                      kReferenceNs / reference_ns());
    }
  };

  // Whole fixed-work runs until the time budget would be overrun; traced
  // mode needs one untraced and one traced run at least.
  std::vector<SimRun> runs;
  const auto start = Clock::now();
  const double budget_ns = seconds * 1e9;
  double last_ns = 0.0;
  for (int i = 0;; ++i) {
    const double used = static_cast<double>(ns_since(start));
    const bool need_more = runs.empty() || (trace && runs.size() < 2);
    if (!need_more && used + last_ns > budget_ns) break;
    const auto t0 = Clock::now();
    const bool traced = trace && i % 2 == 1;
    SimRun r = run_sim_once(spec, traced, nullptr);
    construct();
    last_ns = static_cast<double>(ns_since(t0));
    report.attempted += r.target;
    report.failed += sim_failures(r, report);
    std::printf(
        "run %d%s: emitted=%llu exec=%.4f paper s wall=%.3f s (%.3f s "
        "nominal) events=%.0f solves=%.0f reference p50 %.0f us\n",
        i, traced ? " (traced)" : "",
        static_cast<unsigned long long>(r.run.emitted), r.exec_paper_s,
        r.wall_ns / 1e9, r.nominal_wall_ns / 1e9, r.events, r.solves,
        median(r.reference_ns) / 1e3);
    runs.push_back(std::move(r));
  }

  // Every fixed-work run repeats exactly the same simulated work; the
  // median over runs of its nominal-speed time is the program's cost.
  std::vector<double> plain_tput, traced_tput, plain_cpu, exec, reference;
  for (const SimRun& r : runs) {
    const double emitted = static_cast<double>(r.run.emitted);
    const double tput = emitted * 1e9 / r.nominal_wall_ns;
    (r.traced ? traced_tput : plain_tput).push_back(tput);
    if (!r.traced) plain_cpu.push_back(r.nominal_cpu_s * 1e6 / emitted);
    exec.push_back(r.exec_paper_s);
    reference.insert(reference.end(), r.reference_ns.begin(),
                     r.reference_ns.end());
  }
  report.set("tput_tps", median(plain_tput));
  report.set("cpu_us_per_tuple", median(plain_cpu));
  report.set("setup_s", median(setup));
  print_setup(setup);
  std::printf("exec_paper_s %.4f paper_s\n", median(exec));
  if (!trace) return;

  const double bracket = timer_bracket_ns();
  std::vector<double> ticks, share, pick, solves, events, self;
  for (const SimRun& r : runs) {
    if (!r.traced) continue;
    const double tick_total = sum(r.tick_ns);
    ticks.insert(ticks.end(), r.tick_ns.begin(), r.tick_ns.end());
    share.push_back(tick_total / r.wall_ns);
    pick.push_back(r.pick_ns / static_cast<double>(
                                   std::max<std::uint64_t>(r.picks, 1)) -
                   bracket);
    solves.push_back(r.solves);
    events.push_back(r.events);
    // Self time excludes the wrapped calls, timer brackets included.
    self.push_back((r.wall_ns - tick_total - r.pick_ns) /
                   std::max(r.events, 1.0));
  }
  report.set("core.tick_us_p50", quantile(ticks, 0.5) / 1e3);
  report.set("core.tick_us_p99", quantile(ticks, 0.99) / 1e3);
  report.set("core.tick_share", median(share));
  report.set("core.pick_ns", std::max(0.0, median(pick)));
  report.set("core.solves", median(solves));
  report.set("sim.events", median(events));
  report.set("sim.self_ns_per_event", median(self));
  report.set("sim.exec_paper_s", median(exec));
  report.set("host.reference_us", median(reference) / 1e3);
  report.set("trace.overhead_frac",
             1.0 - median(traced_tput) / median(plain_tput));
}

// ------------------------------------------------------------- main

int usage_error(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<rt-skew|sim-fanout64> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') seconds = 0.0;
    } else if (key == "--trace") {
      const std::string v = val;
      trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return usage_error(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage_error("arguments come in --key value pairs");
  if (!have_seed) return usage_error("--seed must be a non-negative integer");
  if (!(seconds > 0.0 && seconds <= 120.0)) {
    return usage_error("--seconds must be in (0, 120]");
  }
  if (trace < 0) return usage_error("--trace must be 0 or 1");

  if (workload != "rt-skew" && workload != "sim-fanout64") {
    return usage_error("unknown workload");
  }

  print_environment(commit);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);
  Report report;
  if (workload == "sim-fanout64") {
    run_simulator(seed, seconds, trace == 1, report);
  } else {
    run_runtime(seed, seconds, trace == 1, report);
  }
  if (report.attempted == 0) {
    report.fail("nothing was issued");
    report.attempted = report.failed = 1;
  }
  report.print(trace == 1);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
