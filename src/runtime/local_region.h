// A complete parallel region of the threaded runtime, assembled over real
// loopback TCP: the splitter (run on the calling thread), N worker PE
// threads, and the merger PE thread.
//
//   splitter ==TCP==> worker_0..N-1 ==TCP==> merger
//
// Substitution note (DESIGN.md): the paper runs PEs as processes across a
// cluster; we run them as threads in one process over 127.0.0.1. The
// kernel socket path — buffers, flow control, EAGAIN — is the same, which
// is all the blocking-rate mechanism observes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "control/protection.h"
#include "control/region_control.h"
#include "core/policies.h"
#include "delivery/delivery.h"
#include "delivery/send_core.h"
#include "obs/metrics.h"
#include "runtime/merger_pe.h"
#include "runtime/worker_pe.h"
#include "transport/framing.h"
#include "util/time.h"

namespace slb::rt {

/// One scheduled external-load change, relative to run() start.
struct LoadEvent {
  DurationNs at = 0;
  int worker = 0;
  double multiplier = 1.0;
};

/// One scheduled worker failure, relative to run() start. `restart =
/// false` kills the worker PE abruptly (sockets reset, buffered tuples
/// lost); `restart = true` makes a fresh, stateless replacement available
/// — the splitter's next reconnect attempt then succeeds and re-admits
/// the connection through the policy's probing path.
struct FailureEvent {
  DurationNs at = 0;
  int worker = 0;
  bool restart = false;
};

struct LocalRegionConfig {
  int workers = 2;
  /// Dependent integer multiplies per tuple (the paper's base cost).
  long multiplies = 10000;
  /// kSpin burns real CPU (paper-faithful); kTimed waits the equivalent
  /// time, keeping capacities stable on machines with fewer cores than
  /// PEs (see WorkMode).
  WorkMode work_mode = WorkMode::kSpin;
  /// Tuple payload size on the wire (plus the 16-byte frame header).
  std::size_t payload_bytes = 64;
  /// Kernel send/receive buffer request per socket; small values make
  /// back pressure (and therefore blocking) visible quickly.
  int socket_buffer_bytes = 16 * 1024;
  /// How often the splitter samples its blocked time and updates the
  /// policy.
  DurationNs sample_period = millis(100);
  /// External-load schedule applied during run().
  std::vector<LoadEvent> load_events;
  /// Failure schedule applied during run(). Non-empty schedules enable
  /// the fault-tolerant merger (reconnect port + gap skipping).
  std::vector<FailureEvent> failure_events;
  /// How long the merger waits on a missing sequence before declaring it
  /// dead (see MergerFaultConfig::gap_timeout).
  DurationNs merger_gap_timeout = millis(500);

  // --- Overload protection (DESIGN.md §7, §9) --------------------------

  /// Source pacing: 0 = closed loop (send as fast as the region accepts);
  /// > 0 = open loop releasing one tuple every `source_interval` ns, with
  /// arrears bursting out after blocking.
  DurationNs source_interval = 0;

  /// The region's protection knobs (admission control, shed watermarks,
  /// watchdog ladder), enforced by the shared control::RegionControlLoop
  /// the splitter thread ticks once per sample period.
  control::ProtectionConfig protection;

  // --- Delivery semantics (DESIGN.md §10) ------------------------------

  /// GapSkip (default: byte-identical to the pre-delivery behavior) or
  /// at-least-once. At-least-once adds a merger->splitter ack connection,
  /// per-connection replay buffers of unacked wire frames, and
  /// crash-triggered retransmission through the normal routing path.
  delivery::DeliveryConfig delivery;
};

/// Result of one run.
struct LocalRunStats {
  std::uint64_t sent = 0;
  std::uint64_t emitted = 0;
  DurationNs elapsed = 0;
  /// Emission stayed in sequence order and accounted for every issued
  /// sequence number: emitted + gaps == sent + shed. Without failures or
  /// shedding this is the strict equality it always was.
  bool order_ok = false;
  /// Sequence numbers lost to worker crashes or shed at the source, all
  /// skipped by the merger.
  std::uint64_t gaps = 0;
  /// Tuples shed at the source under overload (each consumed a sequence
  /// number and was announced to the merger as a gap).
  std::uint64_t shed = 0;
  /// Connections the splitter quarantined after a broken send.
  std::uint64_t channel_failures = 0;
  /// Quarantined connections successfully rebuilt (worker restarted).
  std::uint64_t reconnects = 0;
  /// Tuples diverted because their picked connection was quarantined.
  std::uint64_t failovers = 0;
  /// At-least-once only: frames re-sent from replay buffers after a
  /// quarantine. Not counted in `sent` — `sent` stays a count of unique
  /// sequence numbers delivered.
  std::uint64_t retransmits = 0;
  /// Replay echoes the merger discarded below its release cursor (ALO).
  std::uint64_t dup_discards = 0;
  /// Tuples that arrived after their sequence was declared a gap
  /// (GapSkip fault mode; previously an invisible wedge).
  std::uint64_t late_discards = 0;
  /// Cumulative blocked ns per connection at the end of the run.
  std::vector<DurationNs> blocked;
  /// Final allocation weights.
  WeightVector final_weights;
};

/// Sample-time snapshot passed to the optional hook.
struct LocalSample {
  DurationNs elapsed = 0;
  WeightVector weights;
  std::vector<double> block_rates;
  std::uint64_t emitted = 0;
  /// Tuples shed at the source during this period.
  std::uint64_t shed_in_period = 0;
  /// Policy's declared overload state at sample time.
  bool overloaded = false;
  /// Watchdog escalation stage (0 = normal .. 3 = safe-mode WRR).
  int watchdog_stage = 0;
};

class LocalRegion {
 public:
  /// Throws std::invalid_argument, before any socket or thread exists,
  /// for a load or failure event on a worker outside [0, workers), a
  /// policy without one weight per worker (RegionControlLoop), or a
  /// policy that re-routes on block (Section 4.4): the simulator
  /// reproduces that baseline, and this splitter always blocks on the
  /// connection it picked.
  LocalRegion(LocalRegionConfig config, std::unique_ptr<SplitPolicy> policy);
  ~LocalRegion();

  LocalRegion(const LocalRegion&) = delete;
  LocalRegion& operator=(const LocalRegion&) = delete;

  /// Called once per sample period from the splitter thread.
  void set_sample_hook(std::function<void(const LocalSample&)> hook) {
    sample_hook_ = std::move(hook);
  }

  /// Runs the splitter loop for `duration` wall time on the calling
  /// thread, then shuts the pipeline down and joins all PEs. One-shot.
  LocalRunStats run(DurationNs duration);

  SplitPolicy& policy() { return *policy_; }
  MergerPe& merger() { return *merger_; }
  WorkerPe& worker(int j) { return *workers_[static_cast<std::size_t>(j)]; }

  /// The region's control loop (DESIGN.md §9): the shared per-period
  /// decision pipeline the splitter thread ticks on time — the sample
  /// deadline bounds every wait, even one mid-frame.
  control::RegionControlLoop& control() { return *loop_; }
  const control::RegionControlLoop& control() const { return *loop_; }

  /// Current watchdog escalation stage (0 = normal .. 3 = safe-mode WRR).
  int watchdog_stage() const { return loop_->watchdog_stage(); }

  /// The region's metrics registry (DESIGN.md §8): "splitter.*" counters
  /// from the splitter loop, "worker.<j>.service_ns" histograms recorded
  /// on the PE threads, "merger.*" written live by the merger PE thread,
  /// "policy.*" via the policy's attach_metrics. Counters are relaxed
  /// atomics, safe across PE threads.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// Quarantines connection j once its worker is found gone (a broken
  /// send, or FIN/RST seen by the wait): requeues its unacked frames for
  /// replay (at-least-once), zeroes its weight via the policy hook, and
  /// arms the reconnect backoff.
  void quarantine(int j, TimeNs now);

  /// One reconnect attempt for quarantined connection j. Succeeds only
  /// when a restarted worker process is available (worker_up_[j]);
  /// otherwise doubles the backoff. On success rebuilds the splitter
  /// connection, spawns the replacement PE, re-admits the merger stream
  /// via a hello frame, and tells the policy to start probing j again.
  bool try_reconnect(int j, TimeNs now);

  /// Deterministic jitter in [0, limit) for reconnect backoff.
  DurationNs jitter(DurationNs limit);

  LocalRegionConfig config_;
  std::unique_ptr<SplitPolicy> policy_;
  /// Sequences, liveness, replay buffers of encoded wire frames (so a
  /// replay is a plain re-send), acks, blocked time and the send counters
  /// (DESIGN.md §10), shared with the sim splitter. Splitter-thread only.
  delivery::SendCore<std::vector<std::uint8_t>> core_;
  /// Declared before the worker and merger PEs holding handles into it.
  obs::MetricsRegistry metrics_;
  /// Splitter-loop counters.
  struct SplitterCounters {
    obs::Counter* sent = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* channel_failures = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* retransmits = nullptr;
  } mc_;
  /// Delivery gauges (DESIGN.md §10).
  obs::Gauge* replay_bytes_g_ = nullptr;
  obs::Gauge* ack_lag_g_ = nullptr;
  /// Per-worker service histograms, passed to every (re)spawned PE.
  std::vector<obs::Histogram*> service_hists_;

  std::vector<net::Fd> to_workers_;
  std::vector<std::unique_ptr<WorkerPe>> workers_;
  std::unique_ptr<MergerPe> merger_;
  std::function<void(const LocalSample&)> sample_hook_;

  // Failure handling (all touched only from the splitter thread).
  /// Reconnect backoff for quarantined connections: doubles from initial
  /// to max, with deterministic jitter.
  static constexpr DurationNs kReconnectBackoffInitial = millis(10);
  static constexpr DurationNs kReconnectBackoffMax = millis(320);
  std::vector<char> worker_up_;
  std::vector<TimeNs> next_reconnect_;
  std::vector<DurationNs> backoff_;
  std::vector<double> load_mult_;
  std::uint64_t jitter_state_ = 0x9E3779B97F4A7C15ull;

  /// The shared decision pipeline (DESIGN.md §9), ticked from the
  /// splitter thread; run() reads its last_actions() there, so no
  /// synchronization.
  std::unique_ptr<control::RegionControlLoop> loop_;

  /// Splitter-side end of the merger's ack connection (at-least-once).
  net::Fd ack_in_;
  net::FrameDecoder ack_decoder_;
  /// run() start time, for journal timestamps from member functions.
  TimeNs run_start_ = 0;

  bool ran_ = false;
};

}  // namespace slb::rt
