#include "runtime/local_region.h"

#include <sys/socket.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "transport/framing.h"

namespace slb::rt {

LocalRegion::LocalRegion(LocalRegionConfig config,
                         std::unique_ptr<SplitPolicy> policy)
    : config_(config),
      policy_(std::move(policy)),
      counters_(static_cast<std::size_t>(config.workers)),
      core_(config.workers, config.delivery.mode,
            config.delivery.replay_buffer_bytes) {
  assert(config_.workers > 0);
  assert(policy_ != nullptr);
  net::ignore_sigpipe();  // dead peers must surface as EPIPE, not SIGPIPE

  service_hists_.assign(static_cast<std::size_t>(config_.workers), nullptr);
  if (config_.metrics) {
    mc_.sent = &metrics_.counter("splitter.sent");
    mc_.shed = &metrics_.counter("splitter.shed");
    mc_.rerouted = &metrics_.counter("splitter.rerouted");
    mc_.failovers = &metrics_.counter("splitter.failovers");
    mc_.channel_failures = &metrics_.counter("splitter.channel_failures");
    mc_.reconnects = &metrics_.counter("splitter.reconnects");
    mc_.retransmits = &metrics_.counter("splitter.retransmits");
    replay_bytes_g_ = &metrics_.gauge("splitter.replay_buffer_bytes");
    ack_lag_g_ = &metrics_.gauge("splitter.ack_lag");
    merger_emitted_c_ = &metrics_.counter("merger.emitted");
    merger_gaps_c_ = &metrics_.counter("merger.gaps");
    merger_reconnects_c_ = &metrics_.counter("merger.reconnects");
    merger_dups_c_ = &metrics_.counter("merger.dup_discards");
    merger_lates_c_ = &metrics_.counter("merger.late_discards");
    merger_depth_g_ = &metrics_.gauge("merger.max_depth");
    for (int j = 0; j < config_.workers; ++j) {
      service_hists_[static_cast<std::size_t>(j)] = &metrics_.histogram(
          "worker." + std::to_string(j) + ".service_ns");
    }
    policy_->attach_metrics(metrics_, "policy.");
  }

  // Topology bring-up: a listener per worker for the splitter connection,
  // one listener at the merger side for the worker->merger connections.
  net::Listener merger_listener;
  std::vector<net::Fd> worker_to_merger;
  std::vector<net::Fd> merger_from_worker;
  for (int j = 0; j < config_.workers; ++j) {
    worker_to_merger.push_back(
        net::connect_loopback(merger_listener.port()));
    merger_from_worker.push_back(merger_listener.accept_one());
  }

  for (int j = 0; j < config_.workers; ++j) {
    net::Listener worker_listener;
    net::Fd splitter_side = net::connect_loopback(worker_listener.port());
    net::Fd worker_side = worker_listener.accept_one();

    net::set_nodelay(splitter_side.get());
    net::set_send_buffer(splitter_side.get(), config_.socket_buffer_bytes);
    net::set_recv_buffer(worker_side.get(), config_.socket_buffer_bytes);
    net::set_nodelay(worker_to_merger[static_cast<std::size_t>(j)].get());

    senders_.push_back(std::make_unique<net::InstrumentedSender>(
        splitter_side.get(), &counters_.at(static_cast<std::size_t>(j))));
    to_workers_.push_back(std::move(splitter_side));
    workers_.push_back(std::make_unique<WorkerPe>(
        j, std::move(worker_side),
        std::move(worker_to_merger[static_cast<std::size_t>(j)]),
        config_.multiplies, config_.work_mode,
        service_hists_[static_cast<std::size_t>(j)]));
  }
  // At-least-once bring-up: the merger->splitter ack connection (the
  // reverse hop cumulative acks ride on). The splitter reads its end
  // non-blocking between sends.
  net::Fd merger_ack_out;
  if (core_.at_least_once()) {
    net::Listener ack_listener;
    ack_in_ = net::connect_loopback(ack_listener.port());
    merger_ack_out = ack_listener.accept_one();
    net::set_nodelay(merger_ack_out.get());
  }

  MergerFaultConfig fault;
  fault.enabled = !config_.failure_events.empty();
  fault.gap_timeout = config_.merger_gap_timeout;
  merger_ = std::make_unique<MergerPe>(std::move(merger_from_worker), fault,
                                       config_.delivery.mode,
                                       std::move(merger_ack_out));
  pending_.resize(static_cast<std::size_t>(config_.workers));

  const auto n = static_cast<std::size_t>(config_.workers);
  worker_up_.assign(n, 1);
  next_reconnect_.assign(n, 0);
  backoff_.assign(n, 0);
  load_mult_.assign(n, 1.0);

  shed_high_ = config_.protection.shed_high_watermark;
  shed_low_ = config_.protection.shed_low_watermark;
  control::ControlLoopConfig loop_cfg;
  loop_cfg.protection = config_.protection;
  loop_cfg.closed_loop_source = config_.source_interval == 0;
  if (core_.at_least_once()) {
    loop_cfg.ack_stall_periods = config_.delivery.ack_stall_periods;
  }
  loop_ = std::make_unique<control::RegionControlLoop>(
      static_cast<control::RegionPort*>(this), policy_.get(), loop_cfg);
  if (config_.metrics) loop_->attach_metrics(metrics_, "region.");
}

void LocalRegion::flush_pending(int k, bool blocking) {
  auto& buf = pending_[static_cast<std::size_t>(k)];
  if (buf.empty()) return;
  auto& sender = *senders_[static_cast<std::size_t>(k)];
  if (blocking) {
    if (sender.send_all(buf.data(), buf.size())) buf.clear();
    return;
  }
  const std::size_t accepted = sender.try_send(buf.data(), buf.size());
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(accepted));
}

LocalRegion::~LocalRegion() {
  // Tear down in dependency order so a constructed-but-never-run region
  // (e.g. a parity test driving the control loop externally) still
  // unwinds: close the splitter sockets so workers reading them see EOF,
  // join the worker threads, then destroy them — which closes their
  // worker->merger sockets, the EOFs the merger needs to finish. A
  // fault-mode merger additionally waits for reconnects that will never
  // come unless told the region is closing.
  to_workers_.clear();
  for (auto& w : workers_) w->join();
  workers_.clear();
  merger_->begin_shutdown();
}

DurationNs LocalRegion::jitter(DurationNs limit) {
  // xorshift64*: plenty for de-synchronizing retry storms, and seeded
  // deterministically so runs stay reproducible.
  jitter_state_ ^= jitter_state_ >> 12;
  jitter_state_ ^= jitter_state_ << 25;
  jitter_state_ ^= jitter_state_ >> 27;
  if (limit <= 0) return 0;
  return static_cast<DurationNs>(
      (jitter_state_ * 0x2545F4914F6CDD1Dull >> 33) %
      static_cast<std::uint64_t>(limit));
}

void LocalRegion::quarantine(int j, TimeNs now, LocalRunStats& stats) {
  const auto ju = static_cast<std::size_t>(j);
  if (!core_.up(j)) return;
  // A half-written frame died with the worker. GapSkip: its sequence
  // becomes a merger gap, so the remainder must not be re-sent anywhere.
  // At-least-once: the complete frame sits in the replay buffer and is
  // re-sent whole onto a survivor.
  pending_[ju].clear();
  ++stats.channel_failures;
  if (mc_.channel_failures != nullptr) mc_.channel_failures->inc();
  // At-least-once: the channel's unacked suffix queues for retransmission
  // through the normal routing path (WRR over the survivors, replay-buffer
  // back pressure included).
  const auto replay = core_.quarantine(j);
  if (core_.at_least_once()) {
    loop_->note_replay(now - run_start_, j, replay.tuples, replay.bytes);
  }
  backoff_[ju] = config_.reconnect_backoff_initial;
  next_reconnect_[ju] = now + backoff_[ju] + jitter(backoff_[ju] / 2 + 1);
  loop_->mark_channel_down(j);
}

bool LocalRegion::try_reconnect(int j, TimeNs now, LocalRunStats& stats) {
  const auto ju = static_cast<std::size_t>(j);
  if (!worker_up_[ju]) {
    // The worker process is still gone: treat as a failed dial and back
    // off exponentially (with jitter, so several quarantined connections
    // do not retry in lockstep).
    backoff_[ju] =
        std::min(backoff_[ju] * 2, config_.reconnect_backoff_max);
    next_reconnect_[ju] = now + backoff_[ju] + jitter(backoff_[ju] / 2 + 1);
    return false;
  }
  try {
    // Rebuild the splitter->worker connection and spawn the stateless
    // replacement PE, exactly like bring-up.
    net::Listener listener;
    net::Fd splitter_side = net::connect_loopback(listener.port(), 1000);
    net::Fd worker_side = listener.accept_one(1000);
    net::set_nodelay(splitter_side.get());
    net::set_send_buffer(splitter_side.get(), config_.socket_buffer_bytes);
    net::set_recv_buffer(worker_side.get(), config_.socket_buffer_bytes);

    // Re-admit the worker's merger stream: dial the merger's reconnect
    // port and announce the slot with a hello frame before any data
    // flows.
    net::Fd to_merger =
        net::connect_loopback(merger_->reconnect_port(), 1000);
    net::set_nodelay(to_merger.get());
    const std::vector<std::uint8_t> hello =
        net::hello_bytes(static_cast<std::uint32_t>(j));
    net::write_all(to_merger.get(), hello.data(), hello.size());

    workers_[ju] = std::make_unique<WorkerPe>(
        j, std::move(worker_side), std::move(to_merger),
        config_.multiplies, config_.work_mode, service_hists_[ju]);
    workers_[ju]->set_load_multiplier(load_mult_[ju]);
    senders_[ju]->rebind(splitter_side.get());
    to_workers_[ju] = std::move(splitter_side);
  } catch (const std::exception&) {
    backoff_[ju] =
        std::min(std::max(backoff_[ju] * 2,
                          config_.reconnect_backoff_initial),
                 config_.reconnect_backoff_max);
    next_reconnect_[ju] = now + backoff_[ju] + jitter(backoff_[ju] / 2 + 1);
    return false;
  }
  core_.set_up(j, true);
  backoff_[ju] = 0;
  ++stats.reconnects;
  if (mc_.reconnects != nullptr) mc_.reconnects->inc();
  loop_->mark_channel_up(j);
  return true;
}

LocalRunStats LocalRegion::run(DurationNs duration) {
  if (ran_) throw std::logic_error("LocalRegion::run is one-shot");
  ran_ = true;

  std::vector<LoadEvent> events = config_.load_events;
  std::sort(events.begin(), events.end(),
            [](const LoadEvent& a, const LoadEvent& b) { return a.at < b.at; });
  std::size_t next_event = 0;
  std::vector<FailureEvent> failures = config_.failure_events;
  std::sort(failures.begin(), failures.end(),
            [](const FailureEvent& a, const FailureEvent& b) {
              return a.at < b.at;
            });
  std::size_t next_failure = 0;

  const TimeNs start = monotonic_now();
  run_start_ = start;
  TimeNs next_sample = start + config_.sample_period;

  LocalRunStats stats;
  net::Frame frame;
  frame.payload.assign(config_.payload_bytes, 0xAB);
  std::vector<std::uint8_t> wire;

  const int n = config_.workers;
  const bool alo = core_.at_least_once();

  // At-least-once: drain the merger's cumulative acks (non-blocking) and
  // trim the replay buffers. An ack only ever shrinks state, so doing
  // this between any two sends is safe.
  std::vector<std::uint8_t> ack_rd(4096);
  const auto pump_acks = [&] {
    if (!alo || !ack_in_.valid()) return;
    for (;;) {
      const ssize_t got =
          ::recv(ack_in_.get(), ack_rd.data(), ack_rd.size(), MSG_DONTWAIT);
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          return;
        }
        ack_in_.reset();
        return;
      }
      if (got == 0) {  // merger closed its end (shutdown)
        ack_in_.reset();
        return;
      }
      ack_decoder_.feed(ack_rd.data(), static_cast<std::size_t>(got));
      net::Frame ack;
      while (ack_decoder_.next(ack)) {
        if (ack.is_ack()) core_.on_ack(ack.ack_value());
      }
      if (ack_decoder_.corrupt()) {
        ack_in_.reset();
        return;
      }
    }
  };

  // Liveness sweep: a worker death is normally discovered by a failing
  // send, but a channel nobody is sending to (its replay window is full,
  // or traffic routes elsewhere) can die invisibly — and with its receive
  // window closed no RST will ever surface. The stream is one-way, so a
  // readable splitter-side socket can only mean FIN/RST: peek each live
  // channel and quarantine the dead ones, which (at-least-once) requeues
  // their unacked frames for replay and unfreezes the ack cursor.
  const auto sweep_dead_channels = [&](TimeNs tnow, LocalRunStats& st) {
    for (int k = 0; k < n; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      if (!core_.up(k)) continue;
      std::uint8_t probe;
      const ssize_t got = ::recv(to_workers_[ku].get(), &probe, 1,
                                 MSG_DONTWAIT | MSG_PEEK);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
        quarantine(k, tnow, st);
      }
    }
  };

  // Replay-buffer back pressure: the picked connection's unacked window
  // is full, so the send must wait for ack progress. The wait is charged
  // to that connection's blocking counter — to the control plane this is
  // indistinguishable from (and as real as) a full socket buffer, which
  // keeps the blocking-rate signal truthful.
  const auto block_on_replay = [&](int j) {
    const TimeNs b0 = monotonic_now();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    counters_.at(static_cast<std::size_t>(j)).add(monotonic_now() - b0);
    pump_acks();
    // The ack we are waiting for may be gated on a frame that died with
    // its worker; only quarantine-and-replay can break that cycle.
    sweep_dead_channels(monotonic_now(), stats);
  };

  // Sequence numbers come from the delivery core; shed tuples consume
  // them without being sent. The protection decisions themselves
  // (throttle_, shed watermarks, watchdog ladder) come out of the shared
  // control loop, ticked once per sample period below.
  TimeNs next_release = start;  // open-loop release clock
  std::uint64_t prev_shed = 0;
  double throttle_debt = 0.0;  // accumulated ns to sleep off
  // Shed ranges not yet announced to the merger: [first, count). Flushed
  // through any live worker connection (workers forward gap frames with
  // zero work); held and retried while everything is down.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gap_queue;

  const auto flush_gaps = [&](TimeNs tnow) {
    while (!gap_queue.empty()) {
      int live = -1;
      for (int k = 0; k < n && live < 0; ++k) {
        if (core_.up(k)) live = k;
      }
      if (live < 0) return;  // all quarantined; retry after a reconnect
      const auto ku = static_cast<std::size_t>(live);
      // A half-flushed re-route remainder owns the stream until it is
      // complete; finishing it is mandatory before interleaving a frame.
      flush_pending(live, /*blocking=*/true);
      if (!pending_[ku].empty()) return;  // flush hit a broken sender
      const std::vector<std::uint8_t> gap_frame =
          net::gap_bytes(gap_queue.front().first, gap_queue.front().second);
      if (senders_[ku]->send_all(gap_frame.data(), gap_frame.size())) {
        gap_queue.erase(gap_queue.begin());
      } else {
        quarantine(live, tnow, stats);
      }
    }
  };

  // Shutdown. Once the duration has passed the loop issues no fresh
  // sequences: workers switch to fast-drain (forwarding buffered tuples
  // without paying their processing cost), and the loop keeps running
  // only its retransmit path until nothing is pending — bounded, so a
  // region that lost every worker for good reports the loss instead of
  // hanging. Then every live connection gets a FIN, after any shed
  // announcements (without them the merger would gate forever in plain
  // mode or mis-account trailing sheds). A FINed worker exits, so its
  // connection is down for good.
  bool draining = false;
  TimeNs drain_deadline = 0;
  const std::vector<std::uint8_t> fin = net::fin_bytes();
  // Returns false when a FIN found its worker dead and queued replays:
  // those drain onto the connections not yet FINed first.
  const auto send_fins = [&](TimeNs tnow) {
    flush_gaps(tnow);
    for (int j = 0; j < n; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (!core_.up(j)) continue;
      flush_pending(j, /*blocking=*/true);
      if (senders_[ju]->send_all(fin.data(), fin.size())) {
        core_.set_up(j, false);
        worker_up_[ju] = 0;  // never reconnected
      } else {
        quarantine(j, tnow, stats);
        if (core_.next_replay() != nullptr) return false;
      }
    }
    return true;
  };

  for (;;) {
    // Time-driven bookkeeping, checked every iteration (a clock read per
    // tuple is ~20 ns, and the non-blocking ack read is one syscall —
    // both negligible next to a TCP send).
    const TimeNs now = monotonic_now();
    if (!draining && now - start >= duration) {
      draining = true;
      drain_deadline = now + millis(2000);
      for (auto& w : workers_) w->fast_drain();
      // A worker that died since the last tick, and that nothing was sent
      // to since, is caught here — before any FIN — so its unacked frames
      // still replay onto a survivor.
      sweep_dead_channels(now, stats);
    }
    pump_acks();
    if (draining &&
        (core_.next_replay() == nullptr || now >= drain_deadline)) {
      if (send_fins(now)) break;
      continue;
    }
    while (next_event < events.size() &&
           now - start >= events[next_event].at) {
      const auto w =
          static_cast<std::size_t>(events[next_event].worker);
      load_mult_[w] = events[next_event].multiplier;
      workers_[w]->set_load_multiplier(events[next_event].multiplier);
      ++next_event;
    }
    while (next_failure < failures.size() &&
           now - start >= failures[next_failure].at) {
      const FailureEvent& f = failures[next_failure];
      const auto w = static_cast<std::size_t>(f.worker);
      if (f.restart) {
        worker_up_[w] = 1;  // the next reconnect attempt will succeed
      } else {
        worker_up_[w] = 0;
        workers_[w]->kill();
        // The splitter discovers the death on its next send to w — the
        // kill itself is invisible, exactly like a remote PE crash.
      }
      ++next_failure;
    }
    for (int j = 0; j < n; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (!core_.up(j) && now >= next_reconnect_[ju]) {
        try_reconnect(j, now, stats);
      }
    }
    if (!draining && now >= next_sample) {
      // A long blocking episode can push us several periods past
      // next_sample; normalize by the *actual* elapsed span. The whole
      // decision pipeline — observation ingest, policy update, admission
      // throttle, watchdog ladder — runs in the shared control loop,
      // which samples and actuates through this region's RegionPort.
      const DurationNs span = config_.sample_period + (now - next_sample);
      // Catch silently-dead channels once per period so the tick below
      // sees them as down rather than merely quiet.
      sweep_dead_channels(now, stats);
      if (alo && replay_bytes_g_ != nullptr) {
        replay_bytes_g_->set(static_cast<std::int64_t>(core_.replay_bytes()));
        ack_lag_g_->set(static_cast<std::int64_t>(core_.ack_lag()));
      }
      const control::ControlActions& acts = loop_->tick(now - start, span);

      sync_merger_metrics();

      if (sample_hook_) {
        LocalSample sample;
        sample.elapsed = now - start;
        sample.weights = acts.weights;
        sample.block_rates = acts.block_rates;
        sample.emitted = merger_->emitted();
        sample.shed_in_period = core_.shed() - prev_shed;
        sample.overloaded = acts.overloaded;
        sample.watchdog_stage = acts.watchdog_stage;
        sample_hook_(sample);
      }
      prev_shed = core_.shed();
      next_sample = now + config_.sample_period;
    }

    // Announce any shed ranges that could not be delivered earlier.
    if (!gap_queue.empty()) flush_gaps(now);

    // At-least-once: frames queued for retransmission drain ahead of
    // fresh input (and ahead of source pacing — they were released long
    // ago). Keeping old-before-new bounds how far the merger's replay
    // pool has to reorder.
    const auto* replay = core_.next_replay();
    const bool retransmit = replay != nullptr;

    if (!retransmit && config_.source_interval > 0) {
      // Open loop: shed when the backlog crosses the high watermark...
      if (shed_high_ > 0 && now > next_release) {
        const std::uint64_t backlog = static_cast<std::uint64_t>(
            (now - next_release) / config_.source_interval);
        if (backlog >= shed_high_) {
          const auto dropped = core_.shed(backlog - shed_low_);
          gap_queue.emplace_back(dropped.first, dropped.count);
          if (mc_.shed != nullptr) mc_.shed->inc(dropped.count);
          next_release += static_cast<DurationNs>(dropped.count) *
                          config_.source_interval;
          flush_gaps(now);
        }
      }
      // ...and wait for the next release otherwise.
      if (now < next_release) {
        const DurationNs wait = next_release - now;
        if (wait > micros(100)) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(wait - micros(50)));
        }
        continue;  // re-reads the clock and re-runs event processing
      }
    }

    std::uint64_t frame_seq;
    if (retransmit) {
      frame_seq = replay->seq;
      wire = replay->payload;  // leaves the pending queue on commit
    } else {
      frame_seq = core_.next_seq();
      frame.seq = frame_seq;
      wire.clear();
      net::encode_frame(frame, wire);
    }

    const int picked = policy_->pick_connection();
    const int j = core_.route(picked);
    if (j < 0) {
      // Total outage: idle until a reconnect lands.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (j != picked && mc_.failovers != nullptr) mc_.failovers->inc();

    int target = -1;
    if (policy_->reroute_on_block()) {
      // Section 4.4 baseline: divert whole frames to any connection whose
      // kernel buffer accepts them without blocking. A partially-accepted
      // frame must finish on the same socket before anything else goes
      // there, so remainders sit in a per-connection userspace buffer
      // (mirroring a transport layer's output queue) and are flushed
      // opportunistically; a connection with pending bytes is skipped by
      // the re-route scan.
      for (int k = 0; k < n; ++k) {
        if (core_.up(k)) flush_pending(k, /*blocking=*/false);
      }
      for (int step = 0; step < n; ++step) {
        const int k = (j + step) % n;
        const auto ku = static_cast<std::size_t>(k);
        if (!core_.up(k)) continue;
        if (!pending_[ku].empty()) continue;
        // A full replay buffer back-pressures exactly like a full kernel
        // buffer: the re-route scan walks past it.
        if (!core_.admits(k, wire.size())) continue;
        const std::size_t accepted =
            senders_[ku]->try_send(wire.data(), wire.size());
        if (senders_[ku]->broken()) {
          quarantine(k, now, stats);
          continue;
        }
        if (accepted == wire.size()) {
          target = k;
          break;
        }
        if (accepted > 0) {
          pending_[ku].assign(wire.begin() +
                                  static_cast<std::ptrdiff_t>(accepted),
                              wire.end());
          target = k;
          break;
        }
      }
      if (target < 0 && !core_.up(j)) continue;  // scan quarantined it
    }
    if (target < 0) {
      // Elect to block on the picked connection, exactly like the paper's
      // splitter. A full replay buffer blocks on it too, until an ack
      // trims it, as in the simulator (DESIGN.md §10).
      if (!core_.admits(j, wire.size())) {
        block_on_replay(j);
        continue;
      }
      flush_pending(j, /*blocking=*/true);
      if (!senders_[static_cast<std::size_t>(j)]->send_all(wire.data(),
                                                            wire.size())) {
        // Peer vanished mid-send: the dead worker never decoded the
        // partial frame, so the *whole* frame fails over next iteration
        // with its sequence number intact.
        quarantine(j, now, stats);
        continue;
      }
      target = j;
    }
    if (target != j) {
      ++stats.rerouted;
      if (mc_.rerouted != nullptr) mc_.rerouted->inc();
    }
    // The frame is now in flight and (at-least-once) unacked: it joins the
    // replay buffer of whichever connection carried it.
    core_.commit(target, frame_seq, wire.size(),
                 alo ? wire : std::vector<std::uint8_t>{}, retransmit);
    if (retransmit) {
      if (mc_.retransmits != nullptr) mc_.retransmits->inc();
      continue;  // a re-send is not a fresh sequence: no sent/pacing
    }
    if (mc_.sent != nullptr) mc_.sent->inc();
    if (config_.source_interval > 0) {
      next_release += config_.source_interval;
    } else if (throttle_ < 1.0) {
      // Admission control: pay out the complement of the throttle factor
      // as sleep, batched so sub-100µs debts still take effect.
      const TimeNs after = monotonic_now();
      throttle_debt +=
          (1.0 / throttle_ - 1.0) * static_cast<double>(after - now);
      if (throttle_debt >= 100000.0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            static_cast<long long>(throttle_debt)));
        throttle_debt = 0.0;
      }
    }
  }

  // begin_shutdown tells the merger that crashed slots will never
  // reconnect, so it must not wait for them.
  for (auto& w : workers_) w->join();
  merger_->begin_shutdown();
  merger_->join();
  sync_merger_metrics();

  stats.elapsed = monotonic_now() - start;
  stats.sent = core_.total_sent();
  stats.shed = core_.shed();
  stats.failovers = core_.failovers();
  stats.retransmits = core_.retransmits();
  stats.emitted = merger_->emitted();
  stats.gaps = merger_->gaps();
  stats.dup_discards = merger_->dup_discards();
  stats.late_discards = merger_->late_discards();
  stats.order_ok = merger_->order_ok() &&
                   stats.emitted + stats.gaps == stats.sent + stats.shed;
  stats.blocked = counters_.sample();
  stats.final_weights = policy_->weights();
  return stats;
}

void LocalRegion::sync_merger_metrics() {
  if (merger_emitted_c_ == nullptr || merger_ == nullptr) return;
  const std::uint64_t emitted = merger_->emitted();
  const std::uint64_t gaps = merger_->gaps();
  const std::uint64_t reconnects = merger_->reconnects();
  if (emitted > merger_emitted_seen_) {
    merger_emitted_c_->inc(emitted - merger_emitted_seen_);
    merger_emitted_seen_ = emitted;
  }
  if (gaps > merger_gaps_seen_) {
    merger_gaps_c_->inc(gaps - merger_gaps_seen_);
    merger_gaps_seen_ = gaps;
  }
  if (reconnects > merger_reconnects_seen_) {
    merger_reconnects_c_->inc(reconnects - merger_reconnects_seen_);
    merger_reconnects_seen_ = reconnects;
  }
  const std::uint64_t dups = merger_->dup_discards();
  if (dups > merger_dups_seen_) {
    merger_dups_c_->inc(dups - merger_dups_seen_);
    merger_dups_seen_ = dups;
  }
  const std::uint64_t lates = merger_->late_discards();
  if (lates > merger_lates_seen_) {
    merger_lates_c_->inc(lates - merger_lates_seen_);
    merger_lates_seen_ = lates;
  }
  merger_depth_g_->set(
      static_cast<std::int64_t>(merger_->max_queue_depth()));
}

}  // namespace slb::rt
