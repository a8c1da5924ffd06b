#include "runtime/local_region.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <limits>
#include <stdexcept>
#include <string>

#include "transport/framing.h"

namespace slb::rt {

namespace {

constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

/// True when a splitter->worker connection has lost its peer. The stream
/// is one-way — workers never write — so a readable socket can only mean
/// FIN or RST; the peek confirms it without consuming anything, and a
/// spurious wake with the peer alive leaves EAGAIN.
bool peer_gone(int fd) {
  std::uint8_t probe;
  const ssize_t got = ::recv(fd, &probe, 1, MSG_DONTWAIT | MSG_PEEK);
  return got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                      errno != EINTR);
}

}  // namespace

LocalRegion::LocalRegion(LocalRegionConfig config,
                         std::unique_ptr<SplitPolicy> policy)
    : config_(config),
      policy_(std::move(policy)),
      core_(config.workers, config.delivery.mode,
            config.delivery.replay_buffer_bytes, config.source_interval) {
  assert(config_.workers > 0);
  assert(policy_ != nullptr);
  const auto check_worker = [&](int w) {
    if (w < 0 || w >= config_.workers) {
      throw std::invalid_argument("LocalRegion: event on worker " +
                                  std::to_string(w));
    }
  };
  for (const LoadEvent& e : config_.load_events) check_worker(e.worker);
  for (const FailureEvent& f : config_.failure_events) check_worker(f.worker);
  control::ControlLoopConfig loop_cfg;
  loop_cfg.protection = config_.protection;
  loop_cfg.closed_loop_source = config_.source_interval == 0;
  if (core_.at_least_once()) {
    loop_cfg.ack_stall_periods = config_.delivery.ack_stall_periods;
  }
  loop_ = std::make_unique<control::RegionControlLoop>(
      config_.workers, policy_.get(), loop_cfg);
  if (policy_->reroute_on_block()) {
    // Section 4.4's transport-level re-routing is reproduced by the
    // simulator; this splitter always elects to block on its pick.
    throw std::invalid_argument("LocalRegion: policy '" + policy_->name() +
                                "' re-routes on block; only the simulator "
                                "runs re-routing policies");
  }
  net::ignore_sigpipe();  // dead peers must surface as EPIPE, not SIGPIPE

  mc_.sent = &metrics_.counter("splitter.sent");
  mc_.shed = &metrics_.counter("splitter.shed");
  mc_.failovers = &metrics_.counter("splitter.failovers");
  mc_.channel_failures = &metrics_.counter("splitter.channel_failures");
  mc_.reconnects = &metrics_.counter("splitter.reconnects");
  mc_.retransmits = &metrics_.counter("splitter.retransmits");
  replay_bytes_g_ = &metrics_.gauge("splitter.replay_buffer_bytes");
  ack_lag_g_ = &metrics_.gauge("splitter.ack_lag");
  for (int j = 0; j < config_.workers; ++j) {
    service_hists_.push_back(
        &metrics_.histogram("worker." + std::to_string(j) + ".service_ns"));
  }
  policy_->attach_metrics(metrics_, "policy.");
  loop_->attach_metrics(metrics_, "region.");

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

    to_workers_.push_back(std::move(splitter_side));
    workers_.push_back(std::make_unique<WorkerPe>(
        j, std::move(worker_side),
        std::move(worker_to_merger[static_cast<std::size_t>(j)]),
        config_.multiplies, config_.work_mode,
        *service_hists_[static_cast<std::size_t>(j)]));
  }
  // At-least-once bring-up: the merger->splitter ack connection (the
  // reverse hop cumulative acks ride on). The splitter reads its end
  // whenever its wait reports it readable.
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
  merger_ = std::make_unique<MergerPe>(std::move(merger_from_worker),
                                       metrics_, fault, config_.delivery.mode,
                                       std::move(merger_ack_out));

  const auto n = static_cast<std::size_t>(config_.workers);
  worker_up_.assign(n, 1);
  next_reconnect_.assign(n, 0);
  backoff_.assign(n, 0);
  load_mult_.assign(n, 1.0);
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

void LocalRegion::quarantine(int j, TimeNs now) {
  const auto ju = static_cast<std::size_t>(j);
  if (!core_.up(j)) return;
  mc_.channel_failures->inc();
  // At-least-once: the channel's unacked suffix queues for retransmission
  // through the normal routing path (WRR over the survivors, replay-buffer
  // back pressure included).
  const auto replay = core_.quarantine(j);
  if (core_.at_least_once()) {
    loop_->note_replay(now - run_start_, j, replay.tuples, replay.bytes);
  }
  backoff_[ju] = kReconnectBackoffInitial;
  next_reconnect_[ju] = now + backoff_[ju] + jitter(backoff_[ju] / 2 + 1);
  loop_->mark_channel_down(j);
}

bool LocalRegion::try_reconnect(int j, TimeNs now) {
  const auto ju = static_cast<std::size_t>(j);
  if (!worker_up_[ju]) {
    // The worker process is still gone: treat as a failed dial and back
    // off exponentially (with jitter, so several quarantined connections
    // do not retry in lockstep).
    backoff_[ju] = std::min(backoff_[ju] * 2, kReconnectBackoffMax);
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
        config_.multiplies, config_.work_mode, *service_hists_[ju]);
    workers_[ju]->set_load_multiplier(load_mult_[ju]);
    to_workers_[ju] = std::move(splitter_side);
  } catch (const std::exception&) {
    backoff_[ju] = std::min(
        std::max(backoff_[ju] * 2, kReconnectBackoffInitial),
        kReconnectBackoffMax);
    next_reconnect_[ju] = now + backoff_[ju] + jitter(backoff_[ju] / 2 + 1);
    return false;
  }
  core_.set_up(j, true);
  backoff_[ju] = 0;
  mc_.reconnects->inc();
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
  core_.start(start);
  const TimeNs end = start + duration;
  TimeNs next_sample = start + config_.sample_period;
  TimeNs now = start;

  net::Frame frame;
  frame.payload.assign(config_.payload_bytes, 0xAB);

  const int n = config_.workers;
  const bool alo = core_.at_least_once();

  // The frame being written. It is bound to channel `ch` from its first
  // send attempt until the kernel has taken its last byte — only then
  // does a data frame commit — or until `ch` dies, when the whole frame
  // is chosen afresh (same sequence number, or same gap range) for a
  // survivor. Nothing else is written to `ch` meanwhile; ticks, acks and
  // events still run between the waits.
  enum class Kind { kData, kGap, kFin };
  struct Outgoing {
    Kind kind = Kind::kData;
    int ch = -1;  // -1: no frame bound
    std::size_t off = 0;
    std::uint64_t seq = 0;
    bool retransmit = false;
    TimeNs since = 0;
    std::vector<std::uint8_t> wire;
  } out;
  const auto bind = [&](Kind kind, int ch) {
    out.kind = kind;
    out.ch = ch;
    out.off = 0;
    out.since = now;
  };
  const auto drop = [&](int k) {
    quarantine(k, now);
    if (out.ch == k) out.ch = -1;
  };

  // At-least-once: drain the merger's cumulative acks and trim the replay
  // buffers. An ack only ever shrinks state, so this is safe between any
  // two waits, even mid-frame.
  std::vector<std::uint8_t> ack_rd(4096);
  const auto read_acks = [&] {
    for (;;) {
      const ssize_t got =
          ::recv(ack_in_.get(), ack_rd.data(), ack_rd.size(), MSG_DONTWAIT);
      if (got < 0 &&
          (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        return;
      }
      if (got <= 0) {  // merger closed its end (shutdown), or it broke
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

  // Sequences and source pacing come from the delivery core; shed tuples
  // consume sequences without being sent. The protection decisions
  // themselves (throttle, shed watermarks, watchdog ladder) come out of
  // the shared control loop, ticked once per sample period below;
  // `actions` always holds its latest decision.
  const control::ControlActions& actions = loop_->last_actions();
  std::uint64_t prev_shed = 0;
  // Shed ranges not yet announced to the merger: [first, count). Sent
  // through any live worker connection (workers forward gap frames with
  // zero work); held while everything is down.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gap_queue;

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

  // The one place the splitter thread blocks: a ppoll over POLLIN on every
  // live worker connection (the streams are one-way, so readability means
  // FIN or RST — the worker died), POLLIN on the ack connection, and
  // POLLOUT on the connection whose bound frame the kernel would not take.
  // `ready` makes it a zero-timeout pass; otherwise it lasts until the
  // nearest deadline below. The time spent waiting on `blocked_on` — its
  // bound frame is stuck, or its replay window is full — is charged to
  // that connection in the delivery core (paper Section 3).
  std::vector<pollfd> fds(static_cast<std::size_t>(n) + 1);
  bool ready = true;
  int blocked_on = -1;
  TimeNs wake_at = kNever;  // source pacing deadline
  const auto next_deadline = [&] {
    TimeNs t = wake_at;
    if (!draining) {
      t = std::min({t, next_sample, end});
    } else if (drain_deadline > now) {
      t = std::min(t, drain_deadline);
    }
    if (next_event < events.size()) {
      t = std::min(t, start + events[next_event].at);
    }
    if (next_failure < failures.size()) {
      t = std::min(t, start + failures[next_failure].at);
    }
    for (int k = 0; k < n; ++k) {
      if (!core_.up(k)) {
        t = std::min(t, next_reconnect_[static_cast<std::size_t>(k)]);
      }
    }
    return t;
  };

  for (;;) {
    for (int k = 0; k < n; ++k) {
      pollfd& p = fds[static_cast<std::size_t>(k)];
      p.fd = core_.up(k) ? to_workers_[static_cast<std::size_t>(k)].get() : -1;
      p.events = POLLIN;
      if (k == blocked_on && k == out.ch) p.events |= POLLOUT;
    }
    fds[static_cast<std::size_t>(n)].fd = ack_in_.valid() ? ack_in_.get() : -1;
    fds[static_cast<std::size_t>(n)].events = POLLIN;
    const TimeNs t0 = monotonic_now();
    const DurationNs timeout =
        ready ? 0 : std::max<DurationNs>(next_deadline() - t0, 0);
    const timespec ts{static_cast<std::time_t>(timeout / 1'000'000'000),
                      static_cast<long>(timeout % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    now = monotonic_now();
    if (blocked_on >= 0) {
      core_.charge_blocked(blocked_on, now - t0);
    }
    if (fds[static_cast<std::size_t>(n)].revents != 0) read_acks();
    for (int k = 0; k < n; ++k) {
      const pollfd& p = fds[static_cast<std::size_t>(k)];
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) != 0 && peer_gone(p.fd)) {
        // At-least-once, the quarantine requeues the channel's unacked
        // frames for replay, which unfreezes the ack cursor.
        drop(k);
      }
    }

    if (!draining && now >= end) {
      draining = true;
      drain_deadline = now + millis(2000);
      for (auto& w : workers_) w->fast_drain();
      // One more zero-timeout pass before any FIN: a worker that died
      // since the last wait, and that nothing was sent to since, is
      // quarantined first, so its unacked frames still replay onto a
      // survivor.
      ready = true;
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
        // The splitter discovers the death when its socket turns readable
        // — the kill itself is invisible, exactly like a remote PE crash.
      }
      ++next_failure;
    }
    for (int j = 0; j < n; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (!core_.up(j) && now >= next_reconnect_[ju]) {
        try_reconnect(j, now);
      }
    }
    if (!draining && now >= next_sample) {
      // No wait outlasts next_sample, but a slow pass can still run past
      // it; normalize by the *actual* elapsed span. The whole decision
      // pipeline — observation ingest, policy update, admission throttle,
      // watchdog ladder — runs in the shared control loop on this
      // period's sample. The merger PE keeps no per-connection delivered
      // counts, so the policy's (no-op) throughput ingest is skipped.
      const DurationNs span = config_.sample_period + (now - next_sample);
      if (alo) {
        replay_bytes_g_->set(static_cast<std::int64_t>(core_.replay_bytes()));
        ack_lag_g_->set(static_cast<std::int64_t>(core_.ack_lag()));
      }
      loop_->tick(now - start, span, core_.blocked_ns(), {},
                  {alo, core_.acked(), core_.unacked()});
      core_.set_throttle(actions.throttle);

      if (sample_hook_) {
        LocalSample sample;
        sample.elapsed = now - start;
        sample.weights = actions.weights;
        sample.block_rates = actions.block_rates;
        sample.emitted = merger_->emitted();
        sample.shed_in_period = core_.shed() - prev_shed;
        sample.overloaded = actions.overloaded;
        sample.watchdog_stage = actions.watchdog_stage;
        sample_hook_(sample);
      }
      prev_shed = core_.shed();
      next_sample = now + config_.sample_period;
    }

    // Bind the next frame to a connection, unless one is still being
    // written; otherwise note what the next wait is for.
    ready = false;
    blocked_on = -1;
    wake_at = kNever;
    if (out.ch < 0) {
      // At-least-once: frames queued for retransmission go ahead of fresh
      // input (and ahead of the open-loop release — they were released
      // long ago). Keeping old-before-new bounds how far the merger's
      // replay pool has to reorder.
      const auto* replay = core_.next_replay();
      const bool fresh = replay == nullptr;
      if (fresh && !draining) {
        // Open loop: shed when the backlog crosses the high watermark.
        const auto dropped =
            core_.shed_backlog(now, actions.shed_high, actions.shed_low);
        if (dropped.count > 0) {
          gap_queue.emplace_back(dropped.first, dropped.count);
          mc_.shed->inc(dropped.count);
        }
      }
      int live = -1;
      for (int k = n - 1; k >= 0; --k) {
        if (core_.up(k)) live = k;
      }
      if (!gap_queue.empty() && live >= 0) {
        out.wire = net::gap_bytes(gap_queue.front().first,
                                  gap_queue.front().second);
        bind(Kind::kGap, live);
      } else if (draining && (fresh || now >= drain_deadline)) {
        if (live < 0) break;
        out.wire = fin;
        bind(Kind::kFin, live);
      } else if (now < core_.ready_at(fresh)) {
        // Source pacing: the open-loop release, or the throttled end of
        // the last send.
        wake_at = core_.ready_at(fresh);
      } else {
        const int picked = policy_->pick_connection();
        const int j = core_.route(picked);
        // j < 0 is a total outage: wait for a reconnect.
        if (j >= 0) {
          if (j != picked) mc_.failovers->inc();
          out.retransmit = !fresh;
          if (out.retransmit) {
            out.seq = replay->seq;
            out.wire = replay->payload;  // leaves the pending queue on commit
          } else {
            out.seq = frame.seq = core_.next_seq();
            out.wire.clear();
            net::encode_frame(frame, out.wire);
          }
          // A full replay window blocks the picked connection like a full
          // socket buffer until an ack trims it (DESIGN.md §10). The frame
          // stays unbound, so the next pass picks again.
          if (core_.admits(j, out.wire.size())) {
            bind(Kind::kData, j);
          } else {
            blocked_on = j;
          }
        }
      }
    }
    if (out.ch < 0) continue;

    const int j = out.ch;
    const auto ju = static_cast<std::size_t>(j);
    const std::ptrdiff_t put =
        net::send_some(to_workers_[ju].get(), out.wire.data() + out.off,
                       out.wire.size() - out.off);
    if (put == net::kPeerGone) {
      // The dead worker never decoded the partial frame, so the *whole*
      // frame goes out again elsewhere, its sequence number intact.
      drop(j);
      ready = true;
      continue;
    }
    out.off += static_cast<std::size_t>(put);
    if (out.off < out.wire.size()) {
      // Elect to block on the picked connection, exactly like the paper's
      // splitter: the next wait is for POLLOUT on j, charged to j.
      blocked_on = j;
      continue;
    }
    out.ch = -1;
    ready = true;
    if (out.kind == Kind::kGap) {
      gap_queue.erase(gap_queue.begin());
      continue;
    }
    if (out.kind == Kind::kFin) {
      core_.set_up(j, false);
      worker_up_[ju] = 0;  // never reconnected
      next_reconnect_[ju] = kNever;
      continue;
    }
    // The frame is now in flight and (at-least-once) unacked: it joins the
    // replay buffer of the connection that carried it.
    core_.commit(j, out.seq, out.wire.size(),
                 alo ? out.wire : std::vector<std::uint8_t>{},
                 out.retransmit);
    // The send kept the splitter busy from binding the frame to its last
    // byte; a fresh one also consumed a source release.
    core_.paced(out.since, monotonic_now(), !out.retransmit);
    (out.retransmit ? mc_.retransmits : mc_.sent)->inc();
  }

  // begin_shutdown tells the merger that crashed slots will never
  // reconnect, so it must not wait for them.
  for (auto& w : workers_) w->join();
  merger_->begin_shutdown();
  merger_->join();

  LocalRunStats stats;
  stats.elapsed = monotonic_now() - start;
  stats.sent = core_.total_sent();
  stats.shed = core_.shed();
  stats.failovers = core_.failovers();
  stats.retransmits = core_.retransmits();
  stats.channel_failures = mc_.channel_failures->value();
  stats.reconnects = mc_.reconnects->value();
  stats.emitted = merger_->emitted();
  stats.gaps = merger_->gaps();
  stats.dup_discards = merger_->dup_discards();
  stats.late_discards = merger_->late_discards();
  stats.order_ok = merger_->order_ok() &&
                   stats.emitted + stats.gaps == stats.sent + stats.shed;
  stats.blocked.assign(core_.blocked_ns().begin(), core_.blocked_ns().end());
  stats.final_weights = policy_->weights();
  return stats;
}

}  // namespace slb::rt
