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

/// Kernel buffer request on each splitter->worker connection (the
/// splitter's send side, the worker's receive side). Small buffers make
/// back pressure, and so blocking, visible quickly.
constexpr int kSocketBufferBytes = 16 * 1024;

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
      core_(metrics_, "splitter.", config.workers, config.delivery.mode,
            config.delivery.replay_buffer_bytes, config.source_interval),
      channel_failures_(metrics_.counter("splitter.channel_failures")),
      reconnects_(metrics_.counter("splitter.reconnects")),
      service_(metrics_, config.workers) {
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
  if (config_.sample_period <= 0) {
    throw std::invalid_argument("LocalRegion: sample_period " +
                                std::to_string(config_.sample_period));
  }
  if (policy_->reroute_on_block()) {
    // Section 4.4's transport-level re-routing is reproduced by the
    // simulator; this splitter always elects to block on its pick.
    throw std::invalid_argument("LocalRegion: policy '" + policy_->name() +
                                "' re-routes on block; only the simulator "
                                "runs re-routing policies");
  }
  net::ignore_sigpipe();  // dead peers must surface as EPIPE, not SIGPIPE

  loop_ = std::make_unique<control::RegionControlLoop>(
      config_.workers, policy_.get(), config_.protection,
      config_.source_interval, config_.delivery, metrics_);

  // Topology bring-up: one listener at the merger side for the
  // worker->merger connections, which the merger keeps for restarted
  // workers to dial; then each worker's splitter connection and PE.
  const auto n = static_cast<std::size_t>(config_.workers);
  net::Listener merger_listener;
  std::vector<net::Fd> worker_to_merger;
  std::vector<net::Fd> merger_from_worker;
  for (int j = 0; j < config_.workers; ++j) {
    worker_to_merger.push_back(
        net::connect_loopback(merger_listener.port()));
    merger_from_worker.push_back(merger_listener.accept_one());
  }
  worker_up_.assign(n, 1);
  load_mult_.assign(n, 1.0);
  to_workers_.resize(n);
  workers_.resize(n);
  for (int j = 0; j < config_.workers; ++j) {
    spawn(j, std::move(worker_to_merger[static_cast<std::size_t>(j)]));
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

  merger_ = std::make_unique<MergerPe>(
      std::move(merger_from_worker), std::move(merger_listener), metrics_,
      config_.delivery.mode, std::move(merger_ack_out));
}

LocalRegion::~LocalRegion() {
  // Tear down in dependency order so a constructed-but-never-run region
  // (e.g. a parity test driving the control loop externally) still
  // unwinds promptly: FIN every worker, as run() does at shutdown, so
  // each forwards a FIN and the merger finishes without waiting for
  // re-admissions; then close the splitter sockets, join the worker
  // threads and destroy them. Crashed slots that never reconnected are
  // final once the merger is told the region is closing.
  const std::vector<std::uint8_t> fin = net::fin_bytes();
  for (const net::Fd& s : to_workers_) {
    ::send(s.get(), fin.data(), fin.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  }
  to_workers_.clear();
  for (auto& w : workers_) w->join();
  workers_.clear();
  merger_->begin_shutdown();
}

void LocalRegion::quarantine(int j, TimeNs now) {
  if (!core_.up(j)) return;
  channel_failures_.inc();
  // At-least-once: the channel's unacked suffix queues for retransmission
  // through the normal routing path (WRR over the survivors, replay-buffer
  // back pressure included).
  const auto replay = core_.quarantine(j);
  loop_->mark_channel_down(now - run_start_, j, replay.tuples, replay.bytes);
}

void LocalRegion::spawn(int j, net::Fd to_merger) {
  const auto ju = static_cast<std::size_t>(j);
  // The listener exists before the connect, so neither call needs a
  // timeout.
  net::Listener listener;
  net::Fd splitter_side = net::connect_loopback(listener.port());
  net::Fd worker_side = listener.accept_one();
  net::set_nodelay(splitter_side.get());
  net::set_send_buffer(splitter_side.get(), kSocketBufferBytes);
  net::set_recv_buffer(worker_side.get(), kSocketBufferBytes);
  net::set_nodelay(to_merger.get());
  to_workers_[ju] = std::move(splitter_side);
  workers_[ju] = std::make_unique<WorkerPe>(
      j, std::move(worker_side), std::move(to_merger), config_.multiplies,
      config_.work_mode, service_.histogram(j));
  workers_[ju]->set_load_multiplier(load_mult_[ju]);
}

void LocalRegion::try_reconnect(int j) {
  try {
    // Re-admit the worker's merger stream: dial the merger's listener and
    // announce the slot with a hello frame before any data flows, then a
    // watermark: the new stream carries only sequences not issued yet, so
    // the merger need not wait on it for older ones.
    net::Fd to_merger =
        net::connect_loopback(merger_->reconnect_port(), 1000);
    std::vector<std::uint8_t> hello =
        net::hello_bytes(static_cast<std::uint32_t>(j));
    const std::vector<std::uint8_t> watermark =
        net::gap_bytes(core_.next_seq(), 0);
    hello.insert(hello.end(), watermark.begin(), watermark.end());
    net::write_all(to_merger.get(), hello.data(), hello.size());
    spawn(j, std::move(to_merger));
  } catch (const std::exception&) {
    return;  // still quarantined: the next pass tries again
  }
  core_.set_up(j, true);
  reconnects_.inc();
  loop_->mark_channel_up(j);
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
  // Gap frames not yet sent (workers forward them with zero work): shed
  // ranges [first, first + count), which go through any live connection
  // and are held while everything is down, and GapSkip watermarks
  // (count 0), each bound for one survivor and dropped if it dies too.
  struct GapNote {
    int to;  // -1: any live connection
    std::uint64_t first;
    std::uint64_t count;
  };
  std::vector<GapNote> gap_queue;
  // A worker is gone. Under GapSkip its stream has ended at the merger,
  // and every survivor gets a watermark past the sequences it lost, so
  // that an idle survivor does not hold the merger's loss inference back.
  const auto drop = [&](int k) {
    quarantine(k, now);
    if (out.ch == k) out.ch = -1;
    std::erase_if(gap_queue, [k](const GapNote& g) { return g.to == k; });
    if (alo) return;
    for (int s = 0; s < n; ++s) {
      if (core_.up(s)) gap_queue.push_back({s, core_.next_seq(), 0});
    }
  };

  // Shutdown. Once the duration has passed the loop issues no fresh
  // sequences: workers switch to fast-drain (forwarding buffered tuples
  // without paying their processing cost), and the loop keeps running
  // only its retransmit path until nothing is pending — bounded, so a
  // region that lost every worker for good reports the loss instead of
  // hanging. Then every live connection gets a FIN, after any shed
  // announcements (without them the merger would mis-account trailing
  // sheds). A FINed worker exits, so its connection is down for good.
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
        worker_up_[w] = 1;  // re-admitted below, once quarantined
      } else {
        worker_up_[w] = 0;
        workers_[w]->kill();
        // The splitter discovers the death when its socket turns readable
        // — the kill itself is invisible, exactly like a remote PE crash.
      }
      ++next_failure;
    }
    // Re-admission: a quarantined channel whose replacement PE exists
    // (restarted, or never killed by the schedule) reconnects now.
    for (int j = 0; j < n; ++j) {
      if (!core_.up(j) && worker_up_[static_cast<std::size_t>(j)]) {
        try_reconnect(j);
      }
    }
    if (!draining && now >= next_sample) {
      // No wait outlasts next_sample, but a slow pass can still run past
      // it; normalize by the *actual* elapsed span. The whole decision
      // pipeline — observation ingest, policy update, admission throttle,
      // watchdog ladder — runs in the shared control loop on this
      // period's sample. The merger PE keeps no per-connection delivered
      // counts, so the policy's (no-op) throughput ingest is skipped. The
      // workers write their service histograms concurrently; each read is
      // of relaxed atomics, so a sample may straddle a tuple or two.
      const DurationNs span = config_.sample_period + (now - next_sample);
      loop_->tick(now - start, span, core_.blocked_ns(), service_.read(), {},
                  {core_.acked(), core_.unacked()});
      core_.set_throttle(actions.throttle);

      if (sample_hook_) {
        LocalSample sample;
        sample.elapsed = now - start;
        sample.weights = policy_->weights();
        sample.emitted = merger_->emitted();
        sample_hook_(sample);
      }
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
          gap_queue.push_back({-1, dropped.first, dropped.count});
        }
      }
      int live = -1;
      for (int k = n - 1; k >= 0; --k) {
        if (core_.up(k)) live = k;
      }
      if (!gap_queue.empty() && live >= 0) {
        const GapNote& g = gap_queue.front();
        out.wire = net::gap_bytes(g.first, g.count);
        bind(Kind::kGap, g.to >= 0 ? g.to : live);
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
        // j < 0 is a total outage: wait for a restart.
        if (j >= 0) {
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
  stats.channel_failures = channel_failures_.value();
  stats.reconnects = reconnects_.value();
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
