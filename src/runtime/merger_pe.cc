#include "runtime/merger_pe.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "delivery/release_core.h"
#include "transport/framing.h"
#include "util/log.h"
#include "util/time.h"

namespace slb::rt {

namespace {

/// At-least-once: piggyback a cumulative ack after this many releases;
/// smaller progress is flushed whenever the poll loop goes idle.
constexpr std::uint64_t kAckEvery = 64;

}  // namespace

MergerPe::MergerPe(std::vector<net::Fd> from_workers,
                   obs::MetricsRegistry& metrics, MergerFaultConfig fault,
                   delivery::DeliveryMode mode, net::Fd ack_out)
    : from_workers_(std::move(from_workers)),
      fault_(fault),
      mode_(mode),
      ack_out_(std::move(ack_out)),
      emitted_(metrics.counter("merger.emitted")),
      gaps_(metrics.counter("merger.gaps")),
      dup_discards_(metrics.counter("merger.dup_discards")),
      late_discards_(metrics.counter("merger.late_discards")),
      reconnects_(metrics.counter("merger.reconnects")),
      max_depth_(metrics.gauge("merger.max_depth")) {
  if (fault_.enabled) listener_ = std::make_unique<net::Listener>();
  thread_ = std::thread([this] { run(); });
}

MergerPe::~MergerPe() {
  if (thread_.joinable()) thread_.join();
}

void MergerPe::join() {
  if (thread_.joinable()) thread_.join();
}

void MergerPe::run() {
  try {
    const std::size_t n = from_workers_.size();
    const bool ft = listener_ != nullptr;
    const bool alo = mode_ == delivery::DeliveryMode::kAtLeastOnce;
    // Queues hold bare sequence numbers: only counts leave the merger.
    delivery::ReleaseCore<std::uint64_t> core(static_cast<int>(n), mode_);
    std::vector<net::FrameDecoder> decoders(n);
    std::vector<bool> finished(n, false);  // clean FIN received
    std::vector<std::uint8_t> buf(64 * 1024);
    std::size_t open = n;  // plain mode: slots not yet at EOF/FIN
    std::size_t fins = 0;  // fault mode: slots that FINed

    // Reconnect connections accepted but not yet claimed by a hello.
    struct Pending {
      net::Fd fd;
      net::FrameDecoder decoder;
    };
    std::vector<Pending> pending;
    net::Frame frame;

    const auto release = [&] {
      core.release(monotonic_now(), [&](int, std::uint64_t) {
        emitted_.inc();
        return true;
      });
    };
    // Publishes the core's counts to the registry. Plain mode declares
    // neither gaps nor replays, so a stale arrival there (a late_discard
    // to the core) is a real order violation.
    const auto publish = [&] {
      gaps_.advance_to(core.gaps());
      dup_discards_.advance_to(core.dup_discards());
      late_discards_.advance_to(core.late_discards());
      if (!ft && core.late_discards() > 0) {
        order_ok_.store(false, std::memory_order_relaxed);
      }
    };

    // Cumulative-ack pump (at-least-once): tell the splitter the highest
    // contiguously released sequence so it can trim its replay buffers.
    // Non-blocking, drop-tolerant writes — a lost ack only delays the
    // trim until the next one, because each ack carries the full cursor.
    std::vector<std::uint8_t> ack_buf;  // unwritten remainder of last ack
    const auto pump_acks = [&](bool force) {
      if (!alo || !ack_out_.valid()) return;
      if (ack_buf.empty()) {
        if (core.unacked() == 0) return;
        if (!force && core.unacked() < kAckEvery) return;
        ack_buf = net::ack_bytes(core.take_ack());
      }
      const ssize_t put = ::send(ack_out_.get(), ack_buf.data(),
                                 ack_buf.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (put < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        SLB_ERROR() << "merger: ack channel lost, acks disabled";
        ack_out_.reset();
        ack_buf.clear();
        return;
      }
      ack_buf.erase(ack_buf.begin(), ack_buf.begin() + put);
    };

    // Decodes whatever already sits in slot j's decoder; a FIN closes
    // the slot for good (frames after a FIN are dropped).
    const auto drain_decoder = [&](std::size_t j) {
      while (decoders[j].next(frame)) {
        if (frame.is_fin()) {
          finished[j] = true;
          ++fins;
          --open;
          from_workers_[j].reset();
          return;
        }
        if (frame.is_gap()) {
          // Shed at the source: these sequences will never arrive.
          core.note_lost(frame.gap_first(), frame.gap_count(),
                         monotonic_now());
          continue;
        }
        core.offer(static_cast<int>(j), frame.seq);
        const auto depth =
            static_cast<std::int64_t>(core.queue_size(static_cast<int>(j)));
        if (depth > max_depth_.value()) max_depth_.set(depth);
      }
      if (decoders[j].corrupt()) {
        // Garbage on the wire: no way to resynchronize a length-prefixed
        // stream. Treat as a lost connection (fault mode may re-admit it
        // through the reconnect port with a fresh decoder).
        SLB_ERROR() << "merger: corrupt stream from slot " << j;
        from_workers_[j].reset();
        if (!ft && !finished[j]) {
          finished[j] = true;
          --open;
        }
      }
    };

    std::vector<pollfd> pfds;
    std::vector<long> tags;  // >= 0: worker slot; -1: listener; else pending
    while (ft ? fins < n : open > 0) {
      if (ft && closing_.load(std::memory_order_acquire)) {
        // Region shutdown: disconnected slots will not reconnect anymore;
        // their streams are complete as far as they will ever be.
        for (std::size_t j = 0; j < n; ++j) {
          if (!finished[j] && !from_workers_[j].valid()) {
            finished[j] = true;
            ++fins;
          }
        }
        if (fins >= n) break;
      }
      pfds.clear();
      tags.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (finished[j] || !from_workers_[j].valid()) continue;
        pfds.push_back(pollfd{from_workers_[j].get(), POLLIN, 0});
        tags.push_back(static_cast<long>(j));
      }
      if (ft) {
        pfds.push_back(pollfd{listener_->fd(), POLLIN, 0});
        tags.push_back(-1);
        for (std::size_t i = 0; i < pending.size(); ++i) {
          pfds.push_back(pollfd{pending[i].fd.get(), POLLIN, 0});
          tags.push_back(-2 - static_cast<long>(i));
        }
      }
      const int rc =
          ::poll(pfds.data(), pfds.size(), (ft || alo) ? 100 : 1000);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      // Idle poll: flush ack progress below the kAckEvery threshold so a
      // quiescent splitter (blocked on a full replay buffer) still hears
      // about every release eventually.
      if (rc == 0) pump_acks(/*force=*/true);
      std::vector<Pending> arrived;
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (!(pfds[i].revents & (POLLIN | POLLHUP))) continue;
        const long tag = tags[i];
        if (tag == -1) {
          // A restarted worker (or the region, closing a dead worker's
          // stream) dialed in; its first frame must be a hello.
          Pending p;
          p.fd = listener_->accept_one(0);
          arrived.push_back(std::move(p));
          continue;
        }
        if (tag < -1) {
          Pending& p = pending[static_cast<std::size_t>(-2 - tag)];
          const ssize_t got = ::read(p.fd.get(), buf.data(), buf.size());
          if (got <= 0) {
            p.fd.reset();  // swept below
            continue;
          }
          p.decoder.feed(buf.data(), static_cast<std::size_t>(got));
          continue;
        }
        const auto j = static_cast<std::size_t>(tag);
        const ssize_t got =
            ::read(from_workers_[j].get(), buf.data(), buf.size());
        if (got <= 0) {
          // EOF without FIN. Plain mode: the run is over for this slot.
          // Fault mode: a crash — the slot stays logically open and may
          // be re-admitted through the reconnect port.
          from_workers_[j].reset();
          if (!ft) {
            finished[j] = true;
            --open;
          }
          continue;
        }
        decoders[j].feed(buf.data(), static_cast<std::size_t>(got));
        drain_decoder(j);
      }

      // Claim pending connections whose hello has arrived.
      for (Pending& p : pending) {
        if (!p.fd.valid()) continue;
        if (!p.decoder.next(frame)) continue;
        if (!frame.is_hello()) {
          SLB_ERROR() << "merger: reconnect without hello, dropping";
          p.fd.reset();
          continue;
        }
        const auto w = static_cast<std::size_t>(frame.hello_worker());
        if (w >= n || finished[w]) {
          SLB_ERROR() << "merger: hello for invalid slot " << w;
          p.fd.reset();
          continue;
        }
        from_workers_[w] = std::move(p.fd);
        decoders[w] = std::move(p.decoder);
        reconnects_.inc();
        drain_decoder(w);  // the hello may have trailed data (or a FIN)
      }
      pending.erase(std::remove_if(pending.begin(), pending.end(),
                                   [](const Pending& p) {
                                     return !p.fd.valid();
                                   }),
                    pending.end());
      for (Pending& p : arrived) pending.push_back(std::move(p));

      release();
      // Gap detection (GapSkip fault mode): tuples have waited behind the
      // expected sequence for a whole timeout — the sequences it gates on
      // died with a worker. Skip to the next queued sequence; every
      // skipped number is a gap.
      if (ft && !alo && core.stalled(monotonic_now(), fault_.gap_timeout)) {
        core.skip_to_lowest_queued();
        release();
      }
      publish();
      pump_acks(/*force=*/false);
    }

    // All inputs done: flush what is still queued. Fault mode skips the
    // trailing gaps like any other; in plain mode everything left must
    // already be in order (modulo declared shed ranges).
    release();
    while (core.queued() > 0) {
      if (core.skip_to_lowest_queued() > 0 && !ft) {
        order_ok_.store(false, std::memory_order_relaxed);
      }
      release();
    }
    publish();
    // Final cumulative ack — best-effort; the splitter may already be
    // tearing down, and nothing downstream depends on it landing.
    pump_acks(/*force=*/true);
  } catch (const std::exception& e) {
    SLB_ERROR() << "merger died: " << e.what();
  }
}

}  // namespace slb::rt
