#include "runtime/merger_pe.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "transport/framing.h"
#include "util/log.h"
#include "util/time.h"

namespace slb::rt {

namespace {

/// At-least-once: piggyback a cumulative ack after this many releases;
/// smaller progress is flushed whenever the poll loop goes idle.
constexpr std::uint64_t kAckEvery = 64;

/// Longest poll wait: bounds how late an idle merger flushes ack progress
/// below kAckEvery and notices begin_shutdown().
constexpr int kPollTimeoutMs = 100;

}  // namespace

MergerPe::MergerPe(std::vector<net::Fd> from_workers, net::Listener listener,
                   obs::MetricsRegistry& metrics, delivery::DeliveryMode mode,
                   net::Fd ack_out)
    : from_workers_(std::move(from_workers)),
      mode_(mode),
      ack_out_(std::move(ack_out)),
      listener_(std::move(listener)),
      emitted_(metrics.counter("merger.emitted")),
      core_(metrics, static_cast<int>(from_workers_.size()), mode_),
      reconnects_(metrics.counter("merger.reconnects")),
      max_depth_(metrics.gauge("merger.max_depth")) {
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
    const bool alo = mode_ == delivery::DeliveryMode::kAtLeastOnce;
    std::vector<net::FrameDecoder> decoders(n);
    std::vector<bool> finished(n, false);  // the slot's input is over
    std::size_t done = 0;                  // finished slots
    bool crashed = false;  // some stream has ended without a FIN
    std::vector<std::uint8_t> buf(64 * 1024);

    // Reconnect connections accepted but not yet claimed by a hello.
    struct Pending {
      net::Fd fd;
      net::FrameDecoder decoder;
    };
    std::vector<Pending> pending;
    net::Frame frame;

    const auto release = [&] {
      core_.release([&](int, std::uint64_t) {
        emitted_.inc();
        return true;
      });
    };

    // Cumulative-ack pump (at-least-once): tell the splitter the highest
    // contiguously released sequence so it can trim its replay buffers.
    // Non-blocking, drop-tolerant writes — a lost ack only delays the
    // trim until the next one, because each ack carries the full cursor.
    std::vector<std::uint8_t> ack_buf;  // unwritten remainder of last ack
    const auto pump_acks = [&](bool force) {
      if (!alo || !ack_out_.valid()) return;
      if (ack_buf.empty()) {
        if (core_.unacked() == 0) return;
        if (!force && core_.unacked() < kAckEvery) return;
        ack_buf = net::ack_bytes(core_.take_ack());
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

    // Slot j's input is over for good: it carries nothing more.
    const auto finish = [&](std::size_t j) {
      from_workers_[j].reset();
      if (finished[j]) return;
      finished[j] = true;
      ++done;
      core_.close(static_cast<int>(j));
    };
    // Slot j's stream broke without a FIN: a crash, and the slot may be
    // re-admitted through the listener. Under GapSkip the stream has
    // ended all the same; under at-least-once any stream may still carry
    // a replay of any unacked sequence, so nothing is inferred until the
    // slot finishes.
    const auto broke = [&](std::size_t j) {
      crashed = true;
      from_workers_[j].reset();
      if (!alo) core_.close(static_cast<int>(j));
    };

    // Decodes whatever already sits in slot j's decoder; a FIN closes
    // the slot for good (frames after a FIN are dropped).
    const auto drain_decoder = [&](std::size_t j) {
      while (decoders[j].next(frame)) {
        if (frame.is_fin()) {
          finish(j);
          return;
        }
        if (frame.is_gap()) {
          // Shed at the source (these sequences will never arrive), or a
          // zero-count watermark: either way this stream has moved past
          // the range.
          const std::uint64_t end = frame.gap_first() + frame.gap_count();
          core_.note_lost(frame.gap_first(), frame.gap_count(),
                          monotonic_now());
          core_.raise_floor(static_cast<int>(j), end);
          continue;
        }
        core_.offer(static_cast<int>(j), frame.seq);
        const auto depth = static_cast<std::int64_t>(
            core_.queue_size(static_cast<int>(j)));
        if (depth > max_depth_.value()) max_depth_.set(depth);
      }
      if (decoders[j].corrupt()) {
        // Garbage on the wire: no way to resynchronize a length-prefixed
        // stream. Treat as a lost connection (a re-admission through the
        // listener brings a fresh decoder).
        SLB_ERROR() << "merger: corrupt stream from slot " << j;
        broke(j);
      }
    };

    // A re-admission not yet claimed (its dial not yet accepted, or its
    // hello not yet read) may carry any sequence from the cursor up, so
    // no loss is inferred until it is. A restarted worker dials before
    // it is sent anything, so a survivor's output that outran it cannot
    // have been read before the dial is visible here. Before any crash
    // is read, the dead worker's old stream is still open and holds the
    // cursor below anything its replacement can carry, so the listener
    // need not be probed.
    const auto readmitting = [&] {
      if (!crashed || done == n) return false;
      if (!pending.empty()) return true;
      pollfd p{listener_.fd(), POLLIN, 0};
      return ::poll(&p, 1, 0) > 0;
    };

    std::vector<pollfd> pfds;
    std::vector<long> tags;  // >= 0: worker slot; -1: listener; else pending
    while (done < n) {
      pfds.clear();
      tags.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (finished[j] || !from_workers_[j].valid()) continue;
        pfds.push_back(pollfd{from_workers_[j].get(), POLLIN, 0});
        tags.push_back(static_cast<long>(j));
      }
      pfds.push_back(pollfd{listener_.fd(), POLLIN, 0});
      tags.push_back(-1);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        pfds.push_back(pollfd{pending[i].fd.get(), POLLIN, 0});
        tags.push_back(-2 - static_cast<long>(i));
      }
      const int rc = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
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
          p.fd = listener_.accept_one(0);
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
          broke(j);
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
        broke(w);  // the old stream, if still open, ended without a FIN
        from_workers_[w] = std::move(p.fd);
        decoders[w] = std::move(p.decoder);
        core_.reopen(static_cast<int>(w));
        reconnects_.inc();
        drain_decoder(w);  // the hello may have trailed data (or a FIN)
      }
      pending.erase(std::remove_if(pending.begin(), pending.end(),
                                   [](const Pending& p) {
                                     return !p.fd.valid();
                                   }),
                    pending.end());
      for (Pending& p : arrived) pending.push_back(std::move(p));

      if (closing_.load(std::memory_order_acquire)) {
        // Region shutdown: disconnected slots will not reconnect anymore;
        // their streams are complete as far as they will ever be.
        for (std::size_t j = 0; j < n; ++j) {
          if (!from_workers_[j].valid()) finish(j);
        }
      }

      // Release what arrived, then skip whatever no open stream can still
      // carry. Once every slot has finished this is the end-of-input
      // flush. Until a stream has crashed nothing was lost, so a skip
      // before then is an order violation.
      release();
      while (!readmitting() && core_.skip_unreachable() > 0) {
        if (!crashed) order_ok_.store(false, std::memory_order_relaxed);
        release();
      }
      pump_acks(/*force=*/false);
    }

    // Final cumulative ack — best-effort; the splitter may already be
    // tearing down, and nothing downstream depends on it landing.
    pump_acks(/*force=*/true);
  } catch (const std::exception& e) {
    SLB_ERROR() << "merger died: " << e.what();
  }
}

}  // namespace slb::rt
