#include "runtime/worker_pe.h"

#include <errno.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "util/time.h"

#include "runtime/work.h"
#include "transport/framing.h"
#include "util/log.h"

namespace slb::rt {

WorkerPe::WorkerPe(int id, net::Fd from_splitter, net::Fd to_merger,
                   long multiplies, WorkMode mode,
                   obs::Histogram& service_ns)
    : id_(id),
      from_splitter_(std::move(from_splitter)),
      to_merger_(std::move(to_merger)),
      multiplies_(multiplies),
      mode_(mode),
      service_ns_(service_ns) {
  thread_ = std::thread([this] { run(); });
}

WorkerPe::~WorkerPe() {
  if (thread_.joinable()) thread_.join();
}

void WorkerPe::join() {
  if (thread_.joinable()) thread_.join();
}

void WorkerPe::kill() {
  killed_.store(true, std::memory_order_relaxed);
  // shutdown (not close) wakes the thread out of a blocking read/write
  // while keeping the fds owned until the destructor — no fd reuse races.
  ::shutdown(from_splitter_.get(), SHUT_RDWR);
  ::shutdown(to_merger_.get(), SHUT_RDWR);
}

void WorkerPe::run() {
  try {
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> buf(64 * 1024);
    std::vector<std::uint8_t> out;
    net::Frame frame;
    volatile std::uint64_t sink = 0;

    for (;;) {
      while (!decoder.next(frame)) {
        if (decoder.corrupt()) return;  // garbage stream; drop the link
        const ssize_t n =
            ::read(from_splitter_.get(), buf.data(), buf.size());
        if (n <= 0) return;  // splitter hung up
        decoder.feed(buf.data(), static_cast<std::size_t>(n));
      }
      if (frame.is_fin()) {
        const std::vector<std::uint8_t> fin = net::fin_bytes();
        net::write_all(to_merger_.get(), fin.data(), fin.size());
        return;
      }
      if (frame.seq == net::kGapSeq) {
        // Shed announcement from the splitter: forward to the merger with
        // zero work — it carries accounting, not data.
        out.clear();
        net::encode_frame(frame, out);
        net::write_all(to_merger_.get(), out.data(), out.size());
        continue;
      }

      const long factor =
          load_times_1000_.load(std::memory_order_relaxed);
      const long work = fast_drain_.load(std::memory_order_relaxed)
                            ? 0
                            : multiplies_ * factor / 1000;
      const TimeNs service_start = work > 0 ? monotonic_now() : 0;
      if (work == 0) {
        // Shutdown drain: forward without processing.
      } else if (mode_ == WorkMode::kSpin) {
        sink = spin_multiplies(frame.seq + sink, work);
      } else {
        // 1 ns of service per multiply, waited out against an absolute
        // monotonic deadline: clock_nanosleep for the bulk (so no CPU is
        // burned and CPU-quota throttling cannot distort the service
        // time), then a short yield tail for sub-timer-granularity
        // precision.
        const TimeNs deadline = monotonic_now() + work;
        timespec ts{};
        ts.tv_sec = deadline / kNanosPerSec;
        ts.tv_nsec = deadline % kNanosPerSec;
        while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                                 nullptr) == EINTR) {
        }
        while (monotonic_now() < deadline) {
          std::this_thread::yield();
        }
      }
      if (work > 0) {
        service_ns_.record(
            static_cast<std::uint64_t>(monotonic_now() - service_start));
      }

      out.clear();
      net::encode_frame(frame, out);
      net::write_all(to_merger_.get(), out.data(), out.size());
      processed_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const net::ConnectionLost&) {
    // Expected after kill(); a spontaneous peer loss is the same story.
    if (!killed_.load(std::memory_order_relaxed)) {
      SLB_ERROR() << "worker " << id_ << " lost its merger connection";
    }
  } catch (const std::exception& e) {
    SLB_ERROR() << "worker " << id_ << " died: " << e.what();
  }
}

}  // namespace slb::rt
