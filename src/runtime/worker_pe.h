// A worker PE of the threaded runtime: one thread, one TCP connection from
// the splitter, one TCP connection to the merger. Stateless: every tuple
// costs `multiplies x load multiplier` dependent integer multiplies, then
// is forwarded (same seq) to the merger. The load multiplier is atomic so
// experiments can impose and remove "exogenous load" while running.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "obs/metrics.h"
#include "transport/socket.h"

namespace slb::rt {

/// How a worker "processes" a tuple.
///  * kSpin  — dependent integer multiplies, exactly the paper's workload.
///    CPU-bound: on a machine with fewer cores than PEs, scheduling noise
///    makes effective capacities non-stationary.
///  * kTimed — wait out the equivalent service time (1 ns per multiply)
///    against an absolute deadline, yielding the CPU while waiting.
///    Capacities stay stable on oversubscribed dev machines; used by the
///    examples.
enum class WorkMode { kSpin, kTimed };

class WorkerPe {
 public:
  /// Takes ownership of both sockets; starts the thread immediately.
  /// `service_ns` is a registry histogram recording each processed
  /// tuple's measured service time; it must outlive the PE and is a ctor
  /// parameter because the thread starts here (DESIGN.md §8).
  WorkerPe(int id, net::Fd from_splitter, net::Fd to_merger,
           long multiplies, WorkMode mode, obs::Histogram& service_ns);

  ~WorkerPe();

  WorkerPe(const WorkerPe&) = delete;
  WorkerPe& operator=(const WorkerPe&) = delete;

  /// Sets the external-load multiplier (>= 1). Takes effect on the next
  /// tuple.
  void set_load_multiplier(double m) {
    load_times_1000_.store(static_cast<long>(m * 1000.0),
                           std::memory_order_relaxed);
  }

  /// Tells the worker to forward remaining tuples without doing their
  /// work — used at shutdown so a run does not wait for every buffered
  /// tuple to be processed at full cost. Sequence order is unaffected.
  void fast_drain() { fast_drain_.store(true, std::memory_order_relaxed); }

  /// Fault injection: abrupt crash. Both sockets are shut down, so the
  /// splitter sees a broken pipe on its next send, the merger sees EOF
  /// without FIN, and everything buffered in the kernel or in service is
  /// lost — exactly the failure mode of a killed PE process. The thread
  /// exits; the object stays joinable.
  void kill();

  std::uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

  int id() const { return id_; }

  /// Blocks until the worker thread exits (after receiving FIN).
  void join();

 private:
  void run();

  int id_;
  net::Fd from_splitter_;
  net::Fd to_merger_;
  long multiplies_;
  WorkMode mode_;
  std::atomic<long> load_times_1000_{1000};
  std::atomic<bool> fast_drain_{false};
  std::atomic<bool> killed_{false};
  std::atomic<std::uint64_t> processed_{0};
  obs::Histogram& service_ns_;
  std::thread thread_;
};

}  // namespace slb::rt
