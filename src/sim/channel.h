// A simulated TCP connection from the splitter to one worker PE.
//
// Two bounded buffers model the kernel socket buffers on either end of a
// real TCP connection (the paper, Section 4.4, attributes the lateness of
// the blocking signal to exactly these "numerous system buffers"):
//
//   splitter --push_send--> [send buffer] --latency--> [recv buffer] --> worker
//
// A tuple leaves the send buffer only when the receive side has room
// (TCP flow control); while in transit it occupies a reserved receive
// slot. The splitter blocks when the send buffer is full — and the time it
// spends blocked is the paper's load-balancing signal.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event.h"
#include "sim/queues.h"
#include "sim/tuple.h"
#include "util/time.h"

namespace slb::sim {

class Channel {
 public:
  struct Config {
    std::size_t send_capacity = 32;
    std::size_t recv_capacity = 32;
    DurationNs latency = 2'000;  // 2 us: a fast datacenter interconnect
  };

  Channel(Simulator* sim, int id, Config config);

  /// Wiring: invoked when the send buffer may have gained space (the
  /// splitter's wake-up) and when the receive buffer gained a tuple (the
  /// worker's wake-up). Both are called from within simulator events.
  void set_on_send_space(std::function<void()> fn) {
    on_send_space_ = std::move(fn);
  }
  void set_on_recv_ready(std::function<void()> fn) {
    on_recv_ready_ = std::move(fn);
  }

  /// Invoked once per tuple the connection loses to a failure (fail()
  /// discards buffered tuples; in-flight tuples are reported when their
  /// delivery event fires into a dead connection).
  void set_on_lost(std::function<void(const Tuple&)> fn) {
    on_lost_ = std::move(fn);
  }

  int id() const { return id_; }
  bool up() const { return up_; }
  bool send_full() const { return send_q_.full(); }
  bool recv_empty() const { return recv_q_.empty(); }
  std::size_t send_size() const { return send_q_.size(); }
  std::size_t recv_size() const { return recv_q_.size(); }
  std::size_t in_flight() const { return in_flight_; }

  /// Total tuples queued anywhere inside the connection.
  std::size_t occupancy() const {
    return send_q_.size() + in_flight_ + recv_q_.size();
  }

  /// Splitter pushes one tuple; caller must have checked !send_full().
  void push_send(Tuple t);

  /// Worker takes the next delivered tuple; caller must have checked
  /// !recv_empty(). Freeing the receive slot may resume transfers.
  Tuple pop_recv();

  /// Connection death (worker crash): every buffered tuple — send queue,
  /// in flight, receive queue — is lost and reported via on_lost. The
  /// channel accepts no traffic until restore().
  void fail();

  /// Fresh connection to a restarted worker: empty buffers, up again.
  void restore();

  /// Transient delivery pause for `duration`; nothing is lost. Stalls
  /// overlap by extending the pause to the latest end time.
  void stall(DurationNs duration);

 private:
  /// Starts every transfer currently permitted by flow control.
  void pump();
  void resume_from_stall();

  Simulator* sim_;
  int id_;
  Config config_;
  BoundedFifo<Tuple> send_q_;
  BoundedFifo<Tuple> recv_q_;
  std::size_t in_flight_ = 0;
  std::function<void()> on_send_space_;
  std::function<void()> on_recv_ready_;
  std::function<void(const Tuple&)> on_lost_;
  bool up_ = true;
  bool stalled_ = false;
  TimeNs stall_until_ = 0;
  /// Bumped by fail(): delivery events from a previous life discard
  /// their tuple (reported lost) instead of touching the new buffers.
  std::uint64_t epoch_ = 0;
};

}  // namespace slb::sim
