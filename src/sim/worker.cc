#include "sim/worker.h"

#include <cassert>
#include <cmath>

namespace slb::sim {

Worker::Worker(Simulator* sim, int id, DurationNs base_cost,
               const LoadProfile* load, const HostModel* hosts)
    : sim_(sim), id_(id), base_cost_(base_cost), load_(load), hosts_(hosts) {
  assert(sim != nullptr);
  assert(base_cost > 0);
}

void Worker::wire(Channel* channel, TupleSink* sink, int port) {
  assert(channel_ == nullptr && sink_ == nullptr);
  channel_ = channel;
  sink_ = sink;
  port_ = port < 0 ? id_ : port;
  channel_->set_on_recv_ready([this] { poll(); });
  sink_->set_on_space(port_, [this] { poll(); });
}

void Worker::bind_shared_host(SharedHostSet* hosts, int host) {
  assert(hosts != nullptr);
  assert(host >= 0 && host < hosts->hosts());
  shared_hosts_ = hosts;
  shared_host_ = host;
}

DurationNs Worker::current_service_time() const {
  double factor = 1.0;
  if (load_ != nullptr) factor *= load_->at(id_, sim_->now());
  if (shared_hosts_ != nullptr) {
    factor *= shared_hosts_->peek_factor(shared_host_);
  } else if (hosts_ != nullptr) {
    factor *= hosts_->factor(id_);
  }
  const double ns = static_cast<double>(base_cost_) * factor;
  return static_cast<DurationNs>(std::llround(ns));
}

void Worker::poll() {
  if (down_) return;
  if (holding_) {
    if (!sink_->offer(port_, held_)) return;  // still stalled
    holding_ = false;
  }
  if (!busy_ && !channel_->recv_empty()) {
    const Tuple t = channel_->pop_recv();
    busy_ = true;
    const DurationNs service = current_service_time();
    if (shared_hosts_ != nullptr) shared_hosts_->begin_service(shared_host_);
    if (service_hist_ != nullptr) {
      service_hist_->record(static_cast<std::uint64_t>(service));
    }
    sim_->schedule_after(service, [this, t, epoch = epoch_] {
      if (epoch != epoch_) {
        // The PE died while this tuple was in service.
        if (on_lost_) on_lost_(t);
        return;
      }
      finish(t);
    });
  }
}

void Worker::crash() {
  if (down_) return;
  down_ = true;
  ++epoch_;
  if (busy_ && shared_hosts_ != nullptr) {
    shared_hosts_->end_service(shared_host_);  // release the host slot
  }
  busy_ = false;
  if (holding_) {
    holding_ = false;
    if (on_lost_) on_lost_(held_);
  }
}

void Worker::recover() {
  if (!down_) return;
  down_ = false;
  poll();
}

void Worker::finish(Tuple t) {
  busy_ = false;
  ++processed_;
  if (shared_hosts_ != nullptr) shared_hosts_->end_service(shared_host_);
  if (!sink_->offer(port_, t)) {
    holding_ = true;
    held_ = t;
    return;  // the sink will poke us when space frees
  }
  poll();
}

}  // namespace slb::sim
