#include "workload/cyclic_incast.h"

#include <cassert>

#include "obs/hub.h"

namespace incast::workload {

CyclicIncastDriver::Endpoints dumbbell_endpoints(net::Dumbbell& dumbbell, int num_flows) {
  CyclicIncastDriver::Endpoints ep;
  ep.senders.reserve(static_cast<std::size_t>(num_flows));
  for (int i = 0; i < num_flows && i < dumbbell.num_senders(); ++i) {
    ep.senders.push_back(&dumbbell.sender(i));
  }
  ep.receiver = &dumbbell.receiver(0);
  ep.bottleneck = dumbbell.config().receiver_link.value_or(dumbbell.config().host_link);
  return ep;
}

CyclicIncastDriver::CyclicIncastDriver(sim::Simulator& sim, const Endpoints& endpoints,
                                       const tcp::TcpConfig& tcp_config, const Config& config,
                                       std::uint64_t seed)
    : sim_{sim}, config_{config}, rng_{seed} {
  assert(static_cast<std::size_t>(config_.num_flows) <= endpoints.senders.size());
  assert(endpoints.receiver != nullptr);
  assert(config_.num_bursts > 0);

  hub_ = INCAST_OBS_HUB(sim_);
  if (hub_ != nullptr && !hub_->enabled()) hub_ = nullptr;

  const std::int64_t burst_bytes = static_cast<std::int64_t>(
      static_cast<double>(endpoints.bottleneck.bytes_in(config_.burst_duration)) *
      config_.demand_scale);
  demand_per_flow_ = std::max<std::int64_t>(burst_bytes / config_.num_flows, 1);

  flow_next_burst_.assign(static_cast<std::size_t>(config_.num_flows), 0);
  burst_pending_flows_.assign(static_cast<std::size_t>(config_.num_bursts),
                              config_.num_flows);
  burst_started_.assign(static_cast<std::size_t>(config_.num_bursts), sim::Time::zero());

  for (int i = 0; i < config_.num_flows; ++i) {
    tcp::TcpConnection& conn = connections_.emplace_back(
        sim_, *endpoints.senders[static_cast<std::size_t>(i)], *endpoints.receiver,
        static_cast<net::FlowId>(i) + 1, tcp_config);
    conn.sender().set_on_ack_advance(
        [this, i](std::int64_t snd_una) { on_flow_progress(snd_una, i); });
  }
}

CyclicIncastDriver::CyclicIncastDriver(sim::Simulator& sim, net::Dumbbell& dumbbell,
                                       const tcp::TcpConfig& tcp_config, const Config& config,
                                       std::uint64_t seed)
    : CyclicIncastDriver(sim, dumbbell_endpoints(dumbbell, config.num_flows), tcp_config,
                         config, seed) {}

void CyclicIncastDriver::start() { start_burst(); }

void CyclicIncastDriver::start_burst() {
  const int index = started_bursts_++;
  burst_started_[static_cast<std::size_t>(index)] = sim_.now();

  if (hub_ != nullptr) {
    hub_->async_begin(sim_.now().ns(), obs::TraceCategory::kWorkload, "burst",
                      obs::kWorkloadTid, static_cast<std::uint64_t>(index), "flows",
                      config_.num_flows);
  }

  for (std::size_t i = 0; i < connections_.size(); ++i) {
    const sim::Time jitter =
        rng_.uniform_time(sim::Time::zero(), config_.start_jitter_max);
    tcp::TcpSender* sender = &connections_[i].sender();
    sim_.schedule_in(jitter,
                     [sender, demand = demand_per_flow_] { sender->add_app_data(demand); },
                     sim::EventCategory::kWorkload);
  }

  if (config_.schedule == BurstSchedule::kFixedPeriod &&
      started_bursts_ < config_.num_bursts) {
    sim_.schedule_in(config_.burst_duration + config_.inter_burst_gap,
                     [this] { start_burst(); }, sim::EventCategory::kWorkload);
  }
}

void CyclicIncastDriver::on_flow_progress(std::int64_t snd_una, int flow_index) {
  int& next = flow_next_burst_[static_cast<std::size_t>(flow_index)];
  // A flow may clear several burst thresholds with one cumulative ACK.
  while (next < started_bursts_ &&
         snd_una >= demand_per_flow_ * static_cast<std::int64_t>(next + 1)) {
    const int burst = next++;
    if (--burst_pending_flows_[static_cast<std::size_t>(burst)] == 0) {
      complete_burst(burst);
    }
  }
}

void CyclicIncastDriver::complete_burst(int index) {
  BurstRecord rec;
  rec.index = index;
  rec.started = burst_started_[static_cast<std::size_t>(index)];
  rec.completed = sim_.now();
  records_.push_back(rec);
  ++completed_bursts_;

  if (hub_ != nullptr) {
    hub_->async_end(sim_.now().ns(), obs::TraceCategory::kWorkload, "burst",
                    obs::kWorkloadTid, static_cast<std::uint64_t>(index));
  }

  if (on_burst_complete_) on_burst_complete_(index);

  if (config_.schedule == BurstSchedule::kAfterCompletion &&
      started_bursts_ < config_.num_bursts) {
    sim_.schedule_in(config_.inter_burst_gap, [this] { start_burst(); },
                     sim::EventCategory::kWorkload);
  }
}

std::vector<tcp::TcpSender*> CyclicIncastDriver::senders() {
  std::vector<tcp::TcpSender*> out;
  out.reserve(connections_.size());
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    out.push_back(&connections_[i].sender());
  }
  return out;
}

}  // namespace incast::workload
