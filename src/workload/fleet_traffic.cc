#include "workload/fleet_traffic.h"

#include <algorithm>
#include <cassert>

#include "obs/hub.h"

namespace incast::workload {

FleetTrafficGen::FleetTrafficGen(sim::Simulator& sim, net::Dumbbell& dumbbell,
                                 const tcp::TcpConfig& tcp_config, const Config& config,
                                 std::uint64_t seed)
    : sim_{sim}, dumbbell_{dumbbell}, config_{config}, rng_{seed} {
  assert(dumbbell.num_senders() >= config_.profile.max_flows);

  hub_ = INCAST_OBS_HUB(sim_);

  const int n = dumbbell.num_senders();
  connections_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    connections_.push_back(std::make_unique<tcp::TcpConnection>(
        sim_, dumbbell.sender(i), dumbbell.receiver(config_.receiver_index),
        config_.flow_id_base + static_cast<net::FlowId>(i), tcp_config));
  }
  pick_buffer_.resize(connections_.size());
  for (std::size_t i = 0; i < pick_buffer_.size(); ++i) pick_buffer_[i] = i;
}

void FleetTrafficGen::start(sim::Time until) { schedule_next_burst(until); }

void FleetTrafficGen::schedule_next_burst(sim::Time until) {
  const double gap_s = rng_.exponential(1.0 / config_.profile.bursts_per_second);
  const sim::Time next = sim_.now() + sim::Time::seconds(gap_s);
  if (next >= until) return;
  sim_.schedule_at(next, [this, until] {
    launch_burst();
    schedule_next_burst(until);
  }, sim::EventCategory::kWorkload);
}

void FleetTrafficGen::launch_burst() {
  const int flows = sample_flow_count(config_.profile, rng_, config_.alt_regime,
                                      config_.host_factor);
  const sim::Time duration = sample_burst_duration(config_.profile, rng_);
  const double util = sample_burst_utilization(config_.profile, rng_);

  const sim::Bandwidth line_rate =
      dumbbell_.receiver(config_.receiver_index).nic_bandwidth();
  const auto burst_bytes =
      static_cast<std::int64_t>(static_cast<double>(line_rate.bytes_in(duration)) * util);
  const std::int64_t per_flow = std::max<std::int64_t>(burst_bytes / flows, 1);

  // Each selected flow streams its response as roughly one write per
  // millisecond of the burst, starting at a flow-specific phase. This
  // keeps a flow *active* (>= 1 packet) in most 1 ms bins of the burst —
  // which is what the paper's per-bin flow counts measure — and spreads
  // aggregate arrivals so that only genuinely oversized bursts build
  // queues.
  const auto n = pick_buffer_.size();
  const sim::Time spread = duration * kStartSpreadFraction;
  const int writes = std::max(1, static_cast<int>(duration.ms()));
  for (int k = 0; k < flows; ++k) {
    // Partial Fisher-Yates: choose `flows` distinct senders.
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(static_cast<std::int64_t>(k), static_cast<std::int64_t>(n) - 1));
    std::swap(pick_buffer_[static_cast<std::size_t>(k)], pick_buffer_[j]);
    tcp::TcpSender* sender = &connections_[pick_buffer_[static_cast<std::size_t>(k)]]->sender();
    const sim::Time phase = rng_.uniform_time(sim::Time::zero(), spread / writes);
    const double scale =
        rng_.uniform(1.0 - kDemandSpread, 1.0 + kDemandSpread);
    const auto demand = std::max<std::int64_t>(
        static_cast<std::int64_t>(static_cast<double>(per_flow) * scale), 1);
    const std::int64_t chunk = std::max<std::int64_t>(demand / writes, 1);
    for (int w = 0; w < writes; ++w) {
      const sim::Time at = phase + (duration * (static_cast<double>(w) / writes));
      const std::int64_t bytes = w + 1 == writes ? demand - chunk * (writes - 1) : chunk;
      if (bytes <= 0) continue;
      sim_.schedule_in(at, [sender, bytes] { sender->add_app_data(bytes); },
                       sim::EventCategory::kWorkload);
    }
  }

  if (hub_ != nullptr) {
    hub_->instant(sim_.now().ns(), obs::TraceCategory::kWorkload, "fleet_burst",
                  obs::kWorkloadTid, "flows", flows, "duration_us", duration.us());
  }
  burst_log_.push_back(BurstLogEntry{sim_.now(), flows, duration});
}

std::vector<tcp::TcpSender*> FleetTrafficGen::senders() {
  std::vector<tcp::TcpSender*> out;
  out.reserve(connections_.size());
  for (auto& conn : connections_) out.push_back(&conn->sender());
  return out;
}

}  // namespace incast::workload
