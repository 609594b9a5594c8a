#include "net/topology.h"

#include <string>

#include "obs/flow_trace.h"

namespace incast::net {

Dumbbell::Dumbbell(sim::Simulator& sim, const DumbbellConfig& config) : config_{config} {
  NodeId next_id = 0;

  senders_.reserve(static_cast<std::size_t>(config_.num_senders));
  for (int i = 0; i < config_.num_senders; ++i) {
    senders_.push_back(
        std::make_unique<Host>(sim, next_id++, "sender" + std::to_string(i)));
  }
  receivers_.reserve(static_cast<std::size_t>(config_.num_receivers));
  for (int i = 0; i < config_.num_receivers; ++i) {
    receivers_.push_back(
        std::make_unique<Host>(sim, next_id++, "receiver" + std::to_string(i)));
  }
  tor_s_ = std::make_unique<Switch>(sim, next_id++, "tor_s");
  tor_r_ = std::make_unique<Switch>(sim, next_id++, "tor_r");

  // Sender hosts <-> sender ToR.
  for (int i = 0; i < config_.num_senders; ++i) {
    Host& h = *senders_[static_cast<std::size_t>(i)];
    h.add_nic(config_.host_link, config_.link_delay, config_.host_queue);
    const std::size_t tor_port =
        tor_s_->add_port(config_.host_link, config_.link_delay, config_.switch_queue);
    connect_duplex(h, 0, *tor_s_, tor_port);
    register_duplex(h, 0, *tor_s_, tor_port);
    tor_s_->set_route(h.id(), tor_port);
  }

  // Inter-ToR link.
  const std::size_t s_uplink =
      tor_s_->add_port(config_.core_link, config_.link_delay, config_.switch_queue);
  const std::size_t r_uplink =
      tor_r_->add_port(config_.core_link, config_.link_delay, config_.switch_queue);
  connect_duplex(*tor_s_, s_uplink, *tor_r_, r_uplink);
  register_duplex(*tor_s_, s_uplink, *tor_r_, r_uplink);

  // Receiver hosts <-> receiver ToR.
  const sim::Bandwidth rx_link = config_.receiver_link.value_or(config_.host_link);
  receiver_downlink_port_.reserve(static_cast<std::size_t>(config_.num_receivers));
  for (int i = 0; i < config_.num_receivers; ++i) {
    Host& h = *receivers_[static_cast<std::size_t>(i)];
    h.add_nic(rx_link, config_.link_delay, config_.host_queue);
    const std::size_t tor_port =
        tor_r_->add_port(rx_link, config_.link_delay, config_.switch_queue);
    connect_duplex(h, 0, *tor_r_, tor_port);
    register_duplex(h, 0, *tor_r_, tor_port);
    tor_r_->set_route(h.id(), tor_port);
    receiver_downlink_port_.push_back(tor_port);
  }

  // Routes across the core: everything not local goes over the uplink.
  for (const auto& h : receivers_) tor_s_->set_route(h->id(), s_uplink);
  for (const auto& h : senders_) tor_r_->set_route(h->id(), r_uplink);

  if (config_.shared_buffer.has_value()) {
    tor_r_->enable_shared_buffer(*config_.shared_buffer);
  }

  if (config_.pfc.has_value()) {
    tor_s_->enable_pfc(*config_.pfc);
    tor_r_->enable_pfc(*config_.pfc);
  }

  // Switch egress ports stamp INT telemetry onto packets that request it
  // (needed by INT-based CCAs like HPCC; free for everything else). They
  // are also tagged as ToR tier for the flow tracer's per-tier queueing
  // attribution; host NICs below are the host tier.
  for (Switch* sw : {tor_s_.get(), tor_r_.get()}) {
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      sw->port(i).set_int_stamping(true);
      sw->port(i).set_trace_tier(obs::HopTier::kTor);
    }
  }
  for (const auto& h : senders_) h->port(0).set_trace_tier(obs::HopTier::kHost);
  for (const auto& h : receivers_) h->port(0).set_trace_tier(obs::HopTier::kHost);
}

DropTailQueue& Dumbbell::bottleneck_queue(int i) {
  return tor_r_->port(receiver_downlink_port_.at(static_cast<std::size_t>(i))).queue();
}

sim::Time Dumbbell::base_rtt(std::int64_t data_bytes) const {
  const std::int64_t ack_bytes = kHeaderBytes;
  // Three links each way; the data packet serializes on each forward link,
  // the ACK on each reverse link.
  const sim::Bandwidth rx_link = config_.receiver_link.value_or(config_.host_link);
  const sim::Time prop = config_.link_delay * 6;
  const sim::Time data_ser = config_.host_link.serialization_time(data_bytes) +
                             config_.core_link.serialization_time(data_bytes) +
                             rx_link.serialization_time(data_bytes);
  const sim::Time ack_ser = config_.host_link.serialization_time(ack_bytes) +
                            config_.core_link.serialization_time(ack_bytes) +
                            rx_link.serialization_time(ack_bytes);
  return prop + data_ser + ack_ser;
}

}  // namespace incast::net
