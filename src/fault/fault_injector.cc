#include "fault/fault_injector.h"

#include <string>

#include "obs/hub.h"

namespace incast::fault {

const char* to_string(FaultType t) noexcept {
  switch (t) {
    case FaultType::kRandomDrop: return "random-drop";
    case FaultType::kBurstDrop: return "burst-drop";
    case FaultType::kFlapDrop: return "flap-drop";
    case FaultType::kCorrupt: return "corrupt";
    case FaultType::kDuplicate: return "duplicate";
    case FaultType::kReorder: return "reorder";
  }
  return "unknown";
}

void LinkFault::record(sim::Time at, FaultType type, const net::Packet& p) {
  if (hub_ != nullptr) {
    hub_->instant(at.ns(), obs::TraceCategory::kFault,
                  std::string("fault.") + to_string(type), obs::kFaultTid, "flow",
                  p.tcp.flow_id, "retx", p.is_retransmit ? 1 : 0);
  }
  trace_.push_back(FaultEvent{
      .at = at,
      .type = type,
      .packet_uid = p.uid,
      .data = p.is_data(),
      .retransmit = p.is_retransmit,
  });
}

net::LinkHook::Verdict LinkFault::on_transmit(const net::Packet& p, sim::Time now) {
  Verdict v;
  ++counters_.packets_seen;

  // A downed link blackholes unconditionally and consumes no RNG draws, so
  // the probabilistic streams resume exactly where they left off when the
  // link comes back (flaps don't perturb the other fault types).
  if (down_windows_ > 0) {
    ++counters_.flap_drops;
    record(now, FaultType::kFlapDrop, p);
    v.drop = true;
    return v;
  }

  if (config_.ge_enabled()) {
    // Transition once per packet, then apply the new state's loss rate.
    if (ge_bad_) {
      if (rng_.bernoulli(config_.ge_bad_to_good)) ge_bad_ = false;
    } else {
      if (rng_.bernoulli(config_.ge_good_to_bad)) ge_bad_ = true;
    }
    const double loss = ge_bad_ ? config_.ge_drop_bad : config_.ge_drop_good;
    if (loss > 0.0 && rng_.bernoulli(loss)) {
      ++counters_.burst_drops;
      record(now, FaultType::kBurstDrop, p);
      v.drop = true;
      return v;
    }
  }

  if (config_.drop_rate > 0.0 && rng_.bernoulli(config_.drop_rate)) {
    ++counters_.random_drops;
    record(now, FaultType::kRandomDrop, p);
    v.drop = true;
    return v;
  }

  if (config_.corrupt_rate > 0.0 && rng_.bernoulli(config_.corrupt_rate)) {
    ++counters_.corrupted;
    counters_.corrupted_bytes += p.size_bytes;
    record(now, FaultType::kCorrupt, p);
    v.corrupt = true;
  }

  if (config_.duplicate_rate > 0.0 && rng_.bernoulli(config_.duplicate_rate)) {
    ++counters_.duplicated;
    record(now, FaultType::kDuplicate, p);
    v.duplicate = true;
  }

  if (config_.reorder_rate > 0.0 && rng_.bernoulli(config_.reorder_rate)) {
    ++counters_.reordered;
    record(now, FaultType::kReorder, p);
    // (0, max]: always a strictly positive displacement.
    v.extra_delay = config_.reorder_max_delay -
                    rng_.uniform_time(sim::Time::zero(), config_.reorder_max_delay);
  }

  return v;
}

LinkFault& FaultInjector::install(net::Port& port, const LinkFaultConfig& config) {
  links_.push_back(std::make_unique<LinkFault>(config, rng_.fork()));
  LinkFault& link = *links_.back();
  obs::Hub* hub = INCAST_OBS_HUB(sim_);
  if (hub != nullptr) link.set_hub(hub);
  port.set_link_hook(&link);
  return link;
}

void FaultInjector::schedule_flap(LinkFault& link, sim::Time down_at, sim::Time duration) {
  if (duration <= sim::Time::zero()) return;
  sim_.schedule_at(down_at, [&link] { link.begin_flap(); }, sim::EventCategory::kFault);
  sim_.schedule_at(down_at + duration, [&link] { link.end_flap(); },
                   sim::EventCategory::kFault);
}

FaultCounters FaultInjector::total() const noexcept {
  FaultCounters sum;
  for (const auto& link : links_) {
    const FaultCounters& c = link->counters();
    sum.packets_seen += c.packets_seen;
    sum.random_drops += c.random_drops;
    sum.burst_drops += c.burst_drops;
    sum.flap_drops += c.flap_drops;
    sum.corrupted += c.corrupted;
    sum.corrupted_bytes += c.corrupted_bytes;
    sum.duplicated += c.duplicated;
    sum.reordered += c.reordered;
  }
  return sum;
}

}  // namespace incast::fault
