#include "core/experiment_obs.h"

#include <cstring>

#include <string>

#include "fault/fault_injector.h"
#include "net/queue.h"
#include "net/switch.h"
#include "obs/hub.h"
#include "sim/auditor.h"
#include "sim/simulator.h"

namespace incast::core {

ExperimentObserver::ExperimentObserver(obs::Hub* hub) : hub_{hub} {}

ExperimentObserver::~ExperimentObserver() {
  if (hub_ == nullptr) return;
  hub_->metrics().unregister_prefix("net.queue.");
  hub_->metrics().unregister_prefix("fault.injected.");
  hub_->metrics().unregister_prefix("core.incast.");
  hub_->metrics().unregister_prefix("sim.events.");
  hub_->metrics().unregister_prefix("sim.audit.");
  hub_->metrics().unregister_prefix("net.pfc.");
  hub_->metrics().unregister_prefix("net.int.");
  hub_->metrics().unregister_prefix("scaling.");
  hub_->metrics().unregister_prefix("parallel.");
}

void ExperimentObserver::watch_simulator(const sim::Simulator& sim) {
  if (hub_ == nullptr) return;
  auto& m = hub_->metrics();
  m.register_counter("sim.events.processed", [&sim] {
    return static_cast<std::int64_t>(sim.events_processed());
  });
  m.register_counter("sim.events.peak_pending", [&sim] {
    return static_cast<std::int64_t>(sim.peak_events_pending());
  });
  m.register_counter("sim.events.slab_high_water", [&sim] {
    return static_cast<std::int64_t>(sim.slab_high_water());
  });
}

void ExperimentObserver::watch_queue(const std::string& link_name,
                                     const net::DropTailQueue& queue) {
  if (hub_ == nullptr) return;
  const std::string prefix = "net.queue." + link_name + ".";
  auto& m = hub_->metrics();
  m.register_counter(prefix + "drops", [&queue] { return queue.stats().dropped_packets; });
  m.register_counter(prefix + "ecn_marks",
                     [&queue] { return queue.stats().ecn_marked_packets; });
  m.register_counter(prefix + "enqueued",
                     [&queue] { return queue.stats().enqueued_packets; });
}

void ExperimentObserver::watch_faults(const fault::FaultInjector& injector) {
  if (hub_ == nullptr) return;
  auto& m = hub_->metrics();
  m.register_counter("fault.injected.drops",
                     [&injector] { return injector.total().injected_drops(); });
  m.register_counter("fault.injected.corrupt_bytes",
                     [&injector] { return injector.total().corrupted_bytes; });
  m.register_counter("fault.injected.corruptions",
                     [&injector] { return injector.total().corrupted; });
  m.register_counter("fault.injected.duplicates",
                     [&injector] { return injector.total().duplicated; });
  m.register_counter("fault.injected.reorders",
                     [&injector] { return injector.total().reordered; });
}

void ExperimentObserver::watch_pfc(const std::string& name, const net::Switch& sw) {
  if (hub_ == nullptr || sw.num_viqs() == 0) return;
  const std::string prefix = "net.pfc." + name + ".";
  auto& m = hub_->metrics();
  const auto viq_total = [&sw](std::int64_t net::LosslessInputQueue::Stats::*counter) {
    return [&sw, counter] {
      std::int64_t total = 0;
      for (std::size_t i = 0; i < sw.num_viqs(); ++i) {
        if (const auto* viq = sw.viq(i)) total += viq->stats().*counter;
      }
      return total;
    };
  };
  using Stats = net::LosslessInputQueue::Stats;
  m.register_counter(prefix + "pause_frames", viq_total(&Stats::pause_frames));
  m.register_counter(prefix + "resume_frames", viq_total(&Stats::resume_frames));
  m.register_counter(prefix + "overflow_drops", viq_total(&Stats::overflow_dropped_packets));
  m.register_counter(prefix + "paused_ns", [&sw] {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < sw.num_ports(); ++i) {
      total += sw.port(i).paused_ns();
    }
    return total;
  });
}

void ExperimentObserver::watch_auditor(sim::Auditor& auditor, const sim::Simulator& sim) {
  if (hub_ == nullptr) return;
  auto& m = hub_->metrics();
  m.register_counter("sim.audit.violations", [&auditor] {
    return static_cast<std::int64_t>(auditor.total_violations());
  });
  for (std::size_t i = 0; i < sim::kNumAuditInvariants; ++i) {
    const auto inv = static_cast<sim::AuditInvariant>(i);
    m.register_counter(std::string{"sim.audit.violations."} + sim::to_string(inv),
                       [&auditor, inv] {
                         return static_cast<std::int64_t>(auditor.violations(inv));
                       });
  }
  m.register_counter("sim.audit.injected_bytes",
                     [&auditor] { return auditor.injected_bytes(); });
  m.register_counter("sim.audit.delivered_bytes",
                     [&auditor] { return auditor.delivered_bytes(); });
  m.register_counter("sim.audit.dropped_bytes",
                     [&auditor] { return auditor.dropped_bytes(); });
  m.register_counter("sim.audit.trimmed_bytes",
                     [&auditor] { return auditor.trimmed_bytes(); });
  m.register_counter("sim.audit.control_injected_bytes",
                     [&auditor] { return auditor.control_injected_bytes(); });
  m.register_counter("sim.audit.control_consumed_bytes",
                     [&auditor] { return auditor.control_consumed_bytes(); });

  // Violations and budget trips are exactly the anomalies the flight
  // recorder exists for: dump the ring on every one, strict or relaxed.
  // Both sinks run before the auditor throws, so the dump always lands.
  obs::Hub* hub = hub_;
  auditor.set_violation_sink([hub, &sim](const sim::Auditor::Violation& v) {
    hub->recorder().force_dump(sim.now().ns(),
                               std::string{"audit:"} + sim::to_string(v.invariant) +
                                   ": " + v.detail);
  });
  auditor.set_budget_sink([hub](std::int64_t at_ns, const std::string& detail) {
    hub->recorder().force_dump(at_ns, "budget: " + detail);
  });
}

void ExperimentObserver::watch_int_overflows(std::int64_t overflows) {
  if (hub_ == nullptr) return;
  hub_->metrics().register_counter("net.int.hop_overflow", [overflows] { return overflows; });
}

void ExperimentObserver::finish(std::int64_t at_ns, const std::vector<double>& bct_ms,
                                const char* mode) {
  if (hub_ == nullptr) return;
  if (!bct_ms.empty()) {
    obs::Histogram& h = hub_->metrics().register_histogram(
        "core.incast.bct_ms",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0});
    for (const double v : bct_ms) h.record(v);
  }
  if (mode != nullptr && std::strcmp(mode, "safe") != 0) {
    hub_->notify_mode_shift(at_ns, "safe", mode);
  }
  hub_->capture_metrics(at_ns);
}

}  // namespace incast::core
