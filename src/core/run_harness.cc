#include "core/run_harness.h"

#include <cstdio>

#include "net/link_directory.h"
#include "net/packet.h"
#include "net/switch.h"
#include "obs/hub.h"
#include "sim/simulator.h"

namespace incast::core {

namespace {

// The hub goes on the simulator first: the observer reads it back through
// INCAST_OBS_HUB, which is nullptr when observability is compiled out.
obs::Hub* attach_hub(sim::Simulator& sim, obs::Hub* hub) {
  sim.set_hub(hub);
  return INCAST_OBS_HUB(sim);
}

}  // namespace

std::optional<sim::Auditor::Config> auditor_config(sim::AuditMode mode,
                                                   const sim::Auditor::Config& base) {
  if (!INCAST_AUDIT_ENABLED || mode == sim::AuditMode::kOff) return std::nullopt;
  sim::Auditor::Config config = base;
  config.strict = mode == sim::AuditMode::kStrict;
  return config;
}

std::int64_t check_int_overflows(const net::LinkDirectory& topology) {
  const std::int64_t overflows = topology.int_hop_overflows();
  if (overflows > 0) {
    std::fprintf(stderr,
                 "warning: %lld INT hop records overflowed the %d-entry stack "
                 "(net.int.hop_overflow); telemetry CCAs saw truncated paths\n",
                 static_cast<long long>(overflows), net::kMaxIntHops);
  }
  return overflows;
}

RunHarness::RunHarness(sim::Simulator& sim, const Options& options)
    : sim_{sim}, observer_{attach_hub(sim, options.hub)} {
  // Relaxed mode only observes — results stay identical to an unaudited run.
  if (const auto config = auditor_config(options.audit_mode, options.audit)) {
    auditor_.emplace(*config);
    sim.set_auditor(&*auditor_);
  }
  // The hub is only a span side channel for the tracer: breakdowns are
  // identical with or without it.
  if (options.flow_trace) {
    flow_tracer_.emplace(
        obs::FlowTracer::Config{options.flow_trace_seed, options.flow_trace_sample_every},
        options.hub);
    sim.set_flow_tracer(&*flow_tracer_);
  }
  observer_.watch_simulator(sim);
  if (auditor_) observer_.watch_auditor(*auditor_, sim);
}

std::string RunHarness::observe_bottleneck(const net::LinkDirectory& topology,
                                           const std::string& link) {
  if (!observer_.active()) return {};
  net::Port& port = topology.link(link);
  port.set_trace_label(link);
  observer_.watch_queue(link, port.queue());
  return link;
}

RunHarness::Outcome RunHarness::teardown(const net::LinkDirectory& topology,
                                         const std::vector<net::Switch*>& switches) {
  // A switch with no route for a destination silently blackholes traffic —
  // always a topology bug, never a legitimate outcome.
  net::check_no_unrouted(switches);
  // Ledger: every injected byte is now delivered, dropped, or still
  // buffered in a queue / on a wire somewhere.
  if (auditor_) auditor_->check_conservation(topology.residual_buffered_bytes());

  Outcome outcome;
  // Tail autopsy: close the waterfall, split the drain bucket, and hold
  // every completed sampled flow to the conservation invariant.
  if (flow_tracer_) {
    outcome.flow_breakdowns = flow_tracer_->finalize(sim_.now().ns());
    outcome.flow_trace_incomplete = flow_tracer_->incomplete_flows();
    if (auditor_) {
      for (const obs::FlowBreakdown& f : outcome.flow_breakdowns) {
        auditor_->check_flow_breakdown(f.flow, f.component_sum(), f.fct_ns);
      }
    }
    outcome.fct_rows = obs::tail_attribution(outcome.flow_breakdowns);
  }
  outcome.int_hop_overflows = check_int_overflows(topology);
  if (auditor_) outcome.audit_violations = auditor_->total_violations();
  return outcome;
}

}  // namespace incast::core
