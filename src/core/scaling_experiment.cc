#include "core/scaling_experiment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/run_harness.h"
#include "net/domain_bridge.h"
#include "net/packet.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "sim/parallel_simulator.h"
#include "sim/stable_arena.h"
#include "tcp/tcp_connection.h"

namespace incast::core {

namespace {

using Connections = sim::StableChunkArena<tcp::TcpConnection, 8>;

// Wire bytes one flow puts on the receiver's downlink: payload plus one
// 40-byte header per MSS-sized segment (the last segment's header included).
[[nodiscard]] std::int64_t wire_bytes_per_flow(std::int64_t payload,
                                               std::int64_t mss) noexcept {
  const std::int64_t segments = (payload + mss - 1) / mss;
  return payload + segments * net::kHeaderBytes;
}

// The receiver: slot 0 of the last leaf — maximally remote from sender 0,
// so every flow crosses the spine tier.
[[nodiscard]] int receiver_host(const ScalingConfig& config, const fabric::FatTree& tree) {
  return tree.num_hosts() - config.fabric.hosts_per_leaf;
}

// Builds the degree's flows and starts them all at t=0 — the incast in its
// purest form. Senders round-robin over every host but the receiver, so
// degrees above num_hosts - 1 stack multiple flows per host. Each endpoint
// schedules on its own host's simulator (one per domain on the parallel
// engine); `on_acked(sender)` returns the completion callback of a flow
// sent from `sender`.
template <typename OnAcked>
void start_flows(const ScalingConfig& config, int degree, fabric::FatTree& tree,
                 Connections& connections, OnAcked on_acked) {
  const int receiver = receiver_host(config, tree);
  const int sender_pool = tree.num_hosts() - 1;
  for (int f = 0; f < degree; ++f) {
    const int slot = f % sender_pool;
    net::Host& sender = tree.host(slot < receiver ? slot : slot + 1);
    tcp::TcpConnection& conn = connections.emplace_back(
        sender, tree.host(receiver), static_cast<net::FlowId>(f) + 1, config.tcp);
    conn.sender().set_on_all_acked(on_acked(sender));
  }
  for (std::size_t i = 0; i < connections.size(); ++i) {
    connections[i].sender().add_app_data(config.bytes_per_flow);
  }
}

// The accounting both engines share, then the point's metrics: completion
// and FCT overhead against the optimal, TCP totals, and the sizeof-based
// memory decomposition (see the header). The engine has already set what
// it samples its own way — packet_pool_bytes, event_bytes — and `end_ns`
// is when the last flow finished, or the deadline that cut the point short.
void finish_point(ScalingPoint& point, const ScalingConfig& config, fabric::FatTree& tree,
                  const Connections& connections, int completed, std::int64_t end_ns,
                  ExperimentObserver& observer) {
  point.completed_flows = completed;
  point.fct_ms = sim::Time::nanoseconds(end_ns).ms();
  const std::int64_t total_wire_bytes =
      static_cast<std::int64_t>(point.degree) *
      wire_bytes_per_flow(config.bytes_per_flow, config.tcp.mss_bytes);
  point.optimal_ms =
      (tree.base_rtt() + config.fabric.host_link.serialization_time(total_wire_bytes))
          .ms();
  if (point.optimal_ms > 0.0) {
    point.overhead_pct = (point.fct_ms / point.optimal_ms - 1.0) * 100.0;
  }

  for (std::size_t i = 0; i < connections.size(); ++i) {
    const tcp::TcpSender::Stats& s = connections[i].sender().stats();
    point.timeouts += s.timeouts;
    point.retransmits += s.retransmitted_packets;
  }

  point.flow_state_bytes = connections.bytes();
  for (net::Switch* sw : tree.switches()) {
    point.routing_bytes += sw->routing_bytes();
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      point.queue_drops += sw->port(i).queue().stats().dropped_packets;
    }
  }
  point.bytes_per_flow = (point.flow_state_bytes + point.packet_pool_bytes +
                          point.routing_bytes + point.event_bytes) /
                         static_cast<std::uint64_t>(point.degree);

  // Surface the budget decomposition in the final metrics snapshot; the
  // observer unregisters every scaling.* gauge when it goes out of scope.
  // parallel.windows is N-invariant, so --metrics-out stays byte-identical
  // at any --domains value.
  if (!observer.active()) return;
  const auto gauge = [&observer](const char* name, const auto& value) {
    observer.hub()->metrics().register_gauge(name,
                                             [&value] { return static_cast<double>(value); });
  };
  gauge("scaling.fct_ms", point.fct_ms);
  gauge("scaling.overhead_pct", point.overhead_pct);
  gauge("scaling.bytes_per_flow", point.bytes_per_flow);
  gauge("scaling.flow_state_bytes", point.flow_state_bytes);
  gauge("scaling.packet_pool_bytes", point.packet_pool_bytes);
  gauge("scaling.routing_bytes", point.routing_bytes);
  gauge("scaling.event_bytes", point.event_bytes);
  if (point.parallel_domains > 0) gauge("parallel.windows", point.windows);
  observer.watch_int_overflows(point.int_hop_overflows);
  observer.finish(end_ns, {point.fct_ms}, nullptr);
}

// The legacy single-queue engine (config.domains == 0).
ScalingPoint run_scaling_point_legacy(const ScalingConfig& config, int degree,
                                      std::uint64_t seed, obs::Hub* hub) {
  ScalingPoint point;
  point.degree = degree;

  sim::Simulator sim;
  // The tracer hashes the *base* seed (not this point's derived seed) so
  // the same flow ids are traced at every degree.
  RunHarness harness{sim, hub, config, config, config.seed};
  sim.reserve_events(static_cast<std::size_t>(degree) * 8 + 4096);

  fabric::FatTreeConfig fcfg = config.fabric;
  fcfg.ecmp_seed = seed;
  fabric::FatTree tree{sim, fcfg};

  const std::vector<net::Switch*> switches = tree.switches();

  const int receiver = receiver_host(config, tree);
  ExperimentObserver& observer = harness.observer();
  observer.watch_queue(tree.downlink_name(receiver), tree.downlink_queue(receiver));

  Connections connections;
  int completed = 0;
  start_flows(config, degree, tree, connections, [&](net::Host&) {
    return [&sim, &completed, degree] {
      if (++completed == degree) sim.stop();
    };
  });

  sim.run_until(config.max_sim_time);

  // Full per-flow breakdowns are discarded here — at degree 8000 keeping
  // them for every point would defeat the memory budget this experiment
  // exists to measure.
  harness.teardown(tree, switches).store(point);

  point.packet_pool_bytes = net::packet_pool(sim).high_water_bytes();
  point.event_bytes = static_cast<std::uint64_t>(sim.slab_high_water()) *
                      sim::EventQueue::slot_bytes();
  point.events_processed = sim.events_processed();
  finish_point(point, config, tree, connections, completed, sim.now().ns(), observer);
  return point;
}

// One incast degree on the conservative parallel engine (config.domains >=
// 1; see docs/PARALLELISM.md). The topology, flows, routing, and seeding
// are identical to the legacy path — what changes is execution:
//
//   * each domain runs its own Simulator in keyed (decomposition-invariant)
//     event order, so results are byte-identical at any domain count;
//     domains == 1 is the sequential reference of that contract;
//   * stop detection is barrier-granular: after the last flow completes,
//     the in-flight window still finishes everywhere, so events_processed
//     includes that window's tail — identically at every N;
//   * packet_pool_bytes / event_bytes are barrier-sampled peaks (max over
//     windows of live packet bytes / pending events) instead of pool and
//     slab high-water marks, because those are decomposition artifacts;
//     the barrier-state peaks are N-invariant by construction.
ScalingPoint run_scaling_point_parallel(const ScalingConfig& config, int degree,
                                        std::uint64_t seed, obs::Hub* hub) {
  if (config.flow_trace) {
    throw std::invalid_argument{
        "flow_trace is not supported with domains >= 1: the tracer shards "
        "per-domain and its sampling would not be decomposition-invariant"};
  }

  ScalingPoint point;
  point.degree = degree;
  const int n = config.domains;
  point.parallel_domains = static_cast<std::uint64_t>(n);

  // One simulator per domain, keyed ordering enabled before anything
  // schedules. No hub is attached to any domain simulator: component-level
  // tracing callbacks are not thread-safe across domains, so domain runs
  // expose run-level observability only (registered further down).
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> sim_ptrs;
  sims.reserve(static_cast<std::size_t>(n));
  sim_ptrs.reserve(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    sims.push_back(std::make_unique<sim::Simulator>());
    sims.back()->enable_keyed_ordering();
    sims.back()->reserve_events(static_cast<std::size_t>(degree) * 8 /
                                    static_cast<std::size_t>(n) +
                                4096);
    sim_ptrs.push_back(sims.back().get());
  }

  // One auditor per domain (hot-path hooks must not share cache lines),
  // merged into a coordinator-side auditor at teardown. Per-domain event
  // budgets are disabled — the global budget is enforced at barriers, where
  // the total is well-defined.
  std::vector<std::unique_ptr<sim::Auditor>> domain_auditors;
  std::optional<sim::Auditor> merged;
  if (std::optional<sim::Auditor::Config> acfg =
          auditor_config(config.audit_mode, config.audit)) {
    acfg->max_events = 0;
    for (int d = 0; d < n; ++d) {
      domain_auditors.push_back(std::make_unique<sim::Auditor>(*acfg));
      sim_ptrs[static_cast<std::size_t>(d)]->set_auditor(domain_auditors.back().get());
    }
    sim::Auditor::Config mcfg = *acfg;
    mcfg.max_wall_ms = 0.0;
    mcfg.cancel = nullptr;
    merged.emplace(mcfg);
  }
  sim::Auditor* drain_auditor = merged ? &*merged : nullptr;

  fabric::FatTreeConfig fcfg = config.fabric;
  fcfg.ecmp_seed = seed;
  fabric::DomainAssignment assignment = fabric::assign_rack_domains(fcfg, n);
  if (config.lookahead_override > sim::Time::zero()) {
    assignment.lookahead = config.lookahead_override;
  }
  fabric::FatTree tree{sim_ptrs, assignment, fcfg};

  const std::vector<net::Switch*> switches = tree.switches();

  net::DomainBridge bridge{sim_ptrs};
  bridge.attach(tree.nodes());

  // Completion tracking without cross-domain writes: every sender bumps its
  // own domain's padded slot; the coordinator sums them at barriers. The
  // run's FCT is the max last-ack time over slots — the same instant the
  // legacy engine observes when the final on_all_acked fires.
  struct alignas(64) CompletionSlot {
    int completed{0};
    std::int64_t last_ack_ns{0};
  };
  std::vector<CompletionSlot> slots(static_cast<std::size_t>(n));

  // Flows are scheduled from this (still single) thread.
  Connections connections;
  start_flows(config, degree, tree, connections, [&](net::Host& sender) {
    CompletionSlot* cs = &slots[static_cast<std::size_t>(sender.domain())];
    sim::Simulator* ssim = sim_ptrs[static_cast<std::size_t>(sender.domain())];
    return [cs, ssim] {
      ++cs->completed;
      const std::int64_t now_ns = ssim->now().ns();
      if (now_ns > cs->last_ack_ns) cs->last_ack_ns = now_ns;
    };
  });

  std::uint64_t peak_live_packet_bytes = 0;
  std::uint64_t peak_events_pending = 0;
  const auto sample = [&] {
    peak_live_packet_bytes = std::max(peak_live_packet_bytes, bridge.live_packet_bytes());
    std::uint64_t pending = 0;
    for (sim::Simulator* s : sim_ptrs) pending += s->events_pending();
    if (pending > peak_events_pending) peak_events_pending = pending;
  };
  sample();  // the t=0 state counts too

  const std::uint64_t max_events = config.audit.max_events;
  sim::ParallelSimulator::Hooks hooks;
  hooks.drain = [&bridge, drain_auditor](sim::Time completed_end) {
    bridge.drain_all(completed_end, drain_auditor);
  };
  hooks.sample = sample;
  hooks.should_stop = [&] {
    if (max_events > 0) {
      std::uint64_t total = 0;
      for (sim::Simulator* s : sim_ptrs) total += s->events_processed();
      if (total > max_events) {
        throw sim::BudgetExceeded{"event budget " + std::to_string(max_events) +
                                  " exhausted across " + std::to_string(n) +
                                  " domains"};
      }
    }
    int completed = 0;
    for (const CompletionSlot& s : slots) completed += s.completed;
    return completed == degree;
  };

  sim::ParallelSimulator engine{
      sim_ptrs,
      sim::ParallelSimulator::Config{.lookahead = assignment.lookahead,
                                     .deadline = config.max_sim_time},
      std::move(hooks)};
  const sim::ParallelSimulator::Stats stats = engine.run();

  net::check_no_unrouted(switches);
  if (merged) {
    for (const std::unique_ptr<sim::Auditor>& a : domain_auditors) {
      merged->merge_from(*a);
    }
    merged->check_conservation(tree.residual_buffered_bytes() +
                               bridge.ingress_wire_bytes());
    point.audit_violations = merged->total_violations();
  }
  point.int_hop_overflows = check_int_overflows(tree);

  int completed = 0;
  std::int64_t last_ack_ns = 0;
  for (const CompletionSlot& s : slots) {
    completed += s.completed;
    if (s.last_ack_ns > last_ack_ns) last_ack_ns = s.last_ack_ns;
  }
  const std::int64_t end_ns =
      stats.stopped ? last_ack_ns : config.max_sim_time.ns();

  point.packet_pool_bytes = peak_live_packet_bytes;
  point.event_bytes = peak_events_pending * sim::EventQueue::slot_bytes();
  for (sim::Simulator* s : sim_ptrs) point.events_processed += s->events_processed();
  point.windows = stats.windows;
  point.packets_bridged = bridge.packets_bridged();
  point.barrier_stall_ns = stats.barrier_stall_ns;
  point.events_per_domain = stats.events_per_domain;
  point.window_hist = stats.window_hist;

  // Run-level observability only: nothing here depends on the domain split.
  ExperimentObserver observer{hub};
  const int receiver = receiver_host(config, tree);
  observer.watch_queue(tree.downlink_name(receiver), tree.downlink_queue(receiver));
  finish_point(point, config, tree, connections, completed, end_ns, observer);
  return point;
}

}  // namespace

ScalingPoint run_scaling_point(const ScalingConfig& config, int degree,
                               std::uint64_t seed, obs::Hub* hub) {
  return config.domains >= 1 ? run_scaling_point_parallel(config, degree, seed, hub)
                             : run_scaling_point_legacy(config, degree, seed, hub);
}

ScalingReport run_scaling_experiment(const ScalingConfig& config) {
  ScalingReport report;
  report.points = resumable_sweep<ScalingPoint>(
      config, config.degrees.size(),
      [&config](std::size_t index) { return sim::derive_task_seed(config.seed, index); },
      config.hub,
      [&config](std::size_t index, std::uint64_t seed, obs::Hub* hub) {
        return run_scaling_point(config, config.degrees[index], seed, hub);
      },
      report.sweep);
  return report;
}

std::string scaling_fct_csv(const ScalingReport& report) {
  std::string out = obs::fct_breakdown_csv_header();
  for (const ScalingPoint& p : report.points) {
    obs::append_fct_breakdown_csv(out, "scaling", p.degree, p.fct_rows);
  }
  return out;
}

}  // namespace incast::core
