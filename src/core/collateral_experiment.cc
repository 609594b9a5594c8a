#include "core/collateral_experiment.h"

#include <algorithm>
#include <utility>

#include "core/incast_experiment.h"
#include "core/run_harness.h"
#include "workload/cyclic_incast.h"

namespace incast::core {

namespace {

// The victim's flow id. Its endpoints are dedicated hosts, so collision
// with the incast's per-host flow ids is impossible; a distinctive value
// keeps it recognizable in traces and audit messages.
constexpr net::FlowId kVictimFlow = 999'999;

// Effectively-infinite application stream for the victim: it must still be
// sending when the last incast burst completes.
constexpr std::int64_t kVictimStreamBytes = 1'000'000'000'000;

// Shapes the dumbbell for one queue mode. Sender `degree` is the victim,
// receivers are {0: incast sink, 1: victim sink} — the incast driver's
// dumbbell endpoints end at receiver 0.
net::DumbbellConfig make_topology(const CollateralConfig& config, QueueMode mode,
                                  int degree) {
  net::DumbbellConfig topo = config.topology;
  topo.num_senders = degree + 1;
  topo.num_receivers = 2;
  topo.switch_queue.ecn_threshold_packets = config.ecn_threshold_packets;
  topo.switch_queue.discipline = net::QueueDiscipline::kDropTail;
  topo.pfc.reset();
  topo.shared_buffer.reset();
  // The receiver ToR's dynamically shared buffer is what turns an incast
  // into collateral damage for drop-tail (paper Sections 3.4, 4.1.1): the
  // burst-onset overshoot exhausts the pool and the victim's egress queue
  // is refused memory. Trimming charges only data packets (headers always
  // survive), credit pacing never fills it, so the same pool tells all
  // three stories. PFC keeps dedicated deep buffers instead — lossless
  // headroom is provisioned, not pooled, and its failure mode is the pause
  // congestion tree rather than buffer theft.
  if (mode != QueueMode::kPfc && config.shared_buffer_bytes > 0) {
    topo.shared_buffer = net::SharedBufferPool::Config{
        .total_bytes = config.shared_buffer_bytes, .alpha = config.shared_buffer_alpha};
  }
  switch (mode) {
    case QueueMode::kDropTail:
    case QueueMode::kCredit:
      topo.switch_queue.capacity_packets = config.queue_capacity_packets;
      break;
    case QueueMode::kPfc:
      topo.switch_queue.capacity_packets = config.pfc_queue_capacity_packets;
      topo.pfc = config.pfc;
      break;
    case QueueMode::kTrim:
      topo.switch_queue.capacity_packets = config.trim_queue_capacity_packets;
      topo.switch_queue.discipline = net::QueueDiscipline::kTrimming;
      break;
  }
  return topo;
}

void collect_fabric_counters(net::Dumbbell& dumbbell, CollateralPoint& point) {
  for (net::Switch* sw : dumbbell.switches()) {
    for (std::size_t i = 0; i < sw->num_ports(); ++i) {
      const auto& qs = sw->port(i).queue().stats();
      point.queue_drops += qs.dropped_packets;
      point.trimmed_packets += qs.trimmed_packets;
      point.trimmed_bytes += qs.trimmed_bytes;
    }
    for (std::size_t i = 0; i < sw->num_viqs(); ++i) {
      const net::LosslessInputQueue* viq = sw->viq(i);
      if (viq == nullptr) continue;
      point.pfc_pause_frames += viq->stats().pause_frames;
      point.pfc_resume_frames += viq->stats().resume_frames;
      point.pfc_overflow_drops += viq->stats().overflow_dropped_packets;
    }
  }
}

}  // namespace

const char* to_string(QueueMode mode) noexcept {
  switch (mode) {
    case QueueMode::kDropTail:
      return "droptail";
    case QueueMode::kPfc:
      return "pfc";
    case QueueMode::kTrim:
      return "trim";
    case QueueMode::kCredit:
      return "credit";
  }
  return "unknown";
}

CollateralPoint run_collateral_point(const CollateralConfig& config, QueueMode mode,
                                     int degree, std::uint64_t seed, obs::Hub* hub) {
  CollateralPoint point;
  point.mode = mode;
  point.degree = degree;

  sim::Simulator sim;
  // The tracer hashes the *base* config seed (not the per-point derived
  // seed) so every grid point samples the same flow ids.
  RunHarness harness{sim, hub, config, config, config.seed};
  sim.reserve_events(static_cast<std::size_t>(degree) * 8 + 4096);

  net::Dumbbell dumbbell{sim, make_topology(config, mode, degree)};

  tcp::TcpConfig tcp = config.tcp;
  tcp.cc = mode == QueueMode::kPfc ? config.pfc_cc : config.tcp.cc;

  // The victim: one persistent flow, victim host -> receiver 1, running the
  // same CCA as the incast it shares the sender ToR and core link with. Its
  // cwnd is capped (a finite socket buffer): a long-lived flow on an
  // otherwise-idle path would grow cwnd without bound, tripping the
  // auditor's cwnd sanity bound on long runs, and no real sender keeps
  // gigabytes in flight.
  tcp::TcpConfig victim_tcp = tcp;
  if (config.victim_cwnd_cap_bytes > 0) {
    victim_tcp.cwnd_cap_bytes = config.victim_cwnd_cap_bytes;
  }
  tcp::TcpConnection victim{sim, dumbbell.sender(degree), dumbbell.receiver(1),
                            kVictimFlow, victim_tcp};

  // The incast: senders 0..degree-1 -> receiver 0, cyclic bursts.
  using workload::CyclicIncastDriver;
  CyclicIncastDriver::Config dcfg;
  dcfg.num_flows = degree;
  dcfg.num_bursts = config.num_bursts;
  dcfg.burst_duration = config.burst_duration;
  dcfg.inter_burst_gap = config.inter_burst_gap;
  const CyclicIncastDriver::Transport transport =
      mode == QueueMode::kCredit
          ? CyclicIncastDriver::Transport{CyclicIncastDriver::CreditFlows{}}
          : CyclicIncastDriver::Transport{tcp};
  CyclicIncastDriver incast{sim, dumbbell, transport, dcfg, seed};
  incast.set_on_burst_complete([&](int) {
    if (incast.finished()) sim.stop();
  });

  // Experiment-scope observability: the incast bottleneck queue plus the
  // new lossless/trimming instrumentation (pause counters, trimmed bytes).
  harness.observe_bottleneck(dumbbell, "tor_r->" + dumbbell.receiver(0).name());
  ExperimentObserver& observer = harness.observer();
  observer.watch_pfc("tor_s", dumbbell.sender_tor());
  observer.watch_pfc("tor_r", dumbbell.receiver_tor());

  victim.sender().add_app_data(kVictimStreamBytes);
  incast.start();

  sim.run_until(config.max_sim_time);

  // The grid can trace many flows: keep only the percentile rows.
  harness.teardown(dumbbell, dumbbell.switches()).store(point);

  const double elapsed_s = sim.now().sec();
  point.victim_delivered_bytes = victim.receiver().rcv_nxt();
  if (elapsed_s > 0.0) {
    point.victim_goodput_gbps =
        static_cast<double>(point.victim_delivered_bytes) * 8.0 / elapsed_s / 1e9;
  }
  point.victim_paused_ms =
      static_cast<double>(dumbbell.sender(degree).nic_paused_ns()) / 1e6;
  point.victim_retransmits = victim.sender().stats().retransmitted_packets;
  point.victim_timeouts = victim.sender().stats().timeouts;
  point.victim_nacks = victim.receiver().stats().nacks_sent;

  const BurstCompletion bct = burst_completion(incast.bursts(), 0);
  point.incast_avg_bct_ms = bct.avg_ms;
  point.incast_max_bct_ms = bct.max_ms;
  const std::vector<tcp::TcpSender*> senders = incast.senders();  // empty for credit
  for (std::size_t i = 0; i < senders.size(); ++i) {
    point.incast_timeouts += senders[i]->stats().timeouts;
    point.incast_nacks +=
        incast.connection(static_cast<int>(i)).receiver().stats().nacks_sent;
  }
  collect_fabric_counters(dumbbell, point);
  point.events_processed = sim.events_processed();

  observer.finish(sim.now().ns(), bct.ms, nullptr);

  return point;
}

CollateralReport run_collateral_experiment(const CollateralConfig& config) {
  CollateralReport report;
  report.points = resumable_sweep<CollateralPoint>(
      config, config.modes.size() * config.degrees.size(),
      [&config](std::size_t index) { return sim::derive_task_seed(config.seed, index); },
      config.hub,
      [&config](std::size_t index, std::uint64_t seed, obs::Hub* hub) {
        return run_collateral_point(config, config.modes[index / config.degrees.size()],
                                    config.degrees[index % config.degrees.size()], seed, hub);
      },
      report.sweep);
  return report;
}

std::string collateral_fct_csv(const CollateralReport& report) {
  std::string out = obs::fct_breakdown_csv_header();
  for (const CollateralPoint& p : report.points) {
    obs::append_fct_breakdown_csv(out, to_string(p.mode), p.degree, p.fct_rows);
  }
  return out;
}

}  // namespace incast::core
