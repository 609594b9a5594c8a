#include "core/fleet_experiment.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/run_harness.h"
#include "net/topology.h"
#include "telemetry/queue_monitor.h"
#include "workload/fleet_traffic.h"

namespace incast::core {

std::uint64_t FleetExperiment::trace_seed(int host, int snapshot) const noexcept {
  // Fold the service name into the base (different services must diverge
  // even at the same base_seed), then splitmix64-derive by grid-cell index.
  // The derivation depends only on (base, cell index), so a trace's seed is
  // the same whether it runs alone, sequentially, or on any thread of a
  // parallel sweep.
  std::uint64_t base = config_.base_seed;
  for (const char c : config_.profile.name) {
    base = base * 0x100000001b3ULL + static_cast<std::uint64_t>(c);
  }
  const auto index = static_cast<std::uint64_t>(snapshot) *
                         static_cast<std::uint64_t>(config_.num_hosts) +
                     static_cast<std::uint64_t>(host);
  return sim::derive_task_seed(base, index);
}

HostTraceResult FleetExperiment::run_host_trace(int host, int snapshot,
                                                obs::Hub* hub) const {
  sim::Simulator sim;
  RunHarness harness{sim, hub, config_};

  const workload::ServiceProfile& profile = config_.profile;
  // Capacity hint: the generator keeps at most max_flows concurrent flows
  // (hosts x flows in the sweep sense), each with timers and in-flight data.
  sim.reserve_events(static_cast<std::size_t>(std::max(profile.max_flows, 1)) * 8 + 2048);

  const bool neighbor = config_.contention_mode == FleetConfig::ContentionMode::kNeighbor;

  net::DumbbellConfig topo;
  topo.num_senders = profile.max_flows;
  topo.num_receivers = neighbor ? 2 : 1;
  topo.host_link = config_.nic_rate;
  topo.switch_queue.capacity_packets = config_.queue_capacity_packets;
  topo.switch_queue.ecn_threshold_packets = std::max<std::int64_t>(
      static_cast<std::int64_t>(config_.ecn_threshold_fraction *
                                static_cast<double>(config_.queue_capacity_packets)),
      1);
  // alpha = 2: a lone queue may take up to 2/3 of the pool (~1333 packets),
  // but a rack neighbor's usage squeezes that cap hard — which is how
  // contention turns p99 incasts into the paper's rare loss events.
  topo.shared_buffer = net::SharedBufferPool::Config{config_.shared_pool_bytes, 2.0};
  net::Dumbbell dumbbell{sim, topo};

  const std::uint64_t seed = trace_seed(host, snapshot);

  workload::FleetTrafficGen::Config gen_cfg;
  gen_cfg.profile = profile;
  gen_cfg.alt_regime = profile.alt_median_flows > 0.0 &&
                       (snapshot / std::max(config_.regime_block_snapshots, 1)) % 2 == 1;
  gen_cfg.host_factor = workload::host_factor(profile, host);
  workload::FleetTrafficGen gen{sim, dumbbell, config_.tcp, gen_cfg, seed};

  telemetry::Millisampler sampler{{sim::Time::milliseconds(1), config_.nic_rate}};
  dumbbell.receiver(0).add_ingress_tap(&sampler);

  telemetry::QueueMonitor::Config qcfg;
  qcfg.sample_every = sim::Time::zero();
  qcfg.watermark_window = sim::Time::milliseconds(1);
  qcfg.trace_label =
      harness.observe_bottleneck(dumbbell, "tor_r->" + dumbbell.receiver(0).name());
  telemetry::QueueMonitor qmon{sim, dumbbell.bottleneck_queue(), qcfg};

  // Rack-level contention: either the cheap modeled pool pressure, or a
  // real neighbor receiver running the same service on this rack.
  std::unique_ptr<workload::RackContention> contention;
  std::unique_ptr<workload::FleetTrafficGen> neighbor_gen;
  if (config_.contention_mode == FleetConfig::ContentionMode::kModeled) {
    contention = std::make_unique<workload::RackContention>(
        sim, *dumbbell.receiver_tor().shared_buffer(), config_.contention, seed ^ 0xC0117E17);
  } else if (neighbor) {
    workload::FleetTrafficGen::Config ncfg;
    ncfg.profile = profile;
    ncfg.alt_regime = gen_cfg.alt_regime;
    // A different (deterministic) host of the same service.
    ncfg.host_factor = workload::host_factor(profile, host + 1000);
    ncfg.receiver_index = 1;
    ncfg.flow_id_base = static_cast<net::FlowId>(profile.max_flows) + 1;
    neighbor_gen = std::make_unique<workload::FleetTrafficGen>(sim, dumbbell, config_.tcp,
                                                               ncfg, seed ^ 0x4E1687B0);
  }

  const sim::Time until = config_.trace_duration;
  qmon.start(until);
  if (contention) contention->start(until);
  if (neighbor_gen) neighbor_gen->start(until);
  gen.start(until);

  // Let in-flight bursts drain a little past the trace end so their packets
  // are not lost to the accounting, but close the sampler exactly at the
  // trace boundary as the production tool does.
  sim.run_until(until + sim::Time::milliseconds(50));
  sampler.finalize(until);

  HostTraceResult result;
  result.audit_violations = harness.teardown(dumbbell, dumbbell.switches()).audit_violations;
  result.host = host;
  result.snapshot = snapshot;
  result.alt_regime = gen_cfg.alt_regime;
  result.avg_utilization = sampler.average_utilization();
  result.queue_drops = dumbbell.bottleneck_queue().stats().dropped_packets;
  result.generated_bursts = static_cast<std::int64_t>(gen.burst_log().size());

  const analysis::BurstDetector detector{config_.detector};
  result.summary.trace_seconds = config_.trace_duration.sec();
  result.summary.bursts = detector.detect(sampler, qmon.watermarks());

  result.queue_watermarks = qmon.watermarks();
  if (keep_bins_) {
    result.bins = sampler.bins();
  }
  result.events_processed = sim.events_processed();
  result.events_by_category = sim.events_by_category();
  result.peak_events_pending = sim.peak_events_pending();
  result.slab_high_water = sim.slab_high_water();

  // Snapshot the registry while the traffic generator's senders are alive.
  harness.observer().finish(sim.now().ns(), {}, "safe");
  return result;
}

std::vector<HostTraceResult> FleetExperiment::run_all() const {
  const auto cell = [this](std::size_t index) {
    return std::pair{static_cast<int>(index) % config_.num_hosts,
                     static_cast<int>(index) / config_.num_hosts};
  };
  return resumable_sweep<HostTraceResult>(
      config_,
      static_cast<std::size_t>(config_.num_hosts) *
          static_cast<std::size_t>(config_.num_snapshots),
      [this, cell](std::size_t index) {
        const auto [host, snapshot] = cell(index);
        return trace_seed(host, snapshot);
      },
      config_.hub,
      [this, cell](std::size_t index, std::uint64_t, obs::Hub* hub) {
        const auto [host, snapshot] = cell(index);
        return run_host_trace(host, snapshot, hub);
      },
      last_sweep_);
}

}  // namespace incast::core
