#include "core/chaos.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/fleet_experiment.h"
#include "core/incast_experiment.h"
#include "core/run_harness.h"
#include "sim/random.h"
#include "workload/service_profile.h"

namespace incast::core {

namespace {

constexpr tcp::CcAlgorithm kAllCc[] = {
    tcp::CcAlgorithm::kDctcp, tcp::CcAlgorithm::kReno,  tcp::CcAlgorithm::kRenoEcn,
    tcp::CcAlgorithm::kCubic, tcp::CcAlgorithm::kSwift, tcp::CcAlgorithm::kHpcc,
};

const char* cc_name(tcp::CcAlgorithm cc) noexcept {
  switch (cc) {
    case tcp::CcAlgorithm::kDctcp: return "dctcp";
    case tcp::CcAlgorithm::kReno: return "reno";
    case tcp::CcAlgorithm::kRenoEcn: return "reno-ecn";
    case tcp::CcAlgorithm::kCubic: return "cubic";
    case tcp::CcAlgorithm::kSwift: return "swift";
    case tcp::CcAlgorithm::kHpcc: return "hpcc";
    case tcp::CcAlgorithm::kDcqcn: return "dcqcn";
  }
  return "?";
}

std::string describe(const char* kind, const std::string& detail) {
  return std::string{kind} + " " + detail;
}

// A randomized Section 4 burst, optionally with randomized link faults.
// Every knob is drawn in a fixed order so the config is a pure function of
// the seed.
ChaosRunResult chaos_burst(const ChaosConfig& config, std::uint64_t seed, bool faulty) {
  sim::Rng rng{seed ^ 0xB0157EED};
  IncastExperimentConfig cfg;
  cfg.seed = seed;
  cfg.num_flows = static_cast<int>(rng.uniform_int(8, 300));
  cfg.burst_duration = sim::Time::milliseconds(static_cast<double>(rng.uniform_int(1, 8)));
  cfg.num_bursts = static_cast<int>(rng.uniform_int(2, 3));
  cfg.discard_bursts = 1;
  cfg.inter_burst_gap = rng.uniform_time(sim::Time::zero(), sim::Time::milliseconds(5));
  cfg.schedule = rng.bernoulli(0.5) ? workload::BurstSchedule::kAfterCompletion
                                    : workload::BurstSchedule::kFixedPeriod;
  cfg.tcp.cc = kAllCc[rng.uniform_int(0, 5)];
  cfg.tcp.int_telemetry = cfg.tcp.cc == tcp::CcAlgorithm::kHpcc;
  cfg.tcp.rtt.min_rto = rng.uniform_time(sim::Time::milliseconds(1), sim::Time::milliseconds(200));
  cfg.tcp.tail_loss_probe = rng.bernoulli(0.3);
  if (rng.bernoulli(0.3)) {
    cfg.tcp.cwnd_cap_bytes = rng.uniform_int(4, 64) * cfg.tcp.mss_bytes;
  }
  const std::int64_t queue = rng.uniform_int(100, 2000);
  cfg.topology.switch_queue.capacity_packets = queue;
  cfg.topology.switch_queue.ecn_threshold_packets =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                    static_cast<double>(queue) * rng.uniform(0.05, 0.8)));
  cfg.max_sim_time = sim::Time::seconds(10);

  // Queue-discipline mix: drop-tail, NDP trimming, PFC lossless (2:1:1).
  // Trimming and PFC exercise the auditor's trimmed-byte and control-frame
  // ledgers; PFC draws randomized XOFF/XON/headroom so hysteresis corners
  // (tight thresholds, scarce headroom) get fuzzed too.
  const std::int64_t qmode = rng.uniform_int(0, 3);
  const char* qmode_name = "droptail";
  if (qmode == 2) {
    cfg.topology.switch_queue.discipline = net::QueueDiscipline::kTrimming;
    qmode_name = "trim";
  } else if (qmode == 3) {
    net::LosslessInputQueue::Config pfc;
    pfc.xoff_bytes = rng.uniform_int(32, 256) * 1024;
    pfc.xon_bytes = pfc.xoff_bytes - rng.uniform_int(8, 64) * 1024;
    if (pfc.xon_bytes < 1024) pfc.xon_bytes = 1024;
    pfc.headroom_bytes = rng.uniform_int(128, 512) * 1024;
    cfg.topology.pfc = pfc;
    // PFC backpressure, not tail drop, should be the binding constraint.
    cfg.topology.switch_queue.capacity_packets = 100'000;
    if (rng.bernoulli(0.5)) cfg.tcp.cc = tcp::CcAlgorithm::kDcqcn;
    qmode_name = "pfc";
  }

  std::string faults;
  if (faulty) {
    cfg.faults.forward.drop_rate = rng.bernoulli(0.7) ? rng.uniform(0.0, 0.03) : 0.0;
    cfg.faults.forward.corrupt_rate = rng.bernoulli(0.4) ? rng.uniform(0.0, 0.01) : 0.0;
    cfg.faults.forward.duplicate_rate = rng.bernoulli(0.4) ? rng.uniform(0.0, 0.01) : 0.0;
    cfg.faults.forward.reorder_rate = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.01) : 0.0;
    if (rng.bernoulli(0.3)) {
      cfg.faults.forward.ge_good_to_bad = rng.uniform(0.0, 0.01);
      cfg.faults.forward.ge_bad_to_good = rng.uniform(0.05, 0.5);
    }
    cfg.faults.reverse.drop_rate = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.01) : 0.0;
    if (rng.bernoulli(0.3)) {
      const sim::Time at = rng.uniform_time(sim::Time::milliseconds(2), sim::Time::milliseconds(8));
      const sim::Time dur =
          rng.uniform_time(sim::Time::microseconds(500), sim::Time::milliseconds(3));
      cfg.faults.flaps.push_back(fault::FlapWindow{at, dur});
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), " drop=%.4f corrupt=%.4f dup=%.4f reorder=%.4f flaps=%zu",
                  cfg.faults.forward.drop_rate, cfg.faults.forward.corrupt_rate,
                  cfg.faults.forward.duplicate_rate, cfg.faults.forward.reorder_rate,
                  cfg.faults.flaps.size());
    faults = buf;
  }

  cfg.audit_mode = sim::AuditMode::kStrict;
  cfg.audit.max_events = config.max_events_per_run;
  cfg.audit.max_wall_ms = config.max_wall_ms_per_run;
  cfg.audit.cancel = config.cancel;

  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "cc=%s qmode=%s flows=%d dur=%lldus queue=%lld ecn=%lld bursts=%d%s",
                cc_name(cfg.tcp.cc), qmode_name, cfg.num_flows,
                static_cast<long long>(cfg.burst_duration.ns() / 1000),
                static_cast<long long>(queue),
                static_cast<long long>(cfg.topology.switch_queue.ecn_threshold_packets),
                cfg.num_bursts, faults.c_str());

  const IncastExperimentResult result = run_incast_experiment(cfg);
  ChaosRunResult out;
  out.description = describe(faulty ? "faulty-burst" : "burst", buf);
  out.seed = seed;
  out.events_processed = result.events_processed;
  return out;
}

// A randomized short fleet trace: service-profile workload, shared-buffer
// contention, the whole Section 3 pipeline — under the strict auditor.
ChaosRunResult chaos_fleet(const ChaosConfig& config, std::uint64_t seed) {
  sim::Rng rng{seed ^ 0xF1EE7C05};
  const auto& catalog = workload::service_catalog();
  FleetConfig cfg;
  cfg.profile = catalog[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1))];
  // Clamp the heavyweight profiles so a chaos run stays sub-second.
  cfg.profile.max_flows = std::min(cfg.profile.max_flows, 80);
  cfg.profile.body_median_flows = std::min(cfg.profile.body_median_flows, 40.0);
  cfg.num_hosts = 1;
  cfg.num_snapshots = 1;
  cfg.trace_duration = sim::Time::milliseconds(static_cast<double>(rng.uniform_int(20, 80)));
  cfg.base_seed = seed;
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = sim::Time::milliseconds(static_cast<double>(rng.uniform_int(1, 200)));
  const std::int64_t mode_draw = rng.uniform_int(0, 2);
  cfg.contention_mode = mode_draw == 0   ? FleetConfig::ContentionMode::kNone
                        : mode_draw == 1 ? FleetConfig::ContentionMode::kModeled
                                         : FleetConfig::ContentionMode::kNeighbor;
  cfg.audit_mode = sim::AuditMode::kStrict;
  cfg.audit.max_events = config.max_events_per_run;
  cfg.audit.max_wall_ms = config.max_wall_ms_per_run;
  cfg.audit.cancel = config.cancel;

  char buf[160];
  std::snprintf(buf, sizeof(buf), "service=%s trace=%lldms contention=%lld max_flows=%d",
                cfg.profile.name.c_str(),
                static_cast<long long>(cfg.trace_duration.ns() / 1'000'000),
                static_cast<long long>(mode_draw), cfg.profile.max_flows);

  const FleetExperiment exp{cfg};
  const HostTraceResult result = exp.run_host_trace(0, 0);
  ChaosRunResult out;
  out.description = describe("fleet", buf);
  out.seed = seed;
  out.events_processed = result.events_processed;
  return out;
}

}  // namespace

std::uint64_t chaos_run_seed(const ChaosConfig& config, std::size_t index) noexcept {
  return sim::derive_task_seed(config.seed, index);
}

ChaosReport run_chaos(const ChaosConfig& config) {
  ChaosReport report;
  sim::SweepRunner::Policy policy;
  policy.fail_fast = false;  // collect every broken config, never abort the fuzz
  policy.max_attempts = 1;   // a violation is deterministic; retrying hides nothing
  policy.cancel = config.cancel;
  policy.seed_of = [&config](std::size_t index) { return chaos_run_seed(config, index); };
  policy.on_failure = config.on_failure;
  report.runs = resumable_sweep<ChaosRunResult>(
      config.jobs, std::move(policy), static_cast<std::size_t>(config.num_configs),
      config.resume, config.on_result,
      [&config](std::size_t, std::uint64_t seed) {
        // Kind mix: plain bursts, faulty bursts, fleet traces (1:2:1).
        sim::Rng kind_rng{seed};
        const std::int64_t kind = kind_rng.uniform_int(0, 3);
        return kind == 3 ? chaos_fleet(config, seed) : chaos_burst(config, seed, kind >= 1);
      },
      report.sweep);
  return report;
}

}  // namespace incast::core
