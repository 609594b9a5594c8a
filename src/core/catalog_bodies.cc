#include "core/catalog_bodies.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/burst_detector.h"
#include "analysis/stability.h"
#include "core/fabric_experiment.h"
#include "core/fleet_experiment.h"
#include "core/incast_experiment.h"
#include "core/report.h"
#include "core/run_harness.h"
#include "net/topology.h"
#include "sim/random.h"
#include "tcp/tcp_connection.h"
#include "workload/cyclic_incast.h"
#include "workload/rack_contention.h"

namespace incast::core::rows {

using namespace incast::sim::literals;

tcp::TcpConfig tcp_config(tcp::CcAlgorithm algo) {
  tcp::TcpConfig cfg;
  cfg.cc = algo;
  if (algo == tcp::CcAlgorithm::kSwift) cfg.cc_config.initial_window_segments = 1;
  return cfg;
}

namespace {

// ---- Section 3: fleet grids ------------------------------------------------

// The fleet setup every Section 3 row shares: the TcpConfig defaults (DCTCP,
// 200 ms min RTO), every hardware thread, the row's auditor.
FleetConfig fleet_config(const workload::ServiceProfile& profile, const AuditOptions& audit) {
  FleetConfig cfg;
  cfg.profile = profile;
  cfg.jobs = 0;
  static_cast<AuditOptions&>(cfg) = audit;
  return cfg;
}

// Runs one hosts x snapshots grid of `trace`-long traces per Table 1
// service, in catalog order, and hands `visit` each service's config and
// results (snapshot-major): the shape of Figures 2, 3(a) and 4.
template <typename Visit>
void for_each_service(const AuditOptions& audit, int hosts, int snapshots, sim::Time trace,
                      Visit visit) {
  for (const auto& profile : workload::service_catalog()) {
    FleetConfig cfg = fleet_config(profile, audit);
    cfg.num_hosts = hosts;
    cfg.num_snapshots = snapshots;
    cfg.trace_duration = trace;
    visit(cfg, FleetExperiment{cfg}.run_all());
  }
}

// The grid Figures 2 and 4 pool (the paper: 20 hosts, 9 snapshots a day).
constexpr PerScale<int> kGridHosts{2, 4, 20};
constexpr PerScale<int> kGridSnapshots{1, 2, 9};
constexpr PerScale<sim::Time> kGridTrace{300_ms, 1_s, 2_s};

}  // namespace

void table1_services(Scale, const AuditOptions&, std::FILE* out) {
  Table table{{"Service", "Description"}};
  for (const auto& p : workload::service_catalog()) {
    table.add_row({p.name, p.description});
  }
  table.print(out);

  // The generative parameters each profile uses to reproduce its service's
  // Section 3 distributions: these numbers are the model, the figures its
  // output.
  std::fprintf(out, "\nGenerative model parameters (this reproduction):\n");
  Table params{{"Service", "bursts/s", "median flows", "sigma", "low-mode p", "alt median",
                "dur p", "util range"}};
  for (const auto& p : workload::service_catalog()) {
    params.add_row({p.name, fmt(p.bursts_per_second, 0), fmt(p.body_median_flows, 0),
                    fmt(p.body_sigma, 2), fmt(p.low_mode_probability, 2),
                    p.alt_median_flows > 0 ? fmt(p.alt_median_flows, 0) : "-",
                    fmt(p.duration_geometric_p, 2),
                    fmt(p.util_lo, 2) + "-" + fmt(p.util_hi, 2)});
  }
  params.print(out);
}

// Figure 1: one "aggregator" host's Millisampler trace at 1 ms, as the
// paper's four panels: (a) ingress throughput, (b) active flows, (c)
// ECN-marked rate, (d) retransmitted rate. Prints each panel's headline
// statistics, then the series downsampled for plotting.
void fig1_example_trace(Scale scale, const AuditOptions& audit, std::FILE* out) {
  FleetConfig cfg = fleet_config(workload::service_by_name("aggregator"), audit);
  cfg.trace_duration = at(PerScale<sim::Time>{500_ms, 2_s, 2_s}, scale);
  FleetExperiment exp{cfg};
  exp.set_keep_bins(true);
  const HostTraceResult trace = exp.run_host_trace(/*host=*/0, /*snapshot=*/0);

  const auto line_bytes_per_ms = static_cast<double>(cfg.nic_rate.bytes_in(1_ms));
  const auto util = [&](std::int64_t bytes) {
    return static_cast<double>(bytes) / line_bytes_per_ms;
  };

  double peak_util = 0;
  int peak_flows = 0;
  double peak_marked = 0;
  double peak_retx = 0;
  for (const auto& b : trace.bins) {
    peak_util = std::max(peak_util, util(b.bytes));
    peak_flows = std::max(peak_flows, b.active_flows);
    peak_marked = std::max(peak_marked, util(b.marked_bytes));
    peak_retx = std::max(peak_retx, util(b.retx_bytes));
  }

  const analysis::BurstDetector detector;
  const auto& bursts = trace.summary.bursts;
  std::int64_t burst_bytes = 0;
  std::int64_t total_bytes = 0;
  int incasts = 0;
  for (const auto& b : trace.bins) total_bytes += b.bytes;
  for (const auto& b : bursts) {
    burst_bytes += b.bytes;
    if (detector.is_incast(b)) ++incasts;
  }

  std::fprintf(out, "\nHeadline statistics (paper values in brackets):\n");
  Table t{{"panel", "metric", "measured", "paper"}};
  t.add_row({"(a)", "average link utilization", fmt(trace.avg_utilization * 100, 1) + "%",
             "10.6%"});
  t.add_row({"(a)", "peak 1ms utilization", fmt(peak_util * 100, 0) + "%", "~100%"});
  t.add_row({"(a)", "traffic inside bursts",
             fmt(100.0 * static_cast<double>(burst_bytes) /
                     static_cast<double>(std::max<std::int64_t>(total_bytes, 1)),
                 0) +
                 "%",
             "essentially all"});
  t.add_row({"(b)", "peak active flows (1ms)", std::to_string(peak_flows), "200+"});
  t.add_row({"(b)", "bursts that are incasts (>25 flows)",
             std::to_string(incasts) + "/" + std::to_string(bursts.size()), "majority"});
  t.add_row({"(c)", "peak ECN-marked rate", fmt(peak_marked * 100, 0) + "%",
             "~line rate when marked"});
  t.add_row({"(d)", "peak retransmission rate", fmt(peak_retx * 100, 1) + "%", "up to 24%"});
  t.print(out);

  // Max per 25 ms, which preserves the burst envelope.
  std::fprintf(out, "\nTime series (per-25ms peaks): t_ms util%% flows marked%% retx%%\n");
  const std::size_t window = 25;
  for (std::size_t start = 0; start < trace.bins.size(); start += window) {
    double u = 0, m = 0, r = 0;
    int f = 0;
    for (std::size_t i = start; i < std::min(start + window, trace.bins.size()); ++i) {
      const auto& b = trace.bins[i];
      u = std::max(u, util(b.bytes));
      m = std::max(m, util(b.marked_bytes));
      r = std::max(r, util(b.retx_bytes));
      f = std::max(f, b.active_flows);
    }
    std::fprintf(out, "%5zu %6.1f %5d %7.1f %6.2f\n", start, u * 100, f, m * 100, r * 100);
  }
}

// Figure 2: (a) bursts per second, one sample per trace; (b) burst
// duration and (c) active flows, one sample per burst; pooled over hosts
// and snapshots, as in the paper.
void fig2_burst_characteristics(Scale scale, const AuditOptions& audit, std::FILE* out) {
  const int hosts = at(kGridHosts, scale);
  const int snapshots = at(kGridSnapshots, scale);
  const sim::Time trace = at(kGridTrace, scale);
  std::fprintf(out, "hosts/service=%d snapshots=%d trace=%s\n", hosts, snapshots,
               trace.to_string().c_str());

  std::vector<std::string> labels;
  std::vector<analysis::Cdf> freq, dur, flows;
  double short_burst_fraction_total = 0.0;
  std::size_t total_bursts = 0;
  std::size_t incast_bursts = 0;
  const analysis::BurstDetector detector;
  for_each_service(audit, hosts, snapshots, trace,
                   [&](const FleetConfig& cfg, const auto& results) {
    analysis::Cdf f, d, n;
    for (const auto& result : results) {
      f.add(result.summary.bursts_per_second());
      for (const auto& b : result.summary.bursts) {
        d.add(static_cast<double>(b.num_bins));  // 1 bin = 1 ms
        n.add(static_cast<double>(b.max_active_flows));
        ++total_bursts;
        if (detector.is_incast(b)) ++incast_bursts;
      }
    }
    short_burst_fraction_total += d.fraction_below(2.0);
    labels.push_back(cfg.profile.name);
    freq.push_back(std::move(f));
    dur.push_back(std::move(d));
    flows.push_back(std::move(n));
  });

  std::fprintf(out, "\n");
  print_cdf_comparison("(a) Burst frequency (bursts/second; one sample per trace)", labels, freq,
                       kCdfPercentiles, out);
  std::fprintf(out, "\n");
  print_cdf_comparison("(b) Burst duration (ms; one sample per burst)", labels, dur,
                       kCdfPercentiles, out);
  std::fprintf(out, "\n");
  print_cdf_comparison("(c) Active flows during burst (one sample per burst)", labels, flows,
                       kCdfPercentiles, out);

  std::fprintf(out, "\nPaper cross-checks:\n");
  std::fprintf(out, "  bursts at 1-2 ms: %.0f%% (paper: ~60%%)\n",
               100.0 * short_burst_fraction_total / static_cast<double>(labels.size()));
  std::fprintf(out, "  bursts that are incasts (>25 flows): %.0f%% (paper: 'the majority')\n",
               100.0 * static_cast<double>(incast_bursts) /
                   static_cast<double>(std::max<std::size_t>(total_bursts, 1)));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::fprintf(out, "  %-10s p99 flows = %.0f (paper: up to 200-500)\n", labels[i].c_str(),
                 flows[i].percentile(99));
  }
  std::fprintf(out,
               "  low-flow cliff (<20 flows): storage %.0f%%, aggregator %.0f%% "
               "(paper: between 10%% and 45%%)\n",
               100.0 * flows[0].fraction_below(20.0), 100.0 * flows[1].fraction_below(20.0));
}

// Figure 3: (a) each service's mean flow count per snapshot over the
// paper's "18 hours" of periodic snapshots, each around its own operating
// point ("video" switches between ~225 and ~275 as its scheduler changes
// worker pools); (b) per-host mean and p99 flow counts for "aggregator".
void fig3_stability(Scale scale, const AuditOptions& audit, std::FILE* out) {
  const int snapshots = at(PerScale<int>{4, 12, 108}, scale);  // paper: 18 h / 10 min
  const int hosts_a = at(PerScale<int>{1, 2, 20}, scale);
  const int hosts_b = at(PerScale<int>{4, 8, 20}, scale);
  const sim::Time trace = at(PerScale<sim::Time>{200_ms, 500_ms, 2_s}, scale);

  std::fprintf(out, "\n(a) Average flow count per snapshot (columns: services)\n");
  std::fprintf(out, "    snapshots=%d, hosts/snapshot=%d, trace=%s\n", snapshots, hosts_a,
               trace.to_string().c_str());

  std::vector<std::string> labels;
  std::vector<std::vector<double>> means;  // [service][snapshot]
  for_each_service(audit, hosts_a, snapshots, trace,
                   [&](const FleetConfig& cfg, const auto& results) {
    std::vector<double> service_means;
    for (int s = 0; s < snapshots; ++s) {
      analysis::Cdf counts;
      for (int h = 0; h < hosts_a; ++h) {
        for (const auto& b : results[static_cast<std::size_t>(s * hosts_a + h)].summary.bursts) {
          counts.add(static_cast<double>(b.max_active_flows));
        }
      }
      service_means.push_back(counts.mean());
    }
    labels.push_back(cfg.profile.name);
    means.push_back(std::move(service_means));
  });

  std::vector<std::string> headers{"snapshot"};
  headers.insert(headers.end(), labels.begin(), labels.end());
  Table series{std::move(headers)};
  for (int s = 0; s < snapshots; ++s) {
    std::vector<std::string> row{std::to_string(s)};
    for (const auto& m : means) row.push_back(fmt(m[static_cast<std::size_t>(s)], 0));
    series.add_row(std::move(row));
  }
  series.print(out);

  std::fprintf(out,
               "\nStability (coefficient of variation of per-snapshot means; "
               "small = stable operating point):\n");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::fprintf(out, "  %-10s CoV = %.3f%s\n", labels[i].c_str(),
                 analysis::coefficient_of_variation(means[i]),
                 labels[i] == "video" ? "  (regime switching ~225 <-> ~275 expected)" : "");
  }

  std::fprintf(out,
               "\n(b) Per-host flow counts for 'aggregator' (%d hosts pooled over %d "
               "snapshots)\n",
               hosts_b, snapshots);
  FleetConfig cfg = fleet_config(workload::service_by_name("aggregator"), audit);
  cfg.num_hosts = hosts_b;
  cfg.num_snapshots = snapshots;
  cfg.trace_duration = trace;
  std::vector<analysis::FlowCountGroup> groups(static_cast<std::size_t>(hosts_b));
  for (int h = 0; h < hosts_b; ++h) {
    groups[static_cast<std::size_t>(h)].index = static_cast<std::size_t>(h);
  }
  for (const auto& r : FleetExperiment{cfg}.run_all()) {
    for (const auto& b : r.summary.bursts) {
      groups[static_cast<std::size_t>(r.host)].flow_counts.add(
          static_cast<double>(b.max_active_flows));
    }
  }
  const auto report = analysis::analyze_stability(groups);

  Table hosts_table{{"host", "bursts", "mean flows", "p99 flows"}};
  for (const auto& g : report.groups) {
    hosts_table.add_row({std::to_string(g.index), std::to_string(g.bursts), fmt(g.mean, 0),
                         fmt(g.p99, 0)});
  }
  hosts_table.print(out);
  std::fprintf(out,
               "cross-host spread: mean %.1f%%, p99 %.1f%% of the grand mean "
               "(paper: 'similar average and p99 flow counts')\n",
               report.mean_relative_spread * 100.0, report.p99_relative_spread * 100.0);
}

// Figure 4: (a) peak ToR queue per burst as a share of capacity, from
// production-style coarse watermarks (the paper's switches report a
// per-minute high watermark; the window here is scaled to the trace
// length); (b) ECN-marked share of each burst's bytes; (c) retransmitted
// share of each burst's bytes.
void fig4_network_effects(Scale scale, const AuditOptions& audit, std::FILE* out) {
  const int hosts = at(kGridHosts, scale);
  const int snapshots = at(kGridSnapshots, scale);
  const sim::Time trace = at(kGridTrace, scale);
  const std::size_t watermark_window_ms = at(PerScale<std::size_t>{50, 100, 1000}, scale);
  std::fprintf(out, "hosts/service=%d snapshots=%d trace=%s watermark-window=%zums\n", hosts,
               snapshots, trace.to_string().c_str(), watermark_window_ms);

  std::vector<std::string> labels;
  std::vector<analysis::Cdf> queue, marked, retx;
  for_each_service(audit, hosts, snapshots, trace,
                   [&](const FleetConfig& cfg, const auto& results) {
    analysis::Cdf q, m, r;
    for (const auto& result : results) {
      // Each burst reports the watermark of the coarse window holding it.
      const auto& wm = result.queue_watermarks;
      std::vector<std::int64_t> coarse((wm.size() + watermark_window_ms - 1) / watermark_window_ms,
                                       0);
      for (std::size_t i = 0; i < wm.size(); ++i) {
        auto& slot = coarse[i / watermark_window_ms];
        slot = std::max(slot, wm[i]);
      }
      for (const auto& b : result.summary.bursts) {
        if (!coarse.empty()) {
          const std::size_t w = std::min(b.first_bin / watermark_window_ms, coarse.size() - 1);
          q.add(100.0 * static_cast<double>(coarse[w]) /
                static_cast<double>(cfg.queue_capacity_packets));
        }
        m.add(100.0 * b.marked_fraction());
        r.add(100.0 * b.retx_fraction());
      }
    }
    labels.push_back(cfg.profile.name);
    queue.push_back(std::move(q));
    marked.push_back(std::move(m));
    retx.push_back(std::move(r));
  });

  std::fprintf(out, "\n");
  print_cdf_comparison("(a) Peak queue occupancy per burst (% of capacity)", labels, queue,
                       kCdfPercentiles, out);
  std::fprintf(out, "\n");
  print_cdf_comparison("(b) ECN-marked fraction of burst bytes (%)", labels, marked,
                       {50, 75, 90, 95, 99, 100}, out);
  std::fprintf(out, "\n");
  print_cdf_comparison("(c) Retransmitted fraction of burst bytes (%)", labels, retx,
                       {95, 99, 99.9, 100}, out);

  std::fprintf(out, "\nPaper cross-checks:\n");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::fprintf(out,
                 "  %-10s unmarked bursts: %2.0f%% (paper: ~50%%)   p90 marked: %3.0f%%   "
                 "retx-free bursts: %2.0f%% (paper: ~95%%)   worst retx: %.1f%%\n",
                 labels[i].c_str(), 100.0 * marked[i].fraction_below(0.5),
                 marked[i].percentile(90), 100.0 * retx[i].fraction_below(0.01), retx[i].max());
  }
}

// Ablation A9: the same "aggregator" traces under each rack-contention
// model: none, the modeled Markov on/off process, a real neighbor.
void ablation_contention(Scale scale, const AuditOptions& audit, std::FILE* out) {
  using Mode = FleetConfig::ContentionMode;
  const struct {
    Mode mode;
    const char* name;
  } modes[] = {{Mode::kNone, "none"}, {Mode::kModeled, "modeled"}, {Mode::kNeighbor, "neighbor"}};

  Table t{{"contention", "bursts", "drops", "retx-free bursts", "p99 retx%", "worst retx%",
           "unmarked bursts"}};
  for (const auto& m : modes) {
    FleetConfig cfg = fleet_config(workload::service_by_name("aggregator"), audit);
    cfg.num_hosts = at(PerScale<int>{1, 3, 8}, scale);
    cfg.num_snapshots = 1;
    cfg.trace_duration = at(kGridTrace, scale);
    cfg.contention_mode = m.mode;

    analysis::Cdf retx, marked;
    std::int64_t drops = 0;
    for (const auto& r : FleetExperiment{cfg}.run_all()) {
      drops += r.queue_drops;
      for (const auto& b : r.summary.bursts) {
        retx.add(b.retx_fraction() * 100.0);
        marked.add(b.marked_fraction() * 100.0);
      }
    }
    t.add_row({m.name, std::to_string(retx.count()), std::to_string(drops),
               fmt(100.0 * retx.fraction_below(0.01), 0) + "%", fmt(retx.percentile(99), 2),
               fmt(retx.max(), 1), fmt(100.0 * marked.fraction_below(0.5), 0) + "%"});
  }
  t.print(out);
}

// ---- Fabric and hand-wired simulators ----------------------------------------

// Figure 8 (extension): the same cyclic incast across a two-tier Clos
// fabric, with the burst's peak 1 ms utilization at the receiver NIC
// (host), every leaf's uplinks (leaf) and the spine ports toward the
// receiver's leaf. Expected: ~100% at the host NIC, a fraction of that at
// the spine tier (the burst converges only at the last hop) and less still
// per leaf uplink (ECMP spreads the senders), so counters at any
// aggregation tier under-observe the burst: the case for host-side
// millisecond sampling.
void fig8_fabric_vantage(Scale scale, const AuditOptions& audit, std::FILE* out) {
  const int flows = at(PerScale<int>{48, 96, 400}, scale);
  FabricIncastExperimentConfig cfg;
  cfg.num_flows = flows;
  cfg.placement = FabricIncastExperimentConfig::Placement::kCrossRack;
  cfg.fabric.num_pods = 2;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = std::max(8, (flows + 2) / 3);
  cfg.fabric.num_spines = 2;
  cfg.num_bursts = at(PerScale<int>{2, 4, 8}, scale);
  cfg.discard_bursts = 1;
  cfg.burst_duration = 10_ms;
  static_cast<AuditOptions&>(cfg) = audit;
  std::fprintf(out, "flows=%d bursts=%d fabric=2x2 leaves x %d hosts, 2 spines\n\n", flows,
               cfg.num_bursts, cfg.fabric.hosts_per_leaf);

  const auto r = run_fabric_incast_experiment(cfg);

  // Per tier: the max is what the best-placed counter could have seen, the
  // mean what a randomly sampled port sees.
  struct TierStats {
    std::string tier;
    int vantages{0};
    double max_peak{0.0};
    double sum_peak{0.0};
  };
  std::vector<TierStats> tiers;
  for (const auto& v : r.vantages) {
    auto it = std::find_if(tiers.begin(), tiers.end(),
                           [&](const TierStats& t) { return t.tier == v.tier; });
    if (it == tiers.end()) {
      tiers.push_back(TierStats{v.tier, 0, 0.0, 0.0});
      it = tiers.end() - 1;
    }
    const double peak = v.peak_utilization();
    ++it->vantages;
    it->max_peak = std::max(it->max_peak, peak);
    it->sum_peak += peak;
  }

  Table t{{"tier", "vantages", "peak 1ms util (best port)", "peak 1ms util (mean port)"}};
  for (const auto& tier : tiers) {
    t.add_row({tier.tier, std::to_string(tier.vantages), fmt(tier.max_peak * 100, 1) + " %",
               fmt(tier.sum_peak / tier.vantages * 100, 1) + " %"});
  }
  t.print(out);

  std::fprintf(out, "\nburst: avg BCT %.2f ms, peak queue %.0f pkts, mode %s\n", r.avg_bct_ms,
               r.peak_queue_packets, to_string(r.mode));
  const double host_peak = tiers.empty() ? 0.0 : tiers.front().max_peak;
  for (const auto& tier : tiers) {
    if (tier.tier != "host" && tier.max_peak > 0.0) {
      std::fprintf(out, "visibility ratio host/%s: %.1fx\n", tier.tier.c_str(),
                   host_peak / tier.max_peak);
    }
  }
}

namespace {

struct LossOutcome {
  std::int64_t drops{0};
  std::int64_t timeouts{0};
  double avg_bct_ms{0.0};
};

// Ablation A3's incast against a dedicated queue, a shared pool sized to
// one queue, or that pool under rack contention. Drops and timeouts leave
// out burst 0 (slow start), as every Section 4 statistic does.
LossOutcome shared_buffer_run(int flows, bool shared, bool contended, int bursts,
                              const AuditOptions& audit) {
  sim::Simulator sim;
  RunHarness harness{sim, nullptr, audit};
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = flows;
  if (shared) {
    // Pool sized to one full queue: contention directly eats capacity.
    topo_cfg.shared_buffer =
        net::SharedBufferPool::Config{.total_bytes = 1333 * 1500, .alpha = 1.0};
  }
  net::Dumbbell topo{sim, topo_cfg};

  const tcp::TcpConfig dctcp{};
  workload::CyclicIncastDriver::Config driver_cfg;
  driver_cfg.num_flows = flows;
  driver_cfg.num_bursts = bursts;
  driver_cfg.burst_duration = 15_ms;
  workload::CyclicIncastDriver driver{sim, topo, dctcp, driver_cfg, 29};

  std::unique_ptr<workload::RackContention> contention;
  if (shared && contended) {
    workload::RackContention::Config rc_cfg;
    rc_cfg.mean_on = 10_ms;
    rc_cfg.mean_off = 20_ms;
    contention = std::make_unique<workload::RackContention>(
        sim, *topo.receiver_tor().shared_buffer(), rc_cfg, 31);
    contention->start(10_s);
  }

  std::int64_t drops0 = 0;
  std::int64_t timeouts0 = 0;
  const auto senders = driver.senders();
  driver.set_on_burst_complete([&](int index) {
    if (index != 0) return;
    drops0 = topo.bottleneck_queue().stats().dropped_packets;
    for (const auto* s : senders) timeouts0 += s->stats().timeouts;
  });
  driver.start();
  sim.run_until(10_s);
  (void)harness.teardown(topo, topo.switches());

  LossOutcome out;
  out.drops = topo.bottleneck_queue().stats().dropped_packets - drops0;
  for (const auto* s : senders) out.timeouts += s->stats().timeouts;
  out.timeouts -= timeouts0;
  out.avg_bct_ms = burst_completion(driver.bursts(), 1).avg_ms;
  return out;
}

struct SteadyOutcome {
  double avg_queue{0.0};
  std::int64_t drops{0};
  double goodput_gbps{0.0};
};

// Sustained incast: every flow has unbounded demand from a random start in
// the first 10 ms. The second half of `duration` is measured
// (post-convergence), the bottleneck queue sampled `samples` times in it.
SteadyOutcome run_steady(tcp::CcAlgorithm algo, int flows, sim::Time duration, int samples,
                         const AuditOptions& audit) {
  sim::Simulator sim;
  RunHarness harness{sim, nullptr, audit};
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = flows;
  net::Dumbbell topo{sim, topo_cfg};
  const tcp::TcpConfig cfg = tcp_config(algo);

  std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
  sim::Rng rng{7};
  for (int i = 0; i < flows; ++i) {
    conns.push_back(std::make_unique<tcp::TcpConnection>(
        sim, topo.sender(i), topo.receiver(0), static_cast<net::FlowId>(i + 1), cfg));
    tcp::TcpSender* s = &conns.back()->sender();
    sim.schedule_in(rng.uniform_time(sim::Time::zero(), 10_ms),
                    [s] { s->add_app_data(1'000'000'000); });
  }

  const sim::Time half = duration / 2.0;
  sim.run_until(half);
  const std::int64_t drops0 = topo.bottleneck_queue().stats().dropped_packets;
  std::int64_t rcv0 = 0;
  for (const auto& c : conns) rcv0 += c->receiver().rcv_nxt();

  std::vector<std::int64_t> depths;
  for (int i = 0; i < samples; ++i) {
    sim.schedule_at(half + (duration - half) * (static_cast<double>(i) / samples),
                    [&] { depths.push_back(topo.bottleneck_queue().packets()); });
  }
  sim.run_until(duration);
  (void)harness.teardown(topo, topo.switches());

  SteadyOutcome out;
  out.drops = topo.bottleneck_queue().stats().dropped_packets - drops0;
  for (const auto d : depths) out.avg_queue += static_cast<double>(d);
  out.avg_queue /= static_cast<double>(depths.size());
  std::int64_t rcv1 = 0;
  for (const auto& c : conns) rcv1 += c->receiver().rcv_nxt();
  out.goodput_gbps = static_cast<double>(rcv1 - rcv0) * 8.0 / (duration - half).sec() / 1e9;
  return out;
}

// The sustained `what` table of DCTCP against `other` at each flow count.
void steady_table(const char* what, tcp::CcAlgorithm other, const std::vector<int>& flow_counts,
                  sim::Time duration, int samples, const AuditOptions& audit, std::FILE* out) {
  std::fprintf(out, "\n(a) Sustained %s (%s, second half measured)\n", what,
               duration.to_string().c_str());
  Table steady{{"flows", "cca", "avg queue (pkts)", "drops", "goodput (Gbps)"}};
  for (const int flows : flow_counts) {
    for (const auto algo : {tcp::CcAlgorithm::kDctcp, other}) {
      const auto o = run_steady(algo, flows, duration, samples, audit);
      steady.add_row({std::to_string(flows), tcp::to_string(algo), fmt(o.avg_queue, 0),
                      std::to_string(o.drops), fmt(o.goodput_gbps, 2)});
    }
  }
  steady.print(out);
}

// Extension E2's incast, all at once or staged (driver_cfg.group_size).
// Drops and timeouts count every burst.
LossOutcome staged_run(const workload::CyclicIncastDriver::Config& driver_cfg,
                       const AuditOptions& audit) {
  sim::Simulator sim;
  RunHarness harness{sim, nullptr, audit};
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = driver_cfg.num_flows;
  net::Dumbbell topo{sim, topo_cfg};
  const tcp::TcpConfig dctcp{};
  workload::CyclicIncastDriver driver{sim, topo, dctcp, driver_cfg, 31};
  const auto senders = driver.senders();
  driver.start();
  sim.run_until(sim::Time::seconds(120));
  (void)harness.teardown(topo, topo.switches());

  LossOutcome out;
  out.drops = topo.bottleneck_queue().stats().dropped_packets;
  for (const auto* s : senders) out.timeouts += s->stats().timeouts;
  out.avg_bct_ms = burst_completion(driver.bursts(), 1).avg_ms;
  return out;
}

struct CreditOutcome {
  double avg_bct_ms{0.0};
  std::int64_t drops{0};
  std::int64_t control_packets{0};  // RTS + grants
  double overhead_pct{0.0};         // control bytes / data bytes
};

// Extension E4's incast on the rdt credit transport, behind byte-buffered
// queues (2 MB, the paper's per-port memory).
CreditOutcome credit_run(int flows, int bursts, const AuditOptions& audit) {
  sim::Simulator sim;
  RunHarness harness{sim, nullptr, audit};
  net::DumbbellConfig topo_cfg;
  topo_cfg.num_senders = flows;
  topo_cfg.switch_queue.capacity_packets = 1'000'000;
  topo_cfg.switch_queue.capacity_bytes = 2'000'000;
  topo_cfg.switch_queue.ecn_threshold_packets = 0;
  net::Dumbbell topo{sim, topo_cfg};

  workload::CyclicIncastDriver::Config cfg;
  cfg.num_flows = flows;
  cfg.num_bursts = bursts;
  cfg.burst_duration = 15_ms;
  workload::CyclicIncastDriver driver{sim, topo, workload::CyclicIncastDriver::CreditFlows{},
                                      cfg, 7};
  driver.start();
  sim.run_until(sim::Time::seconds(120));
  (void)harness.teardown(topo, topo.switches());

  CreditOutcome out;
  out.avg_bct_ms = burst_completion(driver.bursts(), 1).avg_ms;
  out.drops = topo.bottleneck_queue().stats().dropped_packets;
  const rdt::CreditReceiver& receiver = driver.credit_receiver();
  out.control_packets = receiver.grants_sent();
  for (const rdt::CreditSender* s : driver.credit_senders()) out.control_packets += s->rts_sent();
  const auto data_bytes = static_cast<double>(receiver.total_received_bytes());
  out.overhead_pct =
      100.0 * static_cast<double>(out.control_packets) * net::kHeaderBytes / data_bytes;
  return out;
}

}  // namespace

// Ablation A3: the same incast against a dedicated queue, a shared pool
// with no competing traffic, and a shared pool under rack contention.
void ablation_shared_buffer(Scale scale, const AuditOptions& audit, std::FILE* out) {
  const int bursts = at(PerScale<int>{3, 6, 11}, scale);
  Table t{{"flows", "buffer", "drops", "timeouts", "avg BCT ms"}};
  const auto add = [&](int flows, const char* buffer, const LossOutcome& o) {
    t.add_row({std::to_string(flows), buffer, std::to_string(o.drops),
               std::to_string(o.timeouts), fmt(o.avg_bct_ms, 1)});
  };
  for (const int flows : {300, 500, 800}) {
    add(flows, "dedicated 1333 pkts", shared_buffer_run(flows, false, false, bursts, audit));
    add(flows, "shared pool (idle rack)", shared_buffer_run(flows, true, false, bursts, audit));
    add(flows, "shared pool + contention", shared_buffer_run(flows, true, true, bursts, audit));
  }
  t.print(out);
}

// Ablation A8, part 1: one flow behind a shallow 1 Gbps queue, so the tail
// of its window is dropped, recovered by RTO alone or by a tail loss probe.
// Part 2, the Mode 3 incast, is the sweep row ablation_tlp_mode3.
void ablation_tlp(Scale, const AuditOptions& audit, std::FILE* out) {
  std::fprintf(out, "\n(1) Isolated tail loss (1 flow, shallow queue, 200 ms min RTO)\n");
  Table t{{"recovery", "timeouts", "TLP probes", "transfer time (ms)"}};
  for (const bool tlp : {false, true}) {
    sim::Simulator sim;
    RunHarness harness{sim, nullptr, audit};
    net::DumbbellConfig topo_cfg;
    topo_cfg.num_senders = 1;
    topo_cfg.switch_queue.capacity_packets = 6;
    topo_cfg.switch_queue.ecn_threshold_packets = 0;
    topo_cfg.receiver_link = sim::Bandwidth::gigabits_per_second(1);
    net::Dumbbell topo{sim, topo_cfg};
    tcp::TcpConfig cfg;
    cfg.cc = tcp::CcAlgorithm::kReno;
    cfg.tail_loss_probe = tlp;
    cfg.min_pto = 1_ms;
    cfg.rtt.min_rto = 200_ms;
    cfg.rtt.initial_rto = 200_ms;
    tcp::TcpConnection conn{sim, topo.sender(0), topo.receiver(0), 1, cfg};
    conn.sender().add_app_data(500'000);
    sim::Time done;
    conn.sender().set_on_all_acked([&] { done = sim.now(); });
    sim.run_until(30_s);
    (void)harness.teardown(topo, topo.switches());
    t.add_row({tlp ? "TLP + SACK" : "RTO only", std::to_string(conn.sender().stats().timeouts),
               std::to_string(conn.sender().stats().tlp_probes), fmt(done.ms(), 1)});
  }
  t.print(out);
}

// Extension E1, part (a): sustained incast, Swift against DCTCP. Part (b),
// millisecond bursts, is the sweep row extension_swift_bursts.
void extension_swift(Scale scale, const AuditOptions& audit, std::FILE* out) {
  steady_table("incast", tcp::CcAlgorithm::kSwift,
               at(PerScale<std::vector<int>>{{{500}, {500, 2000}, {500, 2000, 5000}}}, scale),
               at(PerScale<sim::Time>{400_ms, 1_s, 2_s}, scale), 200, audit, out);
}

// Extension E3, part (a): sustained traffic, HPCC against DCTCP. Part (b),
// the cyclic bursts, is the sweep row extension_hpcc_bursts.
void extension_hpcc(Scale scale, const AuditOptions& audit, std::FILE* out) {
  steady_table("traffic", tcp::CcAlgorithm::kHpcc, {1, 50, 500},
               at(PerScale<sim::Time>{300_ms, 600_ms, 2_s}, scale), 100, audit, out);
}

// Extension E2: at most G = 60 flows active at once (a sliding window, as a
// receiver-driven puller would admit them) against all at once. Demand and
// bottleneck are the same, so the ideal completion time is too.
void extension_staged(Scale scale, const AuditOptions& audit, std::FILE* out) {
  const int bursts = at(PerScale<int>{2, 3, 11}, scale);
  Table t{{"flows", "schedule", "drops (all bursts)", "timeouts", "avg BCT ms",
           "vs ideal 15 ms"}};
  const auto add = [&](int flows, const char* schedule, const LossOutcome& o) {
    t.add_row({std::to_string(flows), schedule, std::to_string(o.drops),
               std::to_string(o.timeouts), fmt(o.avg_bct_ms, 1),
               fmt(o.avg_bct_ms / 15.0, 1) + "x"});
  };
  for (const int flows : {500, 1500, 3000}) {
    workload::CyclicIncastDriver::Config all;
    all.num_flows = flows;
    all.num_bursts = bursts;
    all.burst_duration = 15_ms;
    add(flows, "all-at-once", staged_run(all, audit));

    workload::CyclicIncastDriver::Config staged = all;
    staged.group_size = 60;  // below the degenerate point: 60 < K + BDP = 90
    staged.start_jitter_max = 10_us;
    add(flows, "staged (G=60)", staged_run(staged, audit));
  }
  t.print(out);
}

// Extension E4: the receiver-driven credit transport against DCTCP on the
// paper's 15 ms bursts.
void extension_credit(Scale scale, const AuditOptions& audit, std::FILE* out) {
  const int bursts = at(PerScale<int>{2, 3, 11}, scale);
  Table t{{"flows", "transport", "avg BCT ms", "drops", "timeouts", "control pkts",
           "signal overhead"}};
  for (const int flows : {500, 1500, 5000}) {
    IncastExperimentConfig cfg;
    cfg.num_flows = flows;
    cfg.num_bursts = bursts;
    cfg.max_sim_time = sim::Time::seconds(120);
    cfg.seed = 7;
    static_cast<AuditOptions&>(cfg) = audit;
    const auto dctcp = run_incast_experiment(cfg);
    const CreditOutcome rdt = credit_run(flows, bursts, audit);
    t.add_row({std::to_string(flows), "DCTCP", fmt(dctcp.avg_bct_ms, 1),
               std::to_string(dctcp.queue_drops), std::to_string(dctcp.timeouts), "-", "-"});
    t.add_row({std::to_string(flows), "credit (rdt)", fmt(rdt.avg_bct_ms, 1),
               std::to_string(rdt.drops), "-", std::to_string(rdt.control_packets),
               fmt(rdt.overhead_pct, 1) + "%"});
  }
  t.print(out);
}

}  // namespace incast::core::rows
