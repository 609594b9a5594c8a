#include "core/catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "core/catalog_bodies.h"
#include "core/error.h"
#include "core/predictor.h"
#include "core/report.h"
#include "core/resilience_experiment.h"
#include "sim/random.h"

namespace incast::core {

const char* scale_name(Scale scale) noexcept {
  static constexpr const char* kNames[] = {"quick", "default", "full"};
  return kNames[static_cast<std::size_t>(scale)];
}

Scale scale_from_env() {
  const char* env = std::getenv("INCAST_BENCH_SCALE");
  if (env == nullptr) return Scale::kDefault;
  for (const Scale s : {Scale::kQuick, Scale::kDefault, Scale::kFull}) {
    if (std::string_view{env} == scale_name(s)) return s;
  }
  throw Error{ErrorCategory::kConfig, "INCAST_BENCH_SCALE='" + std::string{env} +
                                          "': expected quick, default or full"};
}

InflightSkew inflight_skew(const IncastExperimentResult& result, int num_flows) {
  InflightSkew skew;
  double sum = 0.0;
  int samples = 0;
  for (const auto& s : result.inflight) {
    if (s.active_flows < num_flows / 2 || s.p50_bytes <= 0) continue;
    const double ratio = static_cast<double>(s.max_bytes) / static_cast<double>(s.p50_bytes);
    skew.worst = std::max(skew.worst, ratio);
    sum += ratio;
    ++samples;
  }
  if (samples > 0) skew.mean = sum / samples;
  return skew;
}

namespace {

using namespace incast::sim::literals;
using Config = IncastExperimentConfig;
using Result = IncastExperimentResult;

// The shared column table: every column any row prints.
struct Column {
  const char* name;
  std::string (*format)(const Config&, const Result&);
};

const Column kColumns[] = {
    {"mode",
     [](const Config&, const Result& r) { return std::string{to_string(classify_mode(r))}; }},
    {"avg queue", [](const Config&, const Result& r) { return fmt(r.avg_queue_packets, 1); }},
    {"peak queue", [](const Config&, const Result& r) { return fmt(r.peak_queue_packets, 0); }},
    {"time>K %",
     [](const Config& c, const Result& r) {
       // Share of the mean per-offset queue samples above the marking threshold.
       const auto k = static_cast<double>(c.topology.switch_queue.ecn_threshold_packets);
       const auto& q = r.mean_queue_by_offset;
       const auto above = std::count_if(q.begin(), q.end(), [k](double v) { return v > k; });
       return fmt(q.empty() ? 0.0 : 100.0 * static_cast<double>(above) / q.size(), 0);
     }},
    {"marked%", [](const Config&, const Result& r) { return fmt(r.marked_fraction() * 100, 0); }},
    {"drops", [](const Config&, const Result& r) { return std::to_string(r.queue_drops); }},
    {"timeouts", [](const Config&, const Result& r) { return std::to_string(r.timeouts); }},
    {"retx pkts",
     [](const Config&, const Result& r) { return std::to_string(r.retransmitted_packets); }},
    {"avg BCT ms", [](const Config&, const Result& r) { return fmt(r.avg_bct_ms, 2); }},
    // The same mean to 0.1 ms, as the A8, E1 and E3 burst rows print it.
    {"BCT ms", [](const Config&, const Result& r) { return fmt(r.avg_bct_ms, 1); }},
    {"max BCT ms", [](const Config&, const Result& r) { return fmt(r.max_bct_ms, 1); }},
    {"cap (MSS)",
     [](const Config& c, const Result&) {
       const auto& cap = c.tcp.cwnd_cap_bytes;
       return cap ? fmt(static_cast<double>(*cap) / c.tcp.mss_bytes, 1) : std::string{"-"};
     }},
    {"mean cwnd (MSS)",
     [](const Config&, const Result& r) { return fmt(r.end_of_burst_cwnd_mean_mss, 1); }},
    {"straggler cwnd (MSS)",
     [](const Config&, const Result& r) { return fmt(r.end_of_burst_cwnd_max_mss, 1); }},
    {"skew mean",
     [](const Config& c, const Result& r) {
       return fmt(inflight_skew(r, c.num_flows).mean, 1) + "x";
     }},
    {"skew worst",
     [](const Config& c, const Result& r) {
       return fmt(inflight_skew(r, c.num_flows).worst, 1) + "x";
     }},
};

const Column& column(const std::string& name) {
  for (const Column& c : kColumns) {
    if (name == c.name) return c;
  }
  throw std::logic_error{"catalog: no column '" + name + "'"};
}

// Queue length vs time since burst start, averaged over the measured
// bursts (the Figure 5 and 6 series), one line per `every`.
void print_queue_by_offset(const Result& r, sim::Time every, std::FILE* out) {
  const auto stride = static_cast<std::size_t>(every.ns() / r.queue_offset_step.ns());
  std::fprintf(out, "  t_ms  queue_pkts (mean over measured bursts)\n");
  for (std::size_t i = 0; i < r.mean_queue_by_offset.size(); i += stride) {
    std::fprintf(out, "  %6.2f %7.1f\n", static_cast<double>(i) * r.queue_offset_step.ms(),
                 r.mean_queue_by_offset[i]);
  }
}

// In-flight bytes across active flows every 0.5 ms (Figure 7).
void print_inflight(const Config& c, const Result& r, std::FILE* out) {
  const auto stride =
      static_cast<std::size_t>(sim::Time::microseconds(500).ns() / c.inflight_sample_every.ns());
  std::fprintf(out, "  t_ms   active   p50    mean    p95    p100   (in-flight KB)\n");
  for (std::size_t i = 0; i < r.inflight.size(); i += stride) {
    const auto& s = r.inflight[i];
    if (s.active_flows == 0) continue;
    std::fprintf(out, "  %6.1f %6d %7.2f %7.2f %7.2f %7.2f\n", s.at.ms(), s.active_flows,
                 static_cast<double>(s.p50_bytes) / 1e3, static_cast<double>(s.mean_bytes) / 1e3,
                 static_cast<double>(s.p95_bytes) / 1e3, static_cast<double>(s.max_bytes) / 1e3);
  }
}

// Completion time of every measured burst (ablation A10).
void print_burst_bcts(const Config& c, const Result& r, std::FILE* out) {
  std::fprintf(out, "  burst#  BCT ms\n");
  for (const auto& b : r.bursts) {
    if (b.index < c.discard_bursts) continue;
    std::fprintf(out, "  %6d %7.1f\n", b.index, b.completion_time().ms());
  }
}

void print_banner(const CatalogRow& row, Scale scale, std::FILE* out) {
  print_header(row.id, row.title, out);
  std::fprintf(out, "[scale: %s; set INCAST_BENCH_SCALE=quick|default|full]\n",
               scale_name(scale));
}

void print_expectation(const CatalogRow& row, std::FILE* out) {
  if (!row.expectation.empty()) std::fprintf(out, "\nExpectation: %s\n", row.expectation.c_str());
}

// One point per value: `label(v)` names it, `edit(config, v)` applies it.
template <typename T, typename Label, typename Edit>
std::vector<CatalogPoint> sweep(std::vector<T> values, Label label, Edit edit) {
  std::vector<CatalogPoint> points;
  for (const T& v : values) {
    points.push_back({label(v), [edit, v](Config& c) { edit(c, v); }});
  }
  return points;
}

std::string flows_label(int n) { return std::to_string(n); }
void set_flows(Config& c, int n) { c.num_flows = n; }

// Every flow count crossed with every variant, flows-major; a variant's
// edit runs after num_flows is set.
std::vector<CatalogPoint> flows_by(std::vector<int> flows,
                                   const std::vector<CatalogPoint>& variants) {
  std::vector<CatalogPoint> points;
  for (const int n : flows) {
    for (const CatalogPoint& v : variants) {
      points.push_back({flows_label(n) + " / " + v.label, [n, apply = v.apply](Config& c) {
                          set_flows(c, n);
                          apply(c);
                        }});
    }
  }
  return points;
}

// One point per Section 5 transport, each with its rows::tcp_config.
std::vector<CatalogPoint> cca_points(std::vector<tcp::CcAlgorithm> algos) {
  return sweep(
      std::move(algos), [](tcp::CcAlgorithm a) { return std::string{tcp::to_string(a)}; },
      [](Config& c, tcp::CcAlgorithm a) { c.tcp = rows::tcp_config(a); });
}

// The Section 5.1 guardrail: a FlowCountPredictor learns a history drawn
// around the true flow count, as a host would from past bursts of its
// service, and the cap fits the p99 forecast into BDP + K.
std::int64_t guardrail_cap_bytes(int flows) {
  constexpr std::int64_t kBdp = 37'500;     // 10 Gbps x 30 us
  constexpr std::int64_t kEcn = 65 * 1500;  // marking threshold in bytes
  constexpr std::int64_t kMss = 1460;
  sim::Rng rng{static_cast<std::uint64_t>(flows)};
  FlowCountPredictor predictor;
  for (int i = 0; i < 300; ++i) {
    predictor.observe(static_cast<int>(rng.lognormal(std::log(static_cast<double>(flows)), 0.2)));
  }
  return suggest_cwnd_cap_bytes(predictor.predict_p99(), kBdp, kEcn, kMss);
}

}  // namespace

const std::vector<CatalogRow>& catalog() {
  static const std::vector<CatalogRow> all = {
      {.id = "table1_services",
       .title = "Table 1: five example services, with each one's generative model parameters",
       .body = rows::table1_services},

      {.id = "fig1_example_trace",
       .title = "Figure 1: incast bursts at one 'aggregator' receiver (1 ms bins)",
       .body = rows::fig1_example_trace},

      {.id = "fig2_burst_characteristics",
       .title = "Figure 2: incast burst characteristics across five services",
       .body = rows::fig2_burst_characteristics},

      {.id = "fig3_stability",
       .title = "Figure 3: flow-count stability over time and across hosts",
       .body = rows::fig3_stability},

      {.id = "fig4_network_effects",
       .title = "Figure 4: negative effects of incast bursts on the network",
       .body = rows::fig4_network_effects},

      {.id = "fig5_dctcp_modes",
       .title = "Figure 5: DCTCP operating modes, ToR queue length (capacity = 1333 pkts)",
       .bursts = {4, 11, 11},
       .base = [](Config& c) { c.queue_sample_every = 20_us; c.seed = 11; },
       .axis = "flows",
       .points = sweep(std::vector{60, 100, 500, 1500}, flows_label, set_flows),
       .columns = {"mode", "avg queue", "peak queue", "marked%", "drops", "timeouts",
                   "avg BCT ms", "max BCT ms"},
       .series = [](const Config&, const Result& r,
                    std::FILE* out) { print_queue_by_offset(r, 250_us, out); },
       .expectation =
           "Mode 1 (60 flows; 100 sits near the degenerate point here) oscillates\n"
           "around K=65 with near-optimal BCT (~15 ms). Mode 2 (500 flows) holds a\n"
           "standing queue of ~(flows - 25) = 475 packets, ~0.5 ms of added delay.\n"
           "Mode 3 (1500 flows; the paper's 1000, see EXPERIMENTS.md) overflows the\n"
           "queue, recovers only via ~200 ms RTOs and stretches BCT by >10x."},

      {.id = "fig6_short_bursts",
       .title = "Figure 6: queue behavior during 2 ms incast bursts",
       .bursts = {4, 11, 11},
       .base = [](Config& c) { c.burst_duration = 2_ms; c.seed = 13; },
       .axis = "flows",
       .points = sweep(std::vector{100, 200, 500, 1000}, flows_label, set_flows),
       .columns = {"avg queue", "peak queue", "time>K %", "marked%", "drops", "avg BCT ms"},
       .series = [](const Config&, const Result& r,
                    std::FILE* out) { print_queue_by_offset(r, 100_us, out); },
       .expectation =
           "short bursts are dominated by the initial spike of roughly one window\n"
           "per flow; higher flow counts push the whole 2 ms burst above the marking\n"
           "threshold, leaving DCTCP no time to converge (Section 4.2)."},

      // The paper runs Figure 7 at 100 flows with its degenerate point at
      // ~150. Our more tightly synchronized flows pin to the 1-MSS floor at
      // ~90 flows (K + BDP), so the equivalent sub-degenerate regime, where
      // DCTCP has headroom and unfairness can develop, is ~60 flows.
      {.id = "fig7_inflight_skew",
       .title = "Figure 7: per-flow in-flight skew during a Mode 1 incast",
       .bursts = {3, 5, 11},
       .base = [](Config& c) { c.inflight_sample_every = 100_us; c.seed = 17; },
       .axis = "flows",
       .points = sweep(std::vector{60}, flows_label, set_flows),
       .columns = {"skew mean", "skew worst", "mean cwnd (MSS)", "straggler cwnd (MSS)",
                   "avg BCT ms"},
       .series = print_inflight,
       .expectation =
           "a long tail of flows carries several times the median in-flight data\n"
           "(skew = p100/p50 across active flows). At burst end the stragglers ramp\n"
           "up, 'unlearning' the incast window (straggler cwnd >> mean), and spike\n"
           "the next burst's queue (Section 4.3)."},

      {.id = "fig8_fabric_vantage",
       .title = "Figure 8 (extension): burst visibility at host, leaf and spine vantage points",
       .body = rows::fig8_fabric_vantage},

      {.id = "ablation_ecn_threshold",
       .title = "Ablation A1: ECN marking threshold sweep (100 flows, 15 ms bursts)",
       .bursts = {3, 6, 11},
       .base = [](Config& c) { c.seed = 19; },
       .axis = "K (pkts)",
       .points = sweep(
           std::vector<std::int64_t>{5, 20, 65, 90, 200, 600},
           [](std::int64_t k) { return std::to_string(k); },
           [](Config& c, std::int64_t k) { c.topology.switch_queue.ecn_threshold_packets = k; }),
       .columns = {"avg queue", "peak queue", "marked%", "drops", "avg BCT ms"},
       .expectation =
           "the standing queue tracks K (DCTCP oscillates around the threshold);\n"
           "very small K sacrifices some completion time, very large K buys latency\n"
           "for nothing. The paper's simulation value is K=65; production uses 6.7%\n"
           "of capacity to absorb host burstiness (Section 2)."},

      {.id = "ablation_dctcp_gain",
       .title = "Ablation A2: DCTCP gain g sweep (100 flows, 15 ms bursts)",
       .bursts = {3, 6, 11},
       .base = [](Config& c) { c.seed = 23; },
       .axis = "g",
       .points = sweep(
           std::vector{256, 64, 16, 4, 1},
           [](int inverse) { return "1/" + std::to_string(inverse); },
           [](Config& c, int inverse) { c.tcp.cc_config.dctcp_gain = 1.0 / inverse; }),
       .columns = {"avg queue", "peak queue", "marked%", "drops", "avg BCT ms",
                   "straggler cwnd (MSS)"},
       .expectation =
           "no g value fixes incast: the root cause (hundreds of flows at the 1-MSS\n"
           "floor) is insensitive to the gain, the paper's argument that tuning g\n"
           "'does not address the root cause' (Section 5.1)."},

      {.id = "ablation_shared_buffer",
       .title = "Ablation A3: shared buffer vs dedicated per-port queues",
       .expectation =
           "with a dedicated queue these flow counts ride Mode 2\n"
           "losslessly; buffer sharing under rack contention produces the losses\n"
           "the paper observes in production at a few hundred flows.",
       .body = rows::ablation_shared_buffer},

      {.id = "ablation_delayed_ack",
       .title = "Ablation A5: delayed ACKs on/off (DCTCP incast)",
       .bursts = {3, 6, 11},
       .base = [](Config& c) { c.seed = 41; },
       .axis = "flows / delayed ACK",
       .points = flows_by({100, 500}, {{"off", [](Config&) {}},
                                       {"on", [](Config& c) { c.tcp.delayed_ack = true; }}}),
       .columns = {"avg queue", "peak queue", "marked%", "drops", "avg BCT ms"},
       .expectation =
           "coalesced ACKs release sender windows in clumps, so queue excursions\n"
           "grow and DCTCP's feedback loop coarsens: the reason the paper disables\n"
           "the feature for its analysis (Section 4)."},

      {.id = "ablation_cca_comparison",
       .title = "Ablation A6: CCA comparison under incast (15 ms bursts)",
       .bursts = {3, 6, 11},
       .base = [](Config& c) { c.seed = 43; },
       .axis = "flows / cca",
       .points = flows_by(
           {100, 500},
           sweep(
               std::vector{tcp::CcAlgorithm::kDctcp, tcp::CcAlgorithm::kRenoEcn,
                           tcp::CcAlgorithm::kCubic},
               [](tcp::CcAlgorithm a) { return std::string{tcp::to_string(a)}; },
               [](Config& c, tcp::CcAlgorithm a) { c.tcp.cc = a; })),
       .columns = {"avg queue", "peak queue", "drops", "timeouts", "retx pkts", "avg BCT ms"},
       .expectation =
           "DCTCP holds the queue near K via proportional ECN response; reno-ecn\n"
           "halves on any mark, oscillating deeper; CUBIC ignores ECN entirely and\n"
           "rides the queue to the tail-drop point."},

      {.id = "ablation_min_rto",
       .title = "Ablation A7: min RTO sensitivity (Mode 3: 1500 flows, 15 ms bursts)",
       .bursts = {3, 5, 11},
       .base = [](Config& c) { c.num_flows = 1500; c.seed = 47; },
       .axis = "min RTO",
       .points = sweep(
           std::vector{1_ms, 5_ms, 20_ms, 50_ms, 200_ms},
           [](sim::Time t) { return t.to_string(); },
           [](Config& c, sim::Time t) { c.tcp.rtt.min_rto = c.tcp.rtt.initial_rto = t; }),
       .columns = {"drops", "timeouts", "avg BCT ms", "max BCT ms"},
       .expectation =
           "with windows at 1 MSS fast retransmit cannot engage, so every loss costs\n"
           "one full RTO. Losses stay roughly constant (the overflow is structural)\n"
           "while BCT falls from ~200 ms toward the burst length as min RTO shrinks:\n"
           "recovery latency, not loss volume, dominates Mode 3."},

      {.id = "ablation_tlp",
       .title = "Ablation A8 (1): tail loss probe on an isolated tail loss",
       .expectation =
           "TLP recovers in ~SRTT-scale time; the RTO-only stack stalls 200 ms per\n"
           "tail loss.",
       .body = rows::ablation_tlp},

      {.id = "ablation_tlp_mode3",
       .title = "Ablation A8 (2): tail loss probe vs Mode 3 (15 ms bursts, DCTCP, 200 ms min RTO)",
       .bursts = {3, 4, 11},
       .base = [](Config& c) { c.max_sim_time = sim::Time::seconds(60); c.seed = 7; },
       .axis = "flows / TLP",
       .points = flows_by({1500, 3000},
                          {{"off", [](Config&) {}},
                           {"on", [](Config& c) { c.tcp.tail_loss_probe = true; }}}),
       .columns = {"drops", "timeouts", "BCT ms"},
       .expectation =
           "TLP leaves Mode 3's completion time untouched and *increases* drops:\n"
           "every flow's probe lands in a queue that is full because of everyone\n"
           "else's probes. Faster loss detection cannot fix structural overload —\n"
           "only fewer concurrent flows can (see extension_staged) or sub-packet\n"
           "rates (see extension_swift)."},

      {.id = "ablation_contention",
       .title = "Ablation A9: rack-level contention models ('aggregator' traces)",
       .expectation =
           "without contention, only the largest incasts overrun the\n"
           "Dynamic-Threshold self-limit. The modeled process — representing the\n"
           "aggregate footprint of *all* the ToR's other ports — produces the\n"
           "paper's rare-but-heavy loss tail. The single real neighbor barely\n"
           "moves the needle: one more ~10%-utilized host rarely bursts at the\n"
           "same instant, which is itself informative — rack-level contention is\n"
           "a many-port phenomenon, not a two-host one (add more neighbors for a\n"
           "first-principles version of the modeled curve).",
       .body = rows::ablation_contention},

      {.id = "ablation_schedule",
       .title = "Ablation A10: burst arrival discipline, completion-gated vs fixed-period",
       .bursts = {4, 8, 11},
       .base = [](Config& c) { c.max_sim_time = sim::Time::seconds(120); c.seed = 7; },
       .axis = "flows / schedule",
       .points = flows_by(
           {500, 1500},
           {{"completion-gated",
             [](Config& c) { c.schedule = workload::BurstSchedule::kAfterCompletion; }},
            {"fixed-period",
             [](Config& c) { c.schedule = workload::BurstSchedule::kFixedPeriod; }}}),
       .columns = {"drops", "timeouts", "avg BCT ms", "max BCT ms"},
       .series = print_burst_bcts,
       .expectation =
           "completion gating (burst i+1 starts 10 ms after burst i completes)\n"
           "quarantines burst 0's slow-start losses: at 500 flows every later burst\n"
           "is a clean ~15.4 ms. Under the fixed period (burst i starts at i x 25 ms)\n"
           "the same episode leaves a ~200 ms backlog every later burst inherits,\n"
           "draining only ~14 ms per period. At 1500 flows each burst adds its own\n"
           "RTO stalls on top. One rare loss event taxes dozens of queries."},

      {.id = "ablation_guardrail",
       .title = "Ablation A4: predictor-driven cwnd guardrail vs vanilla DCTCP",
       .bursts = {3, 6, 11},
       .base = [](Config& c) { c.seed = 37; },
       .axis = "flows / variant",
       .points = flows_by(
           {50, 100, 200},
           {{"vanilla DCTCP", [](Config&) {}},
            {"guardrail (p99 forecast)",
             [](Config& c) { c.tcp.cwnd_cap_bytes = guardrail_cap_bytes(c.num_flows); }}}),
       .columns = {"cap (MSS)", "peak queue", "avg queue", "straggler cwnd (MSS)", "drops",
                   "avg BCT ms"},
       .expectation =
           "the guardrail (Section 5.1) removes the straggler ramp-up (end-of-burst\n"
           "cwnd pinned at the cap) and with it the start-of-burst queue spike, while\n"
           "completion times stay near optimal: only the ceiling, not the control\n"
           "law, changed."},

      {.id = "extension_swift",
       .title = "Extension E1 (a): Swift (delay-based, paced) vs DCTCP, sustained incast",
       .expectation =
           "Swift's sub-MSS pacing keeps the queue near its delay\n"
           "target with zero loss even at thousands of flows; DCTCP's 1-MSS floor\n"
           "pins the queue at (flows - BDP) and overflows past ~1300 flows.",
       .body = rows::extension_swift},

      {.id = "extension_swift_bursts",
       .title = "Extension E1 (b): Swift vs DCTCP on millisecond bursts (15 ms)",
       .bursts = {3, 4, 11},
       .base = [](Config& c) { c.max_sim_time = sim::Time::seconds(60); c.seed = 7; },
       .axis = "flows / cca",
       .points = flows_by({500, 1500}, cca_points({tcp::CcAlgorithm::kDctcp,
                                                  tcp::CcAlgorithm::kSwift})),
       .columns = {"drops", "timeouts", "BCT ms"},
       .expectation =
           "the tables invert. On millisecond bursts Swift's paced,\n"
           "infrequent probing cannot converge before the burst ends (stale\n"
           "feedback, RTO-bound recovery), while DCTCP completes near-optimally up\n"
           "to its degenerate point — the paper's Section 5.2 argument, measured."},

      {.id = "extension_staged",
       .title = "Extension E2: staged incast scheduling vs all-at-once (15 ms bursts, DCTCP)",
       .expectation =
           "aggregate demand and the bottleneck are identical, so\n"
           "staging costs almost nothing in completion time — but it removes the\n"
           "overflow entirely: each 60-flow stage runs in DCTCP's healthy Mode 1\n"
           "regime. This is why the paper argues scheduling 'need only serve as\n"
           "an enhancement rather than a replacement to TCP'.",
       .body = rows::extension_staged},

      {.id = "extension_hpcc",
       .title = "Extension E3 (a): HPCC-style INT congestion control, sustained traffic",
       .expectation =
           "HPCC's per-hop utilization signal holds the queue near empty at one\n"
           "flow and bounded at hundreds, with zero loss — the INT payoff.",
       .body = rows::extension_hpcc},

      {.id = "extension_hpcc_bursts",
       .title = "Extension E3 (b): HPCC vs DCTCP on the paper's cyclic bursts (15 ms)",
       .bursts = {3, 4, 11},
       .base = [](Config& c) { c.max_sim_time = sim::Time::seconds(60); c.seed = 7; },
       .axis = "flows / cca",
       .points = flows_by({100, 500}, cca_points({tcp::CcAlgorithm::kDctcp,
                                                 tcp::CcAlgorithm::kHpcc})),
       .columns = {"drops", "timeouts", "BCT ms"},
       .expectation =
           "at Mode-1 scale HPCC stays lossless with a much smaller queue than\n"
           "DCTCP (at a modest completion-time premium). At hundreds of flows the\n"
           "cyclic pattern defeats it: burst-start windows are stale no matter how\n"
           "precise last burst's telemetry was — supporting the paper's view that\n"
           "better sender signals alone do not solve high-degree cyclic incast."},

      {.id = "extension_credit",
       .title = "Extension E4: receiver-driven credit transport vs DCTCP (15 ms bursts)",
       .expectation =
           "DCTCP hits its wall (Mode 2's standing queue, then Mode\n"
           "3's RTO-bound collapse past ~1300 flows). The credit transport is flat:\n"
           "~15.5-18 ms at every flow count with zero loss, because the receiver\n"
           "never credits more than its downlink can carry. The price is the\n"
           "signaling column — and that it is not TCP, which is the paper's whole\n"
           "deployment objection to this class.",
       .body = rows::extension_credit},
  };
  return all;
}

const CatalogRow* find_row(std::string_view id) {
  for (const CatalogRow& row : catalog()) {
    if (row.id == id) return &row;
  }
  return nullptr;
}

std::vector<CatalogRun> run_row(const CatalogRow& row, Scale scale, const AuditOptions& audit) {
  std::vector<CatalogRun> runs;
  for (const CatalogPoint& point : row.points) {
    IncastExperimentConfig config;
    row.base(config);
    config.num_bursts = at(row.bursts, scale);
    point.apply(config);
    static_cast<AuditOptions&>(config) = audit;
    IncastExperimentResult result = run_incast_experiment(config);
    runs.push_back({point.label, std::move(config), std::move(result)});
  }
  return runs;
}

void print_row(const CatalogRow& row, Scale scale, const std::vector<CatalogRun>& runs,
               std::FILE* out) {
  std::vector<std::string> headers{row.axis};
  std::vector<const Column*> columns;
  for (const std::string& name : row.columns) {
    columns.push_back(&column(name));
    headers.push_back(name);
  }

  print_banner(row, scale, out);
  Table table{std::move(headers)};
  for (const CatalogRun& run : runs) {
    if (row.series != nullptr) {
      std::fprintf(out, "\n%s = %s:\n", row.axis.c_str(), run.label.c_str());
      row.series(run.config, run.result, out);
    }
    std::vector<std::string> cells{run.label};
    for (const Column* c : columns) cells.push_back(c->format(run.config, run.result));
    table.add_row(std::move(cells));
  }
  std::fprintf(out, "\n");
  table.print(out);
  print_expectation(row, out);
}

void run_and_print(const CatalogRow& row, Scale scale, const AuditOptions& audit, std::FILE* out) {
  if (row.body == nullptr) {
    print_row(row, scale, run_row(row, scale, audit), out);
    return;
  }
  print_banner(row, scale, out);
  row.body(scale, audit, out);
  print_expectation(row, out);
}

}  // namespace incast::core
