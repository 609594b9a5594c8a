// incast_sim — command-line driver for custom experiments.
//
// Subcommands:
//
//   incast_sim burst [--flows 500] [--duration 15ms] [--bursts 11]
//                    [--cc dctcp|reno|reno-ecn|cubic|swift|hpcc]
//                    [--ecn-threshold 65] [--queue 1333] [--gap 10ms]
//                    [--min-rto 200ms] [--cwnd-cap-mss 0] [--tlp]
//                    [--schedule completion|period] [--seed 1]
//       Runs the Section 4 cyclic-incast experiment and prints the result.
//
//   incast_sim faults [all burst flags] [--drop-rate 1e-3 | --drop-rates 0,1e-4,1e-3]
//                     [--flap-duration 50ms | --flap-durations 10ms,50ms]
//                     [--flap-at 30ms] [--corrupt-rate 0] [--dup-rate 0]
//                     [--reorder-rate 0] [--reorder-delay 50us]
//                     [--ge-p 0] [--ge-r 0.1] [--ge-loss-bad 1] [--ge-loss-good 0]
//                     [--jobs N]
//       Runs the cyclic incast under injected link faults: a fault-free
//       baseline plus one run per sweep point, reporting goodput
//       degradation, loss attribution (injected vs congestion), recovery
//       time after flaps, and the behavioral DCTCP mode of every point.
//       With every fault knob at zero the fault layer is a strict no-op and
//       the baseline equals the `burst` subcommand's result exactly.
//
//   incast_sim fabric [--flows 96] [--pods 2] [--leaves 2] [--hosts-per-leaf 8]
//                     [--aggs 0] [--spines 2] [--host-link 10Gbps]
//                     [--leaf-uplink 40Gbps] [--spine-link 100Gbps]
//                     [--placement cross|single] [--ecmp-seed 1]
//                     [--export-telemetry prefix]
//                     [all burst workload flags: --cc --duration --bursts
//                      --discard --gap --schedule --queue --ecn-threshold
//                      --min-rto --seed]
//       Runs the cyclic incast across a multi-tier Clos fabric: senders
//       spread over racks, ECMP over the leaf uplinks, Millisampler-style
//       1 ms telemetry at host / leaf / spine vantage points, and per-leaf
//       ECMP collision histograms. --export-telemetry writes one CSV per
//       vantage (prefix + sanitized link name). With 1 pod, 2 leaves,
//       1 spine and --placement single the fabric degenerates to the
//       dumbbell of `burst`.
//
//   incast_sim fleet [--service aggregator] [--hosts 2] [--snapshots 1]
//                    [--trace 1s] [--contention none|modeled|neighbor]
//                    [--export-csv trace.csv] [--seed 42] [--jobs N]
//       Runs Section 3 production-like traces and prints per-burst
//       statistics; optionally exports the first host's Millisampler bins.
//
//   incast_sim collateral [--modes droptail,pfc,trim,credit] [--degrees 64]
//                         [--bursts 4] [--duration 15ms] [--gap 10ms]
//                         [--cc dctcp] [--pfc-cc dcqcn] [--queue 1333]
//                         [--ecn-threshold 65] [--trim-queue 400]
//                         [--shared-buffer 0] [--dt-alpha 1.0]
//                         [--core-link 20Gbps] [--victim-cwnd-cap 131072]
//                         [--min-rto 200ms] [--max-sim-time 30s] [--seed 1]
//                         [--jobs N] [--export-csv points.csv]
//       Runs the htsim "collateral damage" scenario family: one long-lived
//       victim flow beside an incast, across the four queue modes
//       (drop-tail+ECN, PFC lossless + DCQCN, NDP packet trimming, and the
//       rdt:: receiver-driven credit transport). Reports per-point victim
//       throughput, PFC pause time (HoL blocking), trims/NACKs, and incast
//       BCTs. Expected victim-throughput ordering:
//       trim ~ credit > droptail > pfc.
//
//   incast_sim scaling [--degrees 1,2,...,8000] [--bytes 270000]
//                      [--pods 12] [--leaves 6] [--hosts-per-leaf 6]
//                      [--aggs 6] [--spines 36] [--cc dctcp]
//                      [--min-rto 200ms] [--max-sim-time 120s] [--seed 1]
//                      [--jobs N] [--domains N] [--export-csv scaling.csv]
//       Runs the htsim incast_scaling sweep: N senders each push one
//       fixed-size transfer to a single receiver on a 432-host three-tier
//       fat-tree, for N from 1 to 8000. Reports FCT overhead versus the
//       optimal (base RTT + bottleneck serialization) per degree, plus a
//       deterministic bytes-per-flow memory decomposition (flow state,
//       packet pools, routing tables, event-kernel slab).
//       --domains N parallelizes each point *internally*: the fabric is
//       decomposed by rack into N conservatively-synchronized domains (see
//       docs/PARALLELISM.md), producing byte-identical CSVs at any N >= 1
//       (0 = one domain per hardware thread; flag absent = the legacy
//       single-queue engine). Incompatible with the per-event observers
//       (--flow-trace / --trace-out / --flight-recorder).
//
//   --jobs N (fleet, faults, collateral, scaling) runs the independent simulations of a sweep on
//   N worker threads (work-stealing; default: all hardware threads). Seeds
//   derive from (base seed, task index), so any N — including --jobs 1,
//   which reproduces the historical sequential behavior — yields
//   byte-identical results.
//
//   incast_sim trace --input trace.csv [--line-rate 10Gbps]
//       Runs the burst detector on a previously exported trace.
//
//   incast_sim run <id>
//       Runs one row of the experiment catalog (core/catalog.h): a Section 4
//       figure or ablation swept over the dumbbell, printed as its series,
//       a table and the paper's expectation. INCAST_BENCH_SCALE=quick|
//       default|full sets the burst count; any other value exits 2. With no
//       id or an unknown one, lists the ids and exits 2.
//
//   incast_sim chaos [--configs 25] [--seed 7] [--jobs N]
//                    [--max-events 20000000] [--max-wall-ms 0]
//                    [--journal run.journal]
//       Fuzzes the simulator: K seeded random configurations (bursts,
//       faulty bursts, fleet traces) each run under the strict invariant
//       auditor with an event budget. Any violation or budget blowout is
//       quarantined and reported; exit code 4 if any config failed. The
//       same seed always generates the same configs.
//
//   Run-hardening flags, shared by burst / faults / fabric / fleet / chaos:
//     --audit off|relaxed|strict  invariant auditor mode (default relaxed:
//                                 violations are counted, never fatal;
//                                 strict aborts with exit 4 and dumps the
//                                 flight recorder when one is armed)
//     --max-events N              per-simulation event budget (0 = none)
//     --max-wall-ms MS            per-simulation wall-clock budget (0 = none)
//
//   Sweep fault-isolation flags (faults, fleet, collateral, scaling, chaos):
//     --fail-fast                 abort the whole sweep on the first task
//                                 failure (historical behavior). Default:
//                                 quarantine the failing point, retry it
//                                 --retries times, and keep going.
//     --retries N                 same-seed retry attempts for a failed
//                                 task before quarantining it (default 1;
//                                 ignored under --fail-fast)
//     --journal PATH              append-only checkpoint journal. A killed
//                                 run (crash, ^C, SIGTERM) resumes by
//                                 rerunning the command with the same
//                                 --journal: completed points are skipped,
//                                 and the merged output is byte-identical
//                                 to an uninterrupted run. A journal from a
//                                 different configuration is refused.
//
//   Exit codes: 0 success; 2 bad invocation or config/journal mismatch;
//   3 file I/O failure; 4 audit violation or budget exceeded (strict) or
//   chaos failures; 5 internal error; 130/143 after SIGINT/SIGTERM.
//
//   Observability flags, shared by burst / faults / fabric / fleet:
//     --trace-out FILE          write a Chrome trace-event JSON of the run
//                               (load in Perfetto / chrome://tracing;
//                               validate with tools/check_trace.py)
//     --metrics-out FILE        write the end-of-run metrics registry
//                               snapshot as JSON
//     --flight-recorder SPEC    arm the anomaly flight recorder; SPEC is
//                               rto-storm[:N[:window_ms]] |
//                               queue-collapse[:packets] | mode-shift
//     --flight-recorder-out P   dump filename prefix (default "flight_";
//                               dump n is written to P<n>.json)
//   For faults, the baseline run is the observed one (sweep points run in
//   parallel); for fleet, the (host 0, snapshot 0) cell is. Trace and
//   metrics bytes are identical for every --jobs value.
//
//   Tail-autopsy flags, shared by burst / fabric / collateral / scaling:
//     --flow-trace              sampled per-flow latency attribution: each
//                               sampled flow's FCT is decomposed exactly
//                               into serialization, propagation, per-tier
//                               queueing, PFC pause and sender stall classes
//     --flow-trace-out FILE     write the p50/p99/p999 attribution rows as
//                               fct_breakdown.csv (implies --flow-trace);
//                               byte-identical at any --jobs value
//     --flow-trace-sample N     trace 1 in N flows, hashed by (flow id,
//                               base seed) so the sample set is the same at
//                               every sweep point (default 1 = every flow)
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/burst_detector.h"
#include "core/catalog.h"
#include "core/chaos.h"
#include "core/cli_args.h"
#include "core/collateral_experiment.h"
#include "core/error.h"
#include "core/fabric_experiment.h"
#include "core/fleet_experiment.h"
#include "core/incast_experiment.h"
#include "core/report.h"
#include "core/resilience_experiment.h"
#include "core/scaling_experiment.h"
#include "core/task_journal.h"
#include "obs/flow_trace.h"
#include "obs/hub.h"
#include "telemetry/trace_io.h"

namespace {

using namespace incast;
using namespace incast::sim::literals;

// Cooperative cancellation: the signal handler only flips atomics; every
// simulation polls g_cancel through its auditor (every 8192 events) and the
// sweep runner stops handing out tasks, so journals and partial exports are
// flushed through the normal paths before exit.
std::atomic<bool> g_cancel{false};
std::atomic<int> g_signal{0};

extern "C" void handle_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  g_cancel.store(true, std::memory_order_relaxed);
}

int usage() {
  std::fprintf(stderr,
               "usage: incast_sim <burst|faults|fabric|fleet|collateral|scaling|trace|chaos|run> "
               "[--key value ...]\n"
               "       see the header of tools/incast_sim.cc for all flags\n");
  return 2;
}

// Maps a --cc / --pfc-cc value to its algorithm. An unknown name prints the
// error and yields nullopt (the caller exits 2).
std::optional<tcp::CcAlgorithm> parse_cc(const char* flag, const std::string& name) {
  if (name == "dctcp") return tcp::CcAlgorithm::kDctcp;
  if (name == "reno") return tcp::CcAlgorithm::kReno;
  if (name == "reno-ecn") return tcp::CcAlgorithm::kRenoEcn;
  if (name == "cubic") return tcp::CcAlgorithm::kCubic;
  if (name == "swift") return tcp::CcAlgorithm::kSwift;
  if (name == "hpcc") return tcp::CcAlgorithm::kHpcc;
  if (name == "dcqcn") return tcp::CcAlgorithm::kDcqcn;
  std::fprintf(stderr, "error: unknown --%s '%s'\n", flag, name.c_str());
  return std::nullopt;
}

// Validates strictly: unknown flags and out-of-range values are errors, not
// warnings, so a typo'd or nonsensical invocation fails loudly.
int finish(core::CliArgs& args) {
  args.reject_unknown();
  for (const auto& err : args.errors()) std::fprintf(stderr, "error: %s\n", err.c_str());
  return args.errors().empty() ? 0 : 2;
}

// Splits "a,b,c" into fields; empty input yields an empty list.
std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size() && !csv.empty()) {
    const std::size_t comma = csv.find(',', start);
    out.push_back(csv.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// --degrees: a non-empty comma list of incast fan-ins, each in [1, 100000].
bool parse_degrees(const std::string& list, std::vector<int>& out) {
  out.clear();
  if (list.empty()) {
    std::fprintf(stderr, "error: --degrees: empty list\n");
    return false;
  }
  for (const auto& field : split_list(list)) {
    char* end = nullptr;
    const long v = std::strtol(field.c_str(), &end, 10);
    if (end != field.c_str() + field.size() || v < 1 || v > 100'000) {
      std::fprintf(stderr, "error: --degrees: bad fan-in '%s'\n", field.c_str());
      return false;
    }
    out.push_back(static_cast<int>(v));
  }
  return true;
}

// Writes one output file. Returns 0, or prints the error and returns 3 (the
// documented file-I/O exit code).
int write_output(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  if (out) out << content;
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 3;
  }
  return 0;
}

// The observability flags shared by every simulation subcommand. Parsing
// constructs a Hub only when some flag asks for one, so an unobserved
// invocation never allocates observability state at all.
struct ObsCli {
  std::string trace_out;
  std::string metrics_out;
  std::string trigger_spec;
  std::string dump_prefix;
  std::unique_ptr<obs::Hub> hub;
  int dump_write_errors{0};

  // Must run before finish(args) so the flags are consumed. Returns false
  // (after printing a diagnostic) on a malformed trigger spec.
  bool parse(core::CliArgs& args) {
    trace_out = args.get_or("trace-out", "");
    metrics_out = args.get_or("metrics-out", "");
    trigger_spec = args.get_or("flight-recorder", "");
    dump_prefix = args.get_or("flight-recorder-out", "flight_");
    if (trace_out.empty() && metrics_out.empty() && trigger_spec.empty()) return true;

    hub = std::make_unique<obs::Hub>();
    hub->tracer().set_enabled(!trace_out.empty());
    if (!trigger_spec.empty()) {
      const auto trigger = obs::parse_trigger(trigger_spec);
      if (!trigger) {
        std::fprintf(stderr,
                     "error: bad --flight-recorder spec '%s' "
                     "(rto-storm[:N[:window_ms]] | queue-collapse[:packets] | "
                     "mode-shift)\n",
                     trigger_spec.c_str());
        return false;
      }
      hub->recorder().arm(*trigger);
      hub->recorder().set_dump_sink(
          [this](const std::string& reason, const std::vector<obs::TraceEvent>& ring) {
            const std::string path =
                dump_prefix + std::to_string(hub->recorder().dumps()) + ".json";
            std::ofstream out{path};
            if (!out) {
              std::fprintf(stderr, "error: cannot write flight dump %s\n", path.c_str());
              ++dump_write_errors;
              return;
            }
            hub->write_dump(ring, out);
            std::fprintf(stderr, "flight recorder: %s -> %s (%zu events)\n",
                         reason.c_str(), path.c_str(), ring.size());
          });
    }
    return true;
  }

  // Call after the experiment (its ExperimentObserver snapshots the metrics
  // registry before components unregister). Returns 0, or 3 (the file-I/O
  // exit code) when any output, flight dumps included, could not be written.
  int write_outputs() {
    if (!hub) return 0;
    if (!trace_out.empty()) {
      std::ostringstream trace;
      hub->write_trace(trace);
      if (const int rc = write_output(trace_out, trace.str()); rc != 0) return rc;
      std::printf("wrote trace: %zu event(s) (%llu dropped at capacity) to %s\n",
                  hub->tracer().events().size(),
                  static_cast<unsigned long long>(hub->tracer().dropped()),
                  trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      if (!hub->has_final_metrics()) hub->capture_metrics(0);
      std::ostringstream metrics;
      hub->final_metrics().write_json(metrics);
      if (const int rc = write_output(metrics_out, metrics.str()); rc != 0) return rc;
      std::printf("wrote metrics: %zu metric(s) to %s\n",
                  hub->final_metrics().entries.size(), metrics_out.c_str());
    }
    if (!trigger_spec.empty()) {
      std::printf("flight recorder (%s): %d dump(s)\n", trigger_spec.c_str(),
                  hub->recorder().dumps());
    }
    return dump_write_errors > 0 ? 3 : 0;
  }
};

// The tail-autopsy flags shared by burst / fabric / collateral / scaling.
// Must run before finish(args) so the flags are consumed.
struct FlowTraceCli {
  bool enabled{false};
  std::uint64_t sample_every{1};
  std::string out_path;

  void parse(core::CliArgs& args) {
    out_path = args.get_or("flow-trace-out", "");
    enabled = args.bool_or("flow-trace", false) || !out_path.empty();
    sample_every =
        static_cast<std::uint64_t>(args.int_or("flow-trace-sample", 1, 1, 1'000'000'000));
  }

  // Writes fct_breakdown.csv when --flow-trace-out was given. Returns 0, or
  // 3 (the documented file-I/O exit code) on failure.
  [[nodiscard]] int write_csv(const std::string& csv) const {
    if (out_path.empty()) return 0;
    if (const int rc = write_output(out_path, csv); rc != 0) return rc;
    std::printf("wrote flow-trace breakdown to %s\n", out_path.c_str());
    return 0;
  }
};

// A tail-autopsy component as its share of the flow's FCT.
std::string share(const obs::FlowBreakdown& f, std::int64_t ns) {
  return f.fct_ns > 0
             ? core::fmt(100.0 * static_cast<double>(ns) / static_cast<double>(f.fct_ns), 1) +
                   " %"
             : std::string{"-"};
}

std::string fct_ms(const obs::FlowBreakdown& f) {
  return core::fmt(static_cast<double>(f.fct_ns) / 1e6, 3) + " ms";
}

// Full tail-autopsy table for the single-point subcommands: one row per
// percentile, every component as its share of that flow's FCT.
void print_fct_attribution(const std::vector<obs::TailAttributionRow>& rows,
                           std::uint64_t traced, std::uint64_t incomplete) {
  std::printf("\ntail autopsy (%llu completed sampled flow(s), %llu incomplete):\n",
              static_cast<unsigned long long>(traced),
              static_cast<unsigned long long>(incomplete));
  if (rows.empty()) {
    std::printf("  no completed sampled flows -- nothing to attribute\n");
    return;
  }
  core::Table t{{"pctl", "FCT", "serial", "prop", "q-host", "q-tor", "q-agg", "q-spine",
                 "pfc", "cwnd", "rto", "fast-rec", "nack-rec", "other"}};
  for (const auto& row : rows) {
    const obs::FlowBreakdown& f = row.flow;
    t.add_row({row.pctl, fct_ms(f), share(f, f.serialization_ns),
               share(f, f.propagation_ns), share(f, f.q_host_ns), share(f, f.q_tor_ns),
               share(f, f.q_agg_ns), share(f, f.q_spine_ns), share(f, f.pfc_pause_ns),
               share(f, f.cwnd_limited_ns), share(f, f.rto_wait_ns),
               share(f, f.fast_recovery_ns), share(f, f.nack_recovery_ns),
               share(f, f.other_ns)});
  }
  t.print();
}

// The run-hardening flags shared by every simulation subcommand: auditor
// mode and budgets, plus (for sweeps) quarantine/retry and the checkpoint
// journal. Must run before finish(args) so the flags are consumed.
struct HardeningCli {
  sim::AuditMode audit_mode{sim::AuditMode::kRelaxed};
  sim::Auditor::Config audit{};
  std::string journal_path;
  bool fail_fast{false};
  int max_attempts{2};

  bool parse(core::CliArgs& args, bool sweep_flags) {
    const std::string mode_name = args.get_or("audit", "relaxed");
    if (!sim::parse_audit_mode(mode_name, audit_mode)) {
      std::fprintf(stderr, "error: unknown --audit '%s' (off|relaxed|strict)\n",
                   mode_name.c_str());
      return false;
    }
    audit.max_events =
        static_cast<std::uint64_t>(args.int_or("max-events", 0, 0, 1'000'000'000'000));
    audit.max_wall_ms = args.double_or("max-wall-ms", 0.0, 0.0, 1e9);
    audit.cancel = &g_cancel;
    if (sweep_flags) {
      journal_path = args.get_or("journal", "");
      fail_fast = args.bool_or("fail-fast", false);
      max_attempts = 1 + static_cast<int>(args.int_or("retries", 1, 0, 16));
    }
    return true;
  }

  [[nodiscard]] sim::SweepRunner::Policy policy() const {
    sim::SweepRunner::Policy p;
    p.fail_fast = fail_fast;
    p.max_attempts = max_attempts;
    p.cancel = &g_cancel;
    return p;
  }
};

// Every flag family of a simulation subcommand: run hardening (plus sweep
// isolation and --journal for sweeps), tail autopsy where the subcommand
// traces flows, and observability.
struct SharedFlags {
  HardeningCli hard;
  FlowTraceCli ft;
  ObsCli obs;

  // Consumes the families, then rejects whatever flag is left over. Returns
  // 0, or the exit code of the bad invocation.
  int parse(core::CliArgs& args, bool sweep, bool flow_trace) {
    if (!hard.parse(args, sweep)) return 2;
    if (flow_trace) ft.parse(args);
    if (!obs.parse(args)) return 2;
    return finish(args);
  }

  // Hands the parsed hub, auditor settings, sweep policy and tracer to an
  // experiment config.
  template <typename Config>
  void apply(Config& cfg) const {
    cfg.hub = obs.hub.get();
    cfg.audit_mode = hard.audit_mode;
    cfg.audit = hard.audit;
    if constexpr (requires { cfg.sweep; }) cfg.sweep = hard.policy();
    if constexpr (requires { cfg.flow_trace; }) {
      cfg.flow_trace = ft.enabled;
      cfg.flow_trace_sample_every = ft.sample_every;
    }
  }
};

// Wires a sweep to --journal (no-op without one): opens the journal,
// refusing one a different run wrote; prints the resume banner ("resuming,
// k/N <progress>"); records every failure and fresh result; and replays
// completed tasks instead of re-running them — except task 0 when
// `rerun_first`, because it owns output the journal does not hold (an
// exported trace, the hub's trace and metrics). Determinism makes that
// re-run exact.
template <typename Config, typename Result>
void journaled_sweep(core::TaskJournal& journal, const std::string& path,
                     const core::JournalHeader& header, const char* progress,
                     bool rerun_first, Config& cfg,
                     std::function<void(const sim::TaskFailure&)>& on_failure,
                     Result (*decode)(const core::Json&)) {
  if (path.empty()) return;
  journal.open(path, header);
  if (journal.completed_count() > 0) {
    std::printf("journal %s: resuming, %zu/%llu %s\n", journal.path().c_str(),
                journal.completed_count(), static_cast<unsigned long long>(header.tasks),
                progress);
  }
  on_failure = [&journal](const sim::TaskFailure& f) { journal.record_failure(f); };
  cfg.resume = [&journal, rerun_first, decode](std::size_t index, Result& out) {
    if (index == 0 && rerun_first) return false;
    const core::Json* payload = journal.payload(index);
    if (payload == nullptr) return false;
    out = decode(*payload);
    return true;
  };
  cfg.on_result = [&journal](std::size_t index, std::uint64_t seed, const Result& r) {
    journal.record_ok(index, seed, core::to_journal_payload(r));
  };
}

// Indices of the sweep points that ran to completion. Quarantined or
// never-run points hold default-constructed results: the quarantine block
// tells their story, not a row of zeros.
std::vector<std::size_t> healthy(const sim::SweepRunner::RunStats& sweep) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sweep.tasks.size(); ++i) {
    if (!sweep.failed(i) && sweep.tasks[i].attempts > 0) out.push_back(i);
  }
  return out;
}

// The grid subcommands' footer: where the p99 flow's time went at every
// healthy point. Queue tiers and wire time are folded so a row stays
// readable across a whole mode x degree grid; points with no traced flows
// contribute no row. `label(point)` fills the mode column.
template <typename Report, typename Label>
void print_p99_table(const char* per, const Report& report, Label label) {
  std::printf("\ntail autopsy: p99 cause shares per %s "
              "(what fraction of the p99 flow's FCT each cause explains):\n",
              per);
  core::Table t{{"mode", "degree", "p99 FCT", "wire", "queue", "pfc", "cwnd", "rto",
                 "fast-rec", "nack-rec", "other"}};
  for (const std::size_t i : healthy(report.sweep)) {
    const auto& p = report.points[i];
    for (const auto& row : p.fct_rows) {
      if (std::strcmp(row.pctl, "p99") != 0) continue;
      const obs::FlowBreakdown& f = row.flow;
      t.add_row({label(p), std::to_string(p.degree), fct_ms(f),
                 share(f, f.serialization_ns + f.propagation_ns),
                 share(f, f.q_host_ns + f.q_tor_ns + f.q_agg_ns + f.q_spine_ns),
                 share(f, f.pfc_pause_ns), share(f, f.cwnd_limited_ns),
                 share(f, f.rto_wait_ns), share(f, f.fast_recovery_ns),
                 share(f, f.nack_recovery_ns), share(f, f.other_ns)});
      break;
    }
  }
  t.print();
}

// Every sweep's footer: its run statistics, then — after a signal — where
// the journal stands, so the operator knows the state on disk is resumable
// (the 128+signo exit happens in main()).
void print_sweep_footer(const sim::SweepRunner::RunStats& sweep,
                        const core::TaskJournal& journal) {
  std::printf("\n");
  core::print_sweep_stats(sweep);
  if (g_signal.load(std::memory_order_relaxed) == 0) return;
  if (journal.active()) {
    std::fprintf(stderr,
                 "interrupted: journal %s holds %zu completed task(s); rerun the same "
                 "command to resume\n",
                 journal.path().c_str(), journal.completed_count());
  } else {
    std::fprintf(stderr, "interrupted: no --journal, completed work is discarded\n");
  }
}

// The cyclic-incast workload flags of `burst`, `faults` and `fabric`.
bool parse_workload(core::CliArgs& args, core::CyclicIncastSettings& cfg, int default_bursts,
                    sim::Time default_max_sim_time, std::string& cc_name) {
  cfg.burst_duration = args.time_or("duration", 15_ms, 1_ns);
  cfg.num_bursts = static_cast<int>(args.int_or("bursts", default_bursts, 1, 10'000));
  cfg.discard_bursts =
      static_cast<int>(args.int_or("discard", 1, 0, cfg.num_bursts - 1));
  cfg.inter_burst_gap = args.time_or("gap", 10_ms, sim::Time::zero());
  cfg.seed = static_cast<std::uint64_t>(args.int_or("seed", 1));
  cfg.max_sim_time = args.time_or("max-sim-time", default_max_sim_time, 1_ns);

  cc_name = args.get_or("cc", "dctcp");
  const auto cc = parse_cc("cc", cc_name);
  if (!cc) return false;
  cfg.tcp.cc = *cc;
  cfg.tcp.int_telemetry = *cc == tcp::CcAlgorithm::kHpcc;
  cfg.tcp.rtt.min_rto = args.time_or("min-rto", 200_ms, 1_ns);
  const std::string schedule = args.get_or("schedule", "completion");
  if (schedule != "completion" && schedule != "period") {
    std::fprintf(stderr, "error: unknown --schedule '%s'\n", schedule.c_str());
    return false;
  }
  cfg.schedule = schedule == "period" ? workload::BurstSchedule::kFixedPeriod
                                      : workload::BurstSchedule::kAfterCompletion;
  return true;
}

// Shared between `burst` and `faults` so the two subcommands agree on every
// default — `faults` with all fault knobs at zero must reproduce `burst`.
bool parse_incast_config(core::CliArgs& args, core::IncastExperimentConfig& cfg,
                         std::string& cc_name) {
  cfg.num_flows = static_cast<int>(args.int_or("flows", 500, 1, 100'000));
  if (!parse_workload(args, cfg, 11, sim::Time::seconds(60), cc_name)) return false;
  cfg.tcp.tail_loss_probe = args.bool_or("tlp", false);
  cfg.topology.switch_queue.capacity_packets = args.int_or("queue", 1333, 1, 10'000'000);
  cfg.topology.switch_queue.ecn_threshold_packets =
      args.int_or("ecn-threshold", 65, 0, 10'000'000);
  const std::int64_t cap_mss = args.int_or("cwnd-cap-mss", 0, 0, 1'000'000);
  if (cap_mss > 0) cfg.tcp.cwnd_cap_bytes = cap_mss * cfg.tcp.mss_bytes;
  return true;
}

// The headline metrics of a cyclic incast, dumbbell or fabric, then the
// topology's own rows.
void print_burst_table(const core::CyclicIncastResult& r,
                       const std::vector<std::vector<std::string>>& topology_rows) {
  core::Table t{{"metric", "value"}};
  t.add_row({"bursts completed", std::to_string(r.bursts.size())});
  t.add_row({"avg BCT (measured bursts)", core::fmt(r.avg_bct_ms, 2) + " ms"});
  t.add_row({"max BCT", core::fmt(r.max_bct_ms, 2) + " ms"});
  t.add_row({"avg queue during bursts", core::fmt(r.avg_queue_packets, 1) + " pkts"});
  t.add_row({"peak queue", core::fmt(r.peak_queue_packets, 0) + " pkts"});
  t.add_row({"ECN-marked packets", core::fmt(r.marked_fraction() * 100, 1) + " %"});
  t.add_row({"drops", std::to_string(r.queue_drops)});
  t.add_row({"timeouts", std::to_string(r.timeouts)});
  t.add_row({"fast retransmits", std::to_string(r.fast_retransmits)});
  for (const auto& row : topology_rows) t.add_row(row);
  t.print();
}

// The dumbbell's rows of the burst table.
std::vector<std::vector<std::string>> dumbbell_rows(const core::IncastExperimentResult& r) {
  return {{"retransmitted packets", std::to_string(r.retransmitted_packets)},
          {"end-of-burst cwnd mean", core::fmt(r.end_of_burst_cwnd_mean_mss, 2) + " MSS"},
          {"end-of-burst cwnd max", core::fmt(r.end_of_burst_cwnd_max_mss, 2) + " MSS"}};
}

// The end of `burst` and `fabric`: the tail autopsy and its CSV when
// --flow-trace asked for them, then the observability outputs. Returns the
// exit code.
int write_incast_outputs(SharedFlags& flags, const char* mode, int num_flows,
                         const core::CyclicIncastResult& r) {
  if (flags.ft.enabled) {
    print_fct_attribution(r.fct_rows, r.flow_breakdowns.size(), r.flow_trace_incomplete);
    std::string csv = obs::fct_breakdown_csv_header();
    obs::append_fct_breakdown_csv(csv, mode, num_flows, r.fct_rows);
    if (const int rc = flags.ft.write_csv(csv); rc != 0) return rc;
  }
  return flags.obs.write_outputs();
}

int run_burst(core::CliArgs& args) {
  core::IncastExperimentConfig cfg;
  std::string cc_name;
  if (!parse_incast_config(args, cfg, cc_name)) return 2;
  SharedFlags flags;
  if (const int rc = flags.parse(args, /*sweep=*/false, /*flow_trace=*/true); rc != 0) {
    return rc;
  }
  flags.apply(cfg);

  std::printf("burst: %d x %s bursts of a %d-flow %s incast (seed %llu)\n",
              cfg.num_bursts, cfg.burst_duration.to_string().c_str(), cfg.num_flows,
              cc_name.c_str(), static_cast<unsigned long long>(cfg.seed));
  const auto r = core::run_incast_experiment(cfg);
  print_burst_table(r, dumbbell_rows(r));
  return write_incast_outputs(flags, "burst", cfg.num_flows, r);
}

int run_faults(core::CliArgs& args) {
  core::ResilienceConfig cfg;
  std::string cc_name;
  if (!parse_incast_config(args, cfg.base, cc_name)) return 2;

  // Sweep axes: --drop-rates / --flap-durations (comma lists) override the
  // singular forms.
  const std::string drop_list = args.get_or("drop-rates", "");
  if (!drop_list.empty()) {
    for (const auto& field : split_list(drop_list)) {
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      // strtod("") consumes nothing and still lands on the end; NaN fails
      // both bound checks, so test "inside [0, 1]".
      if (field.empty() || end != field.c_str() + field.size() ||
          !(v >= 0.0 && v <= 1.0)) {
        std::fprintf(stderr, "error: --drop-rates: bad rate '%s'\n", field.c_str());
        return 2;
      }
      cfg.drop_rates.push_back(v);
    }
  } else {
    cfg.drop_rates.push_back(args.double_or("drop-rate", 0.0, 0.0, 1.0));
  }

  const std::string flap_list = args.get_or("flap-durations", "");
  if (!flap_list.empty()) {
    for (const auto& field : split_list(flap_list)) {
      const auto parsed = sim::parse_time(field);
      if (!parsed || *parsed < sim::Time::zero()) {
        std::fprintf(stderr, "error: --flap-durations: bad duration '%s'\n",
                     field.c_str());
        return 2;
      }
      cfg.flap_durations.push_back(*parsed);
    }
  } else {
    const sim::Time d = args.time_or("flap-duration", sim::Time::zero(), sim::Time::zero());
    if (d > sim::Time::zero()) cfg.flap_durations.push_back(d);
  }
  cfg.flap_at = args.time_or("flap-at", 30_ms, sim::Time::zero());

  cfg.fault_template.corrupt_rate = args.double_or("corrupt-rate", 0.0, 0.0, 1.0);
  cfg.fault_template.duplicate_rate = args.double_or("dup-rate", 0.0, 0.0, 1.0);
  cfg.fault_template.reorder_rate = args.double_or("reorder-rate", 0.0, 0.0, 1.0);
  cfg.fault_template.reorder_max_delay = args.time_or("reorder-delay", 50_us, 1_ns);
  cfg.fault_template.ge_good_to_bad = args.double_or("ge-p", 0.0, 0.0, 1.0);
  cfg.fault_template.ge_bad_to_good = args.double_or("ge-r", 0.1, 0.0, 1.0);
  cfg.fault_template.ge_drop_bad = args.double_or("ge-loss-bad", 1.0, 0.0, 1.0);
  cfg.fault_template.ge_drop_good = args.double_or("ge-loss-good", 0.0, 0.0, 1.0);
  cfg.jobs = static_cast<int>(args.int_or("jobs", 0, 0, 1024));
  SharedFlags flags;
  if (const int rc = flags.parse(args, /*sweep=*/true, /*flow_trace=*/false); rc != 0) {
    return rc;
  }
  // Only the baseline is observed: sweep points run on worker threads and
  // must not share the hub (run_resilience_experiment nulls it for them).
  flags.apply(cfg.base);
  cfg.sweep = flags.hard.policy();

  const std::size_t n_points = cfg.drop_rates.size() + cfg.flap_durations.size();
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path,
                  {"faults", core::fnv1a(core::canonical_config(cfg)), n_points},
                  "point(s) already complete (the baseline always re-runs)",
                  /*rerun_first=*/false, cfg, cfg.sweep.on_failure,
                  core::resilience_point_from_payload);

  std::printf("faults: %d-flow %s incast, baseline + %zu fault point(s) (seed %llu)\n",
              cfg.base.num_flows, cc_name.c_str(), n_points,
              static_cast<unsigned long long>(cfg.base.seed));

  const auto report = core::run_resilience_experiment(cfg);

  std::printf("\nbaseline (no faults), mode: %s\n", core::to_string(report.baseline_mode));
  print_burst_table(report.baseline, dumbbell_rows(report.baseline));
  std::printf("events processed (baseline): %llu\n\n",
              static_cast<unsigned long long>(report.baseline.events_processed));

  core::Table t{{"drop-rate", "flap", "avg BCT", "max BCT", "goodput", "timeouts",
                 "fast-rtx", "cong-drops", "inj-drops", "corrupt", "recovery", "mode"}};
  for (const std::size_t i : healthy(report.sweep)) {
    const auto& p = report.points[i];
    const auto& r = p.result;
    t.add_row({core::fmt(p.drop_rate, 6),
               p.flap_duration > sim::Time::zero() ? p.flap_duration.to_string() : "-",
               core::fmt(r.avg_bct_ms, 2) + " ms", core::fmt(r.max_bct_ms, 2) + " ms",
               core::fmt(p.goodput_rel * 100, 1) + " %", std::to_string(r.timeouts),
               std::to_string(r.fast_retransmits), std::to_string(r.queue_drops),
               std::to_string(r.injected_drops), std::to_string(r.injected_corruptions),
               p.recovery_after_flap_ms > 0.0 ? core::fmt(p.recovery_after_flap_ms, 2) + " ms"
                                              : "-",
               core::to_string(p.mode)});
  }
  t.print();

  for (const std::size_t i : healthy(report.sweep)) {
    const auto& p = report.points[i];
    if (p.mode != report.baseline_mode) {
      std::printf("\nmode boundary shifted: baseline %s -> %s at drop-rate %s%s\n",
                  core::to_string(report.baseline_mode), core::to_string(p.mode),
                  core::fmt(p.drop_rate, 6).c_str(),
                  p.flap_duration > sim::Time::zero()
                      ? (" / flap " + p.flap_duration.to_string()).c_str()
                      : "");
      break;
    }
  }
  print_sweep_footer(report.sweep, journal);
  return flags.obs.write_outputs();
}

// Link names contain '.' and "->"; CSV filenames should not.
std::string sanitize_for_filename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
      out.push_back(c);
    } else if (out.empty() || out.back() != '_') {
      out.push_back('_');
    }
  }
  return out;
}

int run_fabric(core::CliArgs& args) {
  core::FabricIncastExperimentConfig cfg;
  cfg.num_flows = static_cast<int>(args.int_or("flows", 96, 1, 100'000));
  cfg.fabric.num_pods = static_cast<int>(args.int_or("pods", 2, 1, 64));
  cfg.fabric.leaves_per_pod = static_cast<int>(args.int_or("leaves", 2, 1, 256));
  cfg.fabric.hosts_per_leaf = static_cast<int>(args.int_or("hosts-per-leaf", 8, 1, 100'000));
  cfg.fabric.aggs_per_pod = static_cast<int>(args.int_or("aggs", 0, 0, 256));
  cfg.fabric.num_spines = static_cast<int>(args.int_or("spines", 2, 1, 256));
  cfg.fabric.host_link =
      args.bandwidth_or("host-link", sim::Bandwidth::gigabits_per_second(10));
  cfg.fabric.leaf_uplink =
      args.bandwidth_or("leaf-uplink", sim::Bandwidth::gigabits_per_second(40));
  cfg.fabric.spine_link =
      args.bandwidth_or("spine-link", sim::Bandwidth::gigabits_per_second(100));
  cfg.fabric.ecmp_seed = static_cast<std::uint64_t>(args.int_or("ecmp-seed", 1));
  cfg.fabric.switch_queue.capacity_packets = args.int_or("queue", 1333, 1, 10'000'000);
  cfg.fabric.switch_queue.ecn_threshold_packets =
      args.int_or("ecn-threshold", 65, 0, 10'000'000);

  const std::string placement = args.get_or("placement", "cross");
  if (placement == "single") {
    cfg.placement = core::FabricIncastExperimentConfig::Placement::kSingleRack;
  } else if (placement != "cross") {
    std::fprintf(stderr, "error: unknown --placement '%s' (cross|single)\n",
                 placement.c_str());
    return 2;
  }

  std::string cc_name;
  if (!parse_workload(args, cfg, 4, sim::Time::seconds(30), cc_name)) return 2;

  const std::string telemetry_prefix = args.get_or("export-telemetry", "");
  SharedFlags flags;
  if (const int rc = flags.parse(args, /*sweep=*/false, /*flow_trace=*/true); rc != 0) {
    return rc;
  }
  flags.apply(cfg);

  const int num_leaves = cfg.fabric.num_pods * cfg.fabric.leaves_per_pod;
  const int uplinks = cfg.fabric.aggs_per_pod > 0 ? cfg.fabric.aggs_per_pod
                                                  : cfg.fabric.num_spines;
  std::printf(
      "fabric: %s Clos, %d pod(s) x %d leaves x %d hosts, %d spine(s)%s\n"
      "        %d-flow %s incast, %s placement (seed %llu, ecmp-seed %llu)\n",
      cfg.fabric.aggs_per_pod > 0 ? "three-tier" : "two-tier", cfg.fabric.num_pods,
      cfg.fabric.leaves_per_pod, cfg.fabric.hosts_per_leaf, cfg.fabric.num_spines,
      cfg.fabric.aggs_per_pod > 0
          ? (", " + std::to_string(cfg.fabric.aggs_per_pod) + " agg(s)/pod").c_str()
          : "",
      cfg.num_flows, cc_name.c_str(), placement.c_str(),
      static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(cfg.fabric.ecmp_seed));
  std::printf("        %d leaves, %d uplink(s)/leaf, oversubscription %.2f:1\n",
              num_leaves, uplinks,
              static_cast<double>(cfg.fabric.hosts_per_leaf) *
                  static_cast<double>(cfg.fabric.host_link.bps()) /
                  (static_cast<double>(uplinks) *
                   static_cast<double>(cfg.fabric.leaf_uplink.bps())));

  const auto r = core::run_fabric_incast_experiment(cfg);

  print_burst_table(r, {{"ECMP path changes", std::to_string(r.ecmp_path_changes)},
                        {"mode", core::to_string(r.mode)},
                        {"events processed", std::to_string(r.events_processed)}});

  // Burst visibility per vantage: the same burst, seen at host NIC, leaf
  // uplinks, and spine ports. Peak 1 ms utilization is the figure of merit —
  // a burst that saturates the host NIC can be invisible at the spine.
  std::printf("\nburst visibility by vantage point:\n");
  core::Table vt{{"tier", "vantage", "peak 1ms util", "busiest bin bytes", "peak queue"}};
  for (const auto& v : r.vantages) {
    std::int64_t busiest = 0;
    for (const auto& b : v.bins) busiest = std::max(busiest, b.bytes);
    vt.add_row({v.tier, v.name, core::fmt(v.peak_utilization() * 100, 1) + " %",
                std::to_string(busiest),
                std::to_string(v.peak_queue_packets()) + " pkts"});
  }
  vt.print();

  std::printf("\nECMP flow spread (distinct flow keys per leaf uplink):\n");
  core::Table et{{"leaf", "flows by uplink"}};
  for (const auto& spread : r.leaf_ecmp) {
    std::string hist;
    for (std::size_t i = 0; i < spread.flows_by_uplink.size(); ++i) {
      if (i > 0) hist += " / ";
      hist += std::to_string(spread.flows_by_uplink[i]);
    }
    et.add_row({"l" + std::to_string(spread.global_leaf), hist});
  }
  et.print();

  if (!telemetry_prefix.empty()) {
    int written = 0;
    for (const auto& v : r.vantages) {
      std::ostringstream csv;
      telemetry::write_bins_csv(v.bins, csv);
      const std::string path = telemetry_prefix + sanitize_for_filename(v.name) + ".csv";
      if (const int rc = write_output(path, csv.str()); rc != 0) return rc;
      ++written;
    }
    std::printf("\nexported %d vantage trace(s) to %s*.csv\n", written,
                telemetry_prefix.c_str());
  }
  return write_incast_outputs(flags, "fabric", cfg.num_flows, r);
}

int run_fleet(core::CliArgs& args) {
  core::FleetConfig cfg;
  const std::string service = args.get_or("service", "aggregator");
  try {
    cfg.profile = workload::service_by_name(service);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "error: unknown --service '%s' (see table1_services)\n",
                 service.c_str());
    return 2;
  }
  cfg.num_hosts = static_cast<int>(args.int_or("hosts", 2, 1, 10'000));
  cfg.num_snapshots = static_cast<int>(args.int_or("snapshots", 1, 1, 10'000));
  cfg.trace_duration = args.time_or("trace", 1_s, 1_ns);
  cfg.base_seed = static_cast<std::uint64_t>(args.int_or("seed", 42));
  cfg.tcp.cc = tcp::CcAlgorithm::kDctcp;
  cfg.tcp.rtt.min_rto = 200_ms;
  const std::string contention = args.get_or("contention", "modeled");
  if (contention == "none") {
    cfg.contention_mode = core::FleetConfig::ContentionMode::kNone;
  } else if (contention == "neighbor") {
    cfg.contention_mode = core::FleetConfig::ContentionMode::kNeighbor;
  } else if (contention != "modeled") {
    std::fprintf(stderr, "error: unknown --contention '%s'\n", contention.c_str());
    return 2;
  }
  const std::string csv_path = args.get_or("export-csv", "");
  cfg.jobs = static_cast<int>(args.int_or("jobs", 0, 0, 1024));
  SharedFlags flags;
  if (const int rc = flags.parse(args, /*sweep=*/true, /*flow_trace=*/false); rc != 0) {
    return rc;
  }
  // The hub observes the (host 0, snapshot 0) cell only, so trace and
  // metrics output is byte-identical at any --jobs value.
  flags.apply(cfg);

  const auto n_cells =
      static_cast<std::size_t>(cfg.num_hosts) * static_cast<std::size_t>(cfg.num_snapshots);
  // Cell 0 is the observed/exported cell: its Millisampler bins and any
  // trace/metrics output are not journaled, so it always re-runs.
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path,
                  {"fleet", core::fnv1a(core::canonical_config(cfg)), n_cells},
                  "cell(s) already complete (cell 0 always re-runs: it owns the exported "
                  "trace)",
                  /*rerun_first=*/true, cfg, cfg.sweep.on_failure,
                  core::host_trace_from_payload);

  std::printf("fleet: %d host(s) x %d snapshot(s) of '%s', %s traces\n", cfg.num_hosts,
              cfg.num_snapshots, service.c_str(), cfg.trace_duration.to_string().c_str());

  core::FleetExperiment exp{cfg};
  exp.set_keep_bins(!csv_path.empty());

  // The grid runs across cfg.jobs workers; results come back ordered by
  // (snapshot, host) index, so the aggregation below — and the exported CSV
  // of trace (host 0, snapshot 0) — is byte-identical at any --jobs value.
  const auto results = exp.run_all();

  const auto& sweep = exp.last_sweep();
  analysis::Cdf freq, dur, flows, marked, retx;
  double util = 0.0;
  std::int64_t drops = 0;
  const std::vector<std::size_t> healthy_cells = healthy(sweep);
  for (const std::size_t i : healthy_cells) {
    const auto& r = results[i];
    util += r.avg_utilization;
    drops += r.queue_drops;
    freq.add(r.summary.bursts_per_second());
    for (const auto& b : r.summary.bursts) {
      dur.add(static_cast<double>(b.num_bins));
      flows.add(static_cast<double>(b.max_active_flows));
      marked.add(b.marked_fraction() * 100);
      retx.add(b.retx_fraction() * 100);
    }
  }
  int export_rc = 0;
  if (!csv_path.empty() && !results.empty()) {
    std::ostringstream csv;
    telemetry::write_bins_csv(results.front().bins, csv);
    // Footer: annotate a partial export so downstream tooling (and humans)
    // can tell "clean sweep" from "some cells missing". '#' lines are
    // skipped by read_bins_csv.
    if (!sweep.failures.empty() || sweep.tasks_not_run > 0) {
      csv << "# quarantined: " << sweep.failures.size() << " cell(s) failed, "
          << sweep.tasks_not_run << " not run\n";
      for (const sim::TaskFailure& f : sweep.failures) {
        csv << "# cell " << f.index << " (seed " << f.seed << ") ["
            << sim::to_string(f.category) << "]: " << f.message << '\n';
      }
    }
    export_rc = write_output(csv_path, csv.str());
    if (export_rc == 0) std::printf("exported host 0 trace to %s\n", csv_path.c_str());
  }

  core::Table t{{"metric", "value"}};
  t.add_row({"avg utilization",
             core::fmt(healthy_cells.empty()
                           ? 0.0
                           : util / static_cast<double>(healthy_cells.size()) * 100,
                       1) +
             " %"});
  t.add_row({"bursts/second (mean)", core::fmt(freq.mean(), 1)});
  t.add_row({"burst duration p50/p99",
             core::fmt(dur.percentile(50), 0) + " / " + core::fmt(dur.percentile(99), 0) +
                 " ms"});
  t.add_row({"flows p50/p99",
             core::fmt(flows.percentile(50), 0) + " / " + core::fmt(flows.percentile(99), 0)});
  t.add_row({"bursts with no marking", core::fmt(100 * marked.fraction_below(0.5), 0) + " %"});
  t.add_row({"bursts with no retx", core::fmt(100 * retx.fraction_below(0.01), 0) + " %"});
  t.add_row({"worst retx fraction", core::fmt(retx.max(), 2) + " %"});
  t.add_row({"ToR drops", std::to_string(drops)});
  t.print();
  print_sweep_footer(sweep, journal);
  const int rc = flags.obs.write_outputs();
  return export_rc != 0 ? export_rc : rc;
}

int run_collateral(core::CliArgs& args) {
  core::CollateralConfig cfg;

  cfg.modes.clear();
  for (const auto& field : split_list(args.get_or("modes", "droptail,pfc,trim,credit"))) {
    core::QueueMode mode;
    if (!core::parse_queue_mode(field, mode)) {
      std::fprintf(stderr, "error: --modes: unknown mode '%s' (droptail|pfc|trim|credit)\n",
                   field.c_str());
      return 2;
    }
    cfg.modes.push_back(mode);
  }
  if (cfg.modes.empty()) {
    std::fprintf(stderr, "error: --modes: empty list\n");
    return 2;
  }
  if (!parse_degrees(args.get_or("degrees", "64"), cfg.degrees)) return 2;

  cfg.num_bursts = static_cast<int>(args.int_or("bursts", 4, 1, 10'000));
  cfg.burst_duration = args.time_or("duration", 15_ms, 1_ns);
  cfg.inter_burst_gap = args.time_or("gap", 10_ms, sim::Time::zero());
  cfg.queue_capacity_packets =
      static_cast<int>(args.int_or("queue", 1333, 1, 10'000'000));
  cfg.ecn_threshold_packets =
      static_cast<int>(args.int_or("ecn-threshold", 65, 0, 10'000'000));
  cfg.trim_queue_capacity_packets =
      static_cast<int>(args.int_or("trim-queue", cfg.trim_queue_capacity_packets, 1,
                                   10'000'000));
  cfg.shared_buffer_bytes =
      args.int_or("shared-buffer", cfg.shared_buffer_bytes, 0, 1'000'000'000);
  cfg.shared_buffer_alpha = args.double_or("dt-alpha", cfg.shared_buffer_alpha, 0.01, 64.0);
  cfg.topology.core_link = args.bandwidth_or("core-link", cfg.topology.core_link);
  cfg.victim_cwnd_cap_bytes =
      args.int_or("victim-cwnd-cap", cfg.victim_cwnd_cap_bytes, 0, 1'000'000'000);
  cfg.max_sim_time = args.time_or("max-sim-time", sim::Time::seconds(30), 1_ns);
  cfg.seed = static_cast<std::uint64_t>(args.int_or("seed", 1));
  cfg.jobs = static_cast<int>(args.int_or("jobs", 0, 0, 1024));
  cfg.tcp.rtt.min_rto = args.time_or("min-rto", 200_ms, 1_ns);

  const auto cc = parse_cc("cc", args.get_or("cc", "dctcp"));
  if (!cc) return 2;
  cfg.tcp.cc = *cc;
  const auto pfc_cc = parse_cc("pfc-cc", args.get_or("pfc-cc", "dcqcn"));
  if (!pfc_cc) return 2;
  cfg.pfc_cc = *pfc_cc;

  const std::string csv_path = args.get_or("export-csv", "");
  SharedFlags flags;
  if (const int rc = flags.parse(args, /*sweep=*/true, /*flow_trace=*/true); rc != 0) {
    return rc;
  }
  flags.apply(cfg);

  const std::size_t n_points = cfg.modes.size() * cfg.degrees.size();
  // Point 0 feeds the hub when observability is on: it always re-runs.
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path,
                  {"collateral", core::fnv1a(core::canonical_config(cfg)), n_points},
                  "point(s) already complete", /*rerun_first=*/cfg.hub != nullptr, cfg,
                  cfg.sweep.on_failure, core::collateral_point_from_payload);

  std::printf("collateral: victim flow vs %d x %s incast bursts, %zu mode(s) x %zu "
              "degree(s) (seed %llu)\n",
              cfg.num_bursts, cfg.burst_duration.to_string().c_str(), cfg.modes.size(),
              cfg.degrees.size(), static_cast<unsigned long long>(cfg.seed));

  const auto report = core::run_collateral_experiment(cfg);

  core::Table t{{"mode", "degree", "victim", "paused", "v-retx", "v-nacks", "avg BCT",
                 "max BCT", "drops", "trims", "pauses", "audit"}};
  for (const std::size_t i : healthy(report.sweep)) {
    const auto& p = report.points[i];
    t.add_row({core::to_string(p.mode), std::to_string(p.degree),
               core::fmt(p.victim_goodput_gbps, 3) + " Gbps",
               core::fmt(p.victim_paused_ms, 2) + " ms",
               std::to_string(p.victim_retransmits), std::to_string(p.victim_nacks),
               core::fmt(p.incast_avg_bct_ms, 2) + " ms",
               core::fmt(p.incast_max_bct_ms, 2) + " ms", std::to_string(p.queue_drops),
               std::to_string(p.trimmed_packets), std::to_string(p.pfc_pause_frames),
               std::to_string(static_cast<long long>(p.audit_violations))});
  }
  t.print();

  if (flags.ft.enabled) {
    print_p99_table("point", report,
                    [](const core::CollateralPoint& p) { return core::to_string(p.mode); });
  }

  print_sweep_footer(report.sweep, journal);

  if (flags.ft.enabled) {
    if (const int rc = flags.ft.write_csv(core::collateral_fct_csv(report)); rc != 0) {
      return rc;
    }
  }

  if (!csv_path.empty()) {
    if (const int rc = write_output(csv_path, core::collateral_csv(report)); rc != 0) return rc;
    std::printf("wrote %zu point(s) to %s\n", report.points.size(), csv_path.c_str());
  }
  return flags.obs.write_outputs();
}

int run_scaling(core::CliArgs& args) {
  core::ScalingConfig cfg;

  const std::string default_degrees = "1,2,4,8,16,32,64,128,256,512,1024,2000,4000,8000";
  if (!parse_degrees(args.get_or("degrees", default_degrees), cfg.degrees)) return 2;

  cfg.fabric.num_pods = static_cast<int>(args.int_or("pods", cfg.fabric.num_pods, 1, 64));
  cfg.fabric.leaves_per_pod =
      static_cast<int>(args.int_or("leaves", cfg.fabric.leaves_per_pod, 1, 64));
  cfg.fabric.hosts_per_leaf =
      static_cast<int>(args.int_or("hosts-per-leaf", cfg.fabric.hosts_per_leaf, 1, 256));
  cfg.fabric.aggs_per_pod =
      static_cast<int>(args.int_or("aggs", cfg.fabric.aggs_per_pod, 0, 64));
  cfg.fabric.num_spines =
      static_cast<int>(args.int_or("spines", cfg.fabric.num_spines, 1, 256));
  cfg.bytes_per_flow = args.int_or("bytes", cfg.bytes_per_flow, 1, 1'000'000'000);
  cfg.max_sim_time = args.time_or("max-sim-time", sim::Time::seconds(120), 1_ns);
  cfg.seed = static_cast<std::uint64_t>(args.int_or("seed", 1));
  cfg.jobs = static_cast<int>(args.int_or("jobs", 0, 0, 1024));
  // --domains absent: the legacy single-queue engine (byte-identical to
  // every release before the parallel engine). --domains 0: the windowed
  // domain engine, one domain per hardware thread. --domains N: N domains.
  const bool domains_given = args.has("domains");
  const int domains_flag = static_cast<int>(args.int_or("domains", 0, 0, 1024));
  cfg.tcp.rtt.min_rto = args.time_or("min-rto", 200_ms, 1_ns);

  const auto cc = parse_cc("cc", args.get_or("cc", "dctcp"));
  if (!cc) return 2;
  cfg.tcp.cc = *cc;

  const std::string csv_path = args.get_or("export-csv", "");
  SharedFlags flags;
  if (const int rc = flags.parse(args, /*sweep=*/true, /*flow_trace=*/true); rc != 0) {
    return rc;
  }
  if (domains_given) {
    // Per-event observability is not sharded across domain queues: the
    // tracer, flow tracer and flight recorder would interleave differently
    // at every N. The N-invariant metrics snapshot (--metrics-out) is fine.
    if (flags.ft.enabled || !flags.obs.trace_out.empty() ||
        !flags.obs.trigger_spec.empty()) {
      std::fprintf(stderr,
                   "error: --domains is incompatible with --flow-trace / --trace-out / "
                   "--flight-recorder (per-event observability is per-engine-queue; "
                   "--metrics-out works on any engine)\n");
      return 2;
    }
    core::Parallelism par;
    std::string perr;
    if (!core::resolve_parallelism(
            cfg.jobs, domains_flag,
            static_cast<int>(std::thread::hardware_concurrency()), par, perr)) {
      std::fprintf(stderr, "error: %s\n", perr.c_str());
      return 2;
    }
    cfg.jobs = par.jobs;
    cfg.domains = par.domains;
  }
  flags.apply(cfg);

  // Point 0 feeds the hub when observability is on: it always re-runs.
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path,
                  {"scaling", core::fnv1a(core::canonical_config(cfg)), cfg.degrees.size()},
                  "degree(s) already complete", /*rerun_first=*/cfg.hub != nullptr, cfg,
                  cfg.sweep.on_failure, core::scaling_point_from_payload);

  const int hosts =
      cfg.fabric.num_pods * cfg.fabric.leaves_per_pod * cfg.fabric.hosts_per_leaf;
  std::printf("scaling: %zu degree(s) of %lld-byte incast into 1 of %d hosts "
              "(seed %llu)\n",
              cfg.degrees.size(), static_cast<long long>(cfg.bytes_per_flow), hosts,
              static_cast<unsigned long long>(cfg.seed));

  const auto report = core::run_scaling_experiment(cfg);

  core::Table t{{"degree", "FCT", "optimal", "overhead", "done", "timeouts", "retx",
                 "drops", "B/flow", "audit"}};
  for (const std::size_t i : healthy(report.sweep)) {
    const auto& p = report.points[i];
    t.add_row({std::to_string(p.degree), core::fmt(p.fct_ms, 2) + " ms",
               core::fmt(p.optimal_ms, 2) + " ms", core::fmt(p.overhead_pct, 1) + " %",
               std::to_string(p.completed_flows), std::to_string(p.timeouts),
               std::to_string(p.retransmits), std::to_string(p.queue_drops),
               std::to_string(static_cast<long long>(p.bytes_per_flow)),
               std::to_string(static_cast<long long>(p.audit_violations))});
  }
  t.print();

  if (flags.ft.enabled) {
    print_p99_table("degree", report, [](const core::ScalingPoint&) { return "scaling"; });
  }

  if (cfg.domains >= 1) {
    // Execution diagnostics, not results: everything here except `windows`
    // and the histogram varies with --domains and machine load, which is
    // why it goes to stdout instead of the (byte-stable) CSV.
    std::printf("\nparallel engine: %d domain(s) per point, conservative windows:\n",
                cfg.domains);
    core::Table pt{{"degree", "windows", "bridged", "stall", "ev/domain min..max",
                    "windows w/ 0|<=8|>8 events"}};
    for (const std::size_t i : healthy(report.sweep)) {
      const auto& p = report.points[i];
      if (p.parallel_domains == 0) continue;  // resumed from a journal
      std::uint64_t ev_min = 0, ev_max = 0;
      for (const std::uint64_t ev : p.events_per_domain) {
        if (ev_min == 0 || ev < ev_min) ev_min = ev;
        if (ev > ev_max) ev_max = ev;
      }
      // Fold the log2 histogram into empty / small / busy windows.
      std::uint64_t empty = p.window_hist[0], small = 0, busy = 0;
      for (std::size_t b = 1; b < p.window_hist.size(); ++b) {
        (b <= 3 ? small : busy) += p.window_hist[b];
      }
      pt.add_row({std::to_string(p.degree),
                  std::to_string(static_cast<unsigned long long>(p.windows)),
                  std::to_string(static_cast<unsigned long long>(p.packets_bridged)),
                  core::fmt(static_cast<double>(p.barrier_stall_ns) / 1e6, 1) + " ms",
                  std::to_string(static_cast<unsigned long long>(ev_min)) + ".." +
                      std::to_string(static_cast<unsigned long long>(ev_max)),
                  std::to_string(static_cast<unsigned long long>(empty)) + " | " +
                      std::to_string(static_cast<unsigned long long>(small)) + " | " +
                      std::to_string(static_cast<unsigned long long>(busy))});
    }
    pt.print();
  }

  print_sweep_footer(report.sweep, journal);

  if (flags.ft.enabled) {
    if (const int rc = flags.ft.write_csv(core::scaling_fct_csv(report)); rc != 0) return rc;
  }

  if (!csv_path.empty()) {
    if (const int rc = write_output(csv_path, core::scaling_csv(report)); rc != 0) return rc;
    std::printf("wrote %zu point(s) to %s\n", report.points.size(), csv_path.c_str());
  }
  return flags.obs.write_outputs();
}

int run_chaos(core::CliArgs& args) {
  core::ChaosConfig cfg;
  cfg.num_configs = static_cast<int>(args.int_or("configs", 25, 1, 100'000));
  cfg.seed = static_cast<std::uint64_t>(args.int_or("seed", 7));
  cfg.jobs = static_cast<int>(args.int_or("jobs", 0, 0, 1024));
  cfg.max_events_per_run = static_cast<std::uint64_t>(
      args.int_or("max-events", 20'000'000, 1, 1'000'000'000'000));
  cfg.max_wall_ms_per_run = args.double_or("max-wall-ms", 0.0, 0.0, 1e9);
  const std::string journal_path = args.get_or("journal", "");
  if (const int rc = finish(args); rc != 0) return rc;
  cfg.cancel = &g_cancel;

  core::TaskJournal journal;
  journaled_sweep(journal, journal_path,
                  {"chaos", core::fnv1a(core::canonical_config(cfg)),
                   static_cast<std::uint64_t>(cfg.num_configs)},
                  "config(s) already survived", /*rerun_first=*/false, cfg, cfg.on_failure,
                  core::chaos_run_from_payload);

  std::printf("chaos: %d random config(s), seed %llu, strict auditor, "
              "budget %llu events/run\n",
              cfg.num_configs, static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.max_events_per_run));

  const core::ChaosReport report = core::run_chaos(cfg);

  for (const std::size_t i : healthy(report.sweep)) {
    std::printf("  ok   #%-3zu %-90s %llu events\n", i, report.runs[i].description.c_str(),
                static_cast<unsigned long long>(report.runs[i].events_processed));
  }
  for (const sim::TaskFailure& f : report.sweep.failures) {
    std::printf("  FAIL #%-3zu (seed %llu) [%s]: %s\n", f.index,
                static_cast<unsigned long long>(f.seed), sim::to_string(f.category),
                f.message.c_str());
  }
  print_sweep_footer(report.sweep, journal);

  if (!report.sweep.failures.empty()) {
    std::fprintf(stderr, "chaos: %zu of %d config(s) violated an invariant or budget\n",
                 report.sweep.failures.size(), cfg.num_configs);
    return 4;
  }
  return 0;
}

int run_trace(core::CliArgs& args) {
  const auto input = args.get("input");
  if (!input) {
    std::fprintf(stderr, "error: trace requires --input <csv>\n");
    return 2;
  }
  const sim::Bandwidth line_rate =
      args.bandwidth_or("line-rate", sim::Bandwidth::gigabits_per_second(10));
  if (const int rc = finish(args); rc != 0) return rc;

  // read_bins_csv_file throws std::runtime_error on missing/malformed
  // input; re-categorize as an I/O failure (exit 3) for the top-level
  // handler in main.
  std::vector<telemetry::Millisampler::Bin> bins;
  try {
    bins = telemetry::read_bins_csv_file(*input);
  } catch (const std::runtime_error& e) {
    throw core::Error{core::ErrorCategory::kIo, e.what()};
  }

  const analysis::BurstDetector detector;
  const auto bursts = detector.detect(bins, line_rate.bytes_in(1_ms));
  std::printf("%zu bins, %zu bursts detected\n", bins.size(), bursts.size());
  core::Table t{{"t (ms)", "dur (ms)", "flows", "incast?", "marked%", "retx%"}};
  for (const auto& b : bursts) {
    t.add_row({std::to_string(b.first_bin), std::to_string(b.num_bins),
               std::to_string(b.max_active_flows), detector.is_incast(b) ? "yes" : "no",
               core::fmt(b.marked_fraction() * 100, 1),
               core::fmt(b.retx_fraction() * 100, 2)});
  }
  t.print();
  return 0;
}

int run_catalog_row(core::CliArgs& args) {
  if (const int rc = finish(args); rc != 0) return rc;
  const auto& ids = args.positional();
  const core::CatalogRow* row = ids.size() == 1 ? core::find_row(ids[0]) : nullptr;
  if (row == nullptr) {
    std::fprintf(stderr, "usage: incast_sim run <id>, one of:\n");
    for (const auto& r : core::catalog()) {
      std::fprintf(stderr, "  %-24s %s\n", r.id.c_str(), r.title.c_str());
    }
    return 2;
  }
  const core::Scale scale = core::scale_from_env();
  const auto runs = core::run_row(
      *row, scale, [](core::IncastExperimentConfig& c) { c.audit.cancel = &g_cancel; });
  core::print_row(*row, scale, runs);
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  core::CliArgs args{argc - 1, argv + 1};

  if (command == "burst") return run_burst(args);
  if (command == "faults") return run_faults(args);
  if (command == "fabric") return run_fabric(args);
  if (command == "fleet") return run_fleet(args);
  if (command == "collateral") return run_collateral(args);
  if (command == "scaling") return run_scaling(args);
  if (command == "trace") return run_trace(args);
  if (command == "chaos") return run_chaos(args);
  if (command == "run") return run_catalog_row(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Anything the subcommands throw becomes a clean diagnostic with a
  // documented exit code instead of std::terminate. See the exit-code table
  // in the header comment.
  try {
    const int rc = dispatch(argc, argv);
    if (const int sig = g_signal.load(std::memory_order_relaxed); sig != 0) {
      return 128 + sig;  // 130 = SIGINT, 143 = SIGTERM
    }
    return rc;
  } catch (const core::Error& e) {
    std::fprintf(stderr, "error [%s]: %s\n", core::to_string(e.category()), e.what());
    return core::exit_code(e.category());
  } catch (const sim::RunCancelled&) {
    const int sig = g_signal.load(std::memory_order_relaxed);
    return sig != 0 ? 128 + sig : core::exit_code(core::ErrorCategory::kAudit);
  } catch (const sim::AuditFailure& e) {
    std::fprintf(stderr, "error [audit]: %s\n", e.what());
    return core::exit_code(core::ErrorCategory::kAudit);
  } catch (const sim::BudgetExceeded& e) {
    std::fprintf(stderr, "error [budget]: %s\n", e.what());
    return core::exit_code(core::ErrorCategory::kAudit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error [internal]: %s\n", e.what());
    return core::exit_code(core::ErrorCategory::kInternal);
  }
}
