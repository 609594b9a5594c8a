// incast_sim — command-line driver for custom experiments.
//
// `incast_sim` alone lists the subcommands (the kSubcommands table at the
// bottom). Each subcommand declares a flag once, at the CliArgs call that
// reads it, with its default, range and help; any usage error, `--help`
// included, prints the errors and then that list.
//
// --jobs N runs the independent simulations of a sweep on N worker
// threads. Seeds derive from (base seed, task index), so any N yields
// byte-identical results; so do the trace, metrics and flow-trace outputs,
// which observe one fixed run (the faults baseline, the fleet's (host 0,
// snapshot 0) cell, a grid's point 0).
//
// Exit codes: 0 success; 2 bad invocation or config/journal mismatch;
// 3 file I/O failure; 4 audit violation or budget exceeded (strict) or
// chaos failures; 5 internal error; 130/143 after SIGINT/SIGTERM.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
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
#include "core/run_harness.h"
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

// Validates strictly: unknown flags and out-of-range values are errors, not
// warnings, so a typo'd or nonsensical invocation fails loudly. Call once
// every flag is read and checked; dispatch() prints the errors and the
// subcommand's flag list.
int finish(core::CliArgs& args) {
  args.reject_unknown();
  return args.errors().empty() ? 0 : 2;
}

// --jobs and --journal, the one declaration of every journaled sweep's
// worker count and checkpoint journal.
void read_sweep(core::CliArgs& args, int& jobs, std::string& journal) {
  jobs = 0;
  args.read("jobs", jobs, 0, 1024, "sweep worker threads, 0 = every hardware thread");
  args.read("journal", journal, "append-only checkpoint journal; rerun to resume");
}

// The switch queue of the dumbbell's bottleneck and of every fabric switch.
void read_queue(core::CliArgs& args, net::DropTailQueue::Config& queue) {
  args.read("queue", queue.capacity_packets, 1, 10'000'000, "switch queue capacity, packets");
  args.read("ecn-threshold", queue.ecn_threshold_packets, 0, 10'000'000, "ECN threshold, packets");
}

// --cc and --pfc-cc take exactly the names tcp::to_string prints.
void read_cc(core::CliArgs& args, const char* key, tcp::CcAlgorithm& cc, const char* help) {
  using enum tcp::CcAlgorithm;
  args.choice(key, cc, {kReno, kRenoEcn, kDctcp, kCubic, kSwift, kHpcc, kDcqcn}, tcp::to_string,
              help);
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

// The observability flags shared by every simulation subcommand. Reading
// constructs a Hub only when some flag asks for one, so an unobserved
// invocation never allocates observability state at all.
struct ObsCli {
  std::string trace_out;
  std::string metrics_out;
  std::string trigger_spec;
  std::string dump_prefix{"flight_"};
  std::unique_ptr<obs::Hub> hub;
  int dump_write_errors{0};

  void read(core::CliArgs& args) {
    args.read("trace-out", trace_out, "write a Chrome trace-event JSON of the run");
    args.read("metrics-out", metrics_out, "write the end-of-run metrics snapshot as JSON");
    args.read("flight-recorder", trigger_spec,
              "arm the flight recorder: rto-storm[:N[:ms]], queue-collapse[:pkts], mode-shift");
    args.read("flight-recorder-out", dump_prefix, "flight dump n is written to <prefix><n>.json");
    if (trace_out.empty() && metrics_out.empty() && trigger_spec.empty()) return;

    hub = std::make_unique<obs::Hub>();
    hub->tracer().set_enabled(!trace_out.empty());
    if (!trigger_spec.empty()) {
      const auto trigger = obs::parse_trigger(trigger_spec);
      if (!trigger) {
        args.fail("bad --flight-recorder spec '" + trigger_spec + "'");
        return;
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
struct FlowTraceCli : core::FlowTraceOptions {
  std::string out_path;

  void read(core::CliArgs& args) {
    args.read("flow-trace", flow_trace, "split each sampled flow's FCT into its causes");
    args.read("flow-trace-out", out_path, "write p50/p99/p999 causes as CSV; sets --flow-trace");
    args.read("flow-trace-sample", flow_trace_sample_every, 1, 1'000'000'000, "trace 1 in N flows");
    flow_trace = flow_trace || !out_path.empty();
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
// journal.
struct HardeningCli : core::AuditOptions {
  int jobs{0};
  std::string journal_path;
  bool fail_fast{false};
  int retries{1};

  void read(core::CliArgs& args, bool sweep_flags) {
    using enum sim::AuditMode;
    args.choice("audit", audit_mode, {kOff, kRelaxed, kStrict}, sim::to_string,
                "invariant auditor: relaxed counts violations, strict exits 4 on one");
    args.read("max-events", audit.max_events, 0, 1'000'000'000'000, "event budget, 0 = none");
    args.read("max-wall-ms", audit.max_wall_ms, 0.0, 1e9, "wall-clock budget in ms, 0 = none");
    audit.cancel = &g_cancel;
    if (sweep_flags) {
      read_sweep(args, jobs, journal_path);
      args.read("fail-fast", fail_fast, "abort the sweep on a failed point, not quarantine it");
      args.read("retries", retries, 0, 16, "same-seed retries of a failed point");
    }
  }

  // Hands --jobs and the sweep policy to a sweep config.
  template <typename Result>
  void apply_sweep(core::SweepOptions<Result>& options) const {
    options.jobs = jobs;
    options.sweep = {.fail_fast = fail_fast, .max_attempts = 1 + retries, .cancel = &g_cancel};
  }
};

// Every flag family of a simulation subcommand: run hardening (plus sweep
// isolation and --journal for sweeps), tail autopsy where the subcommand
// traces flows, and observability.
struct SharedFlags {
  HardeningCli hard;
  FlowTraceCli ft;
  ObsCli obs;

  SharedFlags(core::CliArgs& args, bool sweep, bool flow_trace) {
    hard.read(args, sweep);
    if (flow_trace) ft.read(args);
    obs.read(args);
  }

  // Hands the parsed hub, auditor settings, --jobs, sweep policy and tracer
  // to an experiment config.
  template <typename Config>
  void apply(Config& cfg) const {
    cfg.hub = obs.hub.get();
    static_cast<core::AuditOptions&>(cfg) = hard;
    if constexpr (requires { cfg.sweep; }) hard.apply_sweep(cfg);
    if constexpr (std::is_base_of_v<core::FlowTraceOptions, Config>) {
      static_cast<core::FlowTraceOptions&>(cfg) = ft;
    }
  }
};

// Wires the `tasks`-point sweep of `command` to --journal (no-op without
// one): opens the journal under cfg's fingerprint, refusing one a different
// run wrote; prints the resume banner ("resuming, k/N <progress>"); records
// every failure and fresh result; and replays completed tasks instead of
// re-running them — except task 0 when `rerun_first`, because it owns
// output the journal does not hold (an exported trace, the hub's trace and
// metrics). Determinism makes that re-run exact. Call once cfg is final.
template <typename Config, typename Result>
void journaled_sweep(core::TaskJournal& journal, const std::string& path, const char* command,
                     std::size_t tasks, const char* progress, bool rerun_first, Config& cfg,
                     Result (*decode)(const core::Json&)) {
  if (path.empty()) return;
  const core::JournalHeader header{command, core::fnv1a(core::canonical_config(cfg)), tasks};
  journal.open(path, header);
  if (journal.completed_count() > 0) {
    std::printf("journal %s: resuming, %zu/%llu %s\n", journal.path().c_str(),
                journal.completed_count(), static_cast<unsigned long long>(header.tasks),
                progress);
  }
  cfg.sweep.on_failure = [&journal](const sim::TaskFailure& f) { journal.record_failure(f); };
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
void read_workload(core::CliArgs& args, core::CyclicIncastSettings& cfg) {
  args.read("duration", cfg.burst_duration, 1_ns, "length of each burst");
  args.read("bursts", cfg.num_bursts, 1, 10'000, "bursts to simulate");
  // The default discard must fit a short run; an explicit one is checked.
  cfg.discard_bursts = std::min(cfg.discard_bursts, std::max(cfg.num_bursts - 1, 0));
  args.read("discard", cfg.discard_bursts, 0, cfg.num_bursts - 1, "leading bursts not measured");
  args.read("gap", cfg.inter_burst_gap, sim::Time::zero(), "idle time between bursts");
  args.read("seed", cfg.seed, "base random seed");
  args.read("max-sim-time", cfg.max_sim_time, 1_ns, "simulated-time limit of the run");
  read_cc(args, "cc", cfg.tcp.cc, "congestion control of the senders");
  args.read("min-rto", cfg.tcp.rtt.min_rto, 1_ns, "minimum retransmission timeout");
  using enum workload::BurstSchedule;
  args.choice("schedule", cfg.schedule, {kAfterCompletion, kFixedPeriod},
              [](workload::BurstSchedule s) { return s == kFixedPeriod ? "period" : "completion"; },
              "next burst a gap after the last completes, or a period after it began");
}

// Shared between `burst` and `faults` so the two subcommands agree on every
// default — `faults` with all fault knobs at zero must reproduce `burst`.
void read_incast_config(core::CliArgs& args, core::IncastExperimentConfig& cfg) {
  cfg.num_flows = 500;
  cfg.max_sim_time = sim::Time::seconds(60);
  args.read("flows", cfg.num_flows, 1, 100'000, "senders in the incast");
  read_workload(args, cfg);
  args.read("tlp", cfg.tcp.tail_loss_probe, "enable tail loss probes");
  read_queue(args, cfg.topology.switch_queue);
  std::int64_t cap_mss = 0;
  args.read("cwnd-cap-mss", cap_mss, 0, 1'000'000, "cap every sender's cwnd at N MSS, 0 = none");
  if (cap_mss > 0) cfg.tcp.cwnd_cap_bytes = cap_mss * cfg.tcp.mss_bytes;
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
  if (flags.ft.flow_trace) {
    print_fct_attribution(r.fct_rows, r.flow_breakdowns.size(), r.flow_trace_incomplete);
    std::string csv = obs::fct_breakdown_csv_header();
    obs::append_fct_breakdown_csv(csv, mode, num_flows, r.fct_rows);
    if (const int rc = flags.ft.write_csv(csv); rc != 0) return rc;
  }
  return flags.obs.write_outputs();
}

int run_burst(core::CliArgs& args) {
  core::IncastExperimentConfig cfg;
  read_incast_config(args, cfg);
  SharedFlags flags{args, /*sweep=*/false, /*flow_trace=*/true};
  if (const int rc = finish(args); rc != 0) return rc;
  flags.apply(cfg);

  std::printf("burst: %d x %s bursts of a %d-flow %s incast (seed %llu)\n",
              cfg.num_bursts, cfg.burst_duration.to_string().c_str(), cfg.num_flows,
              tcp::to_string(cfg.tcp.cc), static_cast<unsigned long long>(cfg.seed));
  const auto r = core::run_incast_experiment(cfg);
  print_burst_table(r, dumbbell_rows(r));
  return write_incast_outputs(flags, "burst", cfg.num_flows, r);
}

int run_faults(core::CliArgs& args) {
  core::ResilienceConfig cfg;
  read_incast_config(args, cfg.base);

  // Sweep axes: the singular forms give one point, which a list replaces.
  double drop_rate = 0.0;
  args.read("drop-rate", drop_rate, 0.0, 1.0, "injected drop probability of the one point");
  cfg.drop_rates = {drop_rate};
  args.list("drop-rates", cfg.drop_rates, 0.0, 1.0, "sweep of injected drop probabilities");
  sim::Time flap = sim::Time::zero();
  args.read("flap-duration", flap, sim::Time::zero(), "the one link flap's length, 0 = none");
  if (flap > sim::Time::zero()) cfg.flap_durations = {flap};
  args.list("flap-durations", cfg.flap_durations, sim::Time::zero(), sim::Time::infinity(),
            "sweep of link-flap lengths");
  args.read("flap-at", cfg.flap_at, sim::Time::zero(), "absolute sim time of every flap");

  fault::LinkFaultConfig& f = cfg.fault_template;
  args.read("corrupt-rate", f.corrupt_rate, 0.0, 1.0, "per-packet corruption probability");
  args.read("dup-rate", f.duplicate_rate, 0.0, 1.0, "per-packet duplication probability");
  args.read("reorder-rate", f.reorder_rate, 0.0, 1.0, "per-packet reordering probability");
  args.read("reorder-delay", f.reorder_max_delay, 1_ns, "largest delay of a reordered packet");
  args.read("ge-p", f.ge_good_to_bad, 0.0, 1.0, "Gilbert-Elliott good-to-bad probability");
  args.read("ge-r", f.ge_bad_to_good, 0.0, 1.0, "Gilbert-Elliott bad-to-good probability");
  args.read("ge-loss-bad", f.ge_drop_bad, 0.0, 1.0, "drop probability in the bad state");
  args.read("ge-loss-good", f.ge_drop_good, 0.0, 1.0, "drop probability in the good state");
  SharedFlags flags{args, /*sweep=*/true, /*flow_trace=*/false};
  for (const std::string one : {"drop-rate", "flap-duration"}) {
    if (args.has(one) && args.has(one + "s")) {
      args.fail("--" + one + " and --" + one + "s are mutually exclusive");
    }
  }
  if (const int rc = finish(args); rc != 0) return rc;
  // Only the baseline is observed: it runs before the sweep, whose points
  // get no hub.
  flags.apply(cfg.base);
  flags.hard.apply_sweep(cfg);

  const std::size_t n_points = cfg.drop_rates.size() + cfg.flap_durations.size();
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path, "faults", n_points,
                  "point(s) already complete (the baseline always re-runs)",
                  /*rerun_first=*/false, cfg, core::resilience_point_from_payload);

  std::printf("faults: %d-flow %s incast, baseline + %zu fault point(s) (seed %llu)\n",
              cfg.base.num_flows, tcp::to_string(cfg.base.tcp.cc), n_points,
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

const char* placement_name(core::FabricIncastExperimentConfig::Placement p) {
  return p == core::FabricIncastExperimentConfig::Placement::kSingleRack ? "single" : "cross";
}

int run_fabric(core::CliArgs& args) {
  core::FabricIncastExperimentConfig cfg;
  fabric::FatTreeConfig& fab = cfg.fabric;
  args.read("flows", cfg.num_flows, 1, 100'000, "senders in the incast");
  args.read("pods", fab.num_pods, 1, 64, "pods");
  args.read("leaves", fab.leaves_per_pod, 1, 256, "leaf switches per pod");
  args.read("hosts-per-leaf", fab.hosts_per_leaf, 1, 100'000, "hosts per leaf");
  args.read("aggs", fab.aggs_per_pod, 0, 256, "aggregation switches per pod, 0 = two tiers");
  args.read("spines", fab.num_spines, 1, 256, "spine switches");
  args.read("host-link", fab.host_link, "host link rate");
  args.read("leaf-uplink", fab.leaf_uplink, "leaf uplink rate");
  args.read("spine-link", fab.spine_link, "aggregation-to-spine link rate");
  args.read("ecmp-seed", fab.ecmp_seed, "seed of every switch's ECMP hash");
  read_queue(args, fab.switch_queue);
  using enum core::FabricIncastExperimentConfig::Placement;
  args.choice("placement", cfg.placement, {kCrossRack, kSingleRack}, placement_name,
              "senders spread over the other racks, or packed onto one leaf");
  read_workload(args, cfg);
  std::string telemetry_prefix;
  args.read("export-telemetry", telemetry_prefix, "write a CSV per vantage to <prefix><link>.csv");
  SharedFlags flags{args, /*sweep=*/false, /*flow_trace=*/true};
  if (const int rc = finish(args); rc != 0) return rc;
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
      cfg.num_flows, tcp::to_string(cfg.tcp.cc), placement_name(cfg.placement),
      static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(cfg.fabric.ecmp_seed));
  std::printf("        %d leaves, %d uplink(s)/leaf, oversubscription %.2f:1\n",
              num_leaves, uplinks,
              static_cast<double>(cfg.fabric.hosts_per_leaf) *
                  static_cast<double>(cfg.fabric.host_link.bps()) /
                  (static_cast<double>(uplinks) *
                   static_cast<double>(cfg.fabric.leaf_uplink.bps())));

  const auto r = core::run_fabric_incast_experiment(cfg);

  print_burst_table(r, {{"mode", core::to_string(r.mode)},
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
  cfg.num_hosts = 2;
  cfg.num_snapshots = 1;
  std::string service = "aggregator";
  args.read("service", service, "service profile (see incast_sim run table1_services)");
  args.read("hosts", cfg.num_hosts, 1, 10'000, "measured hosts");
  args.read("snapshots", cfg.num_snapshots, 1, 10'000, "trace snapshots per host");
  args.read("trace", cfg.trace_duration, 1_ns, "length of each trace");
  args.read("seed", cfg.base_seed, "base random seed");
  using enum core::FleetConfig::ContentionMode;
  args.choice("contention", cfg.contention_mode, {kNone, kModeled, kNeighbor},
              [](auto c) {
                return c == kNone ? "none" : c == kModeled ? "modeled" : "neighbor";
              },
              "rack contention: none, a modeled on/off process, or a real neighbor");
  std::string csv_path;
  args.read("export-csv", csv_path, "write host 0's Millisampler bins as CSV");
  SharedFlags flags{args, /*sweep=*/true, /*flow_trace=*/false};
  try {
    cfg.profile = workload::service_by_name(service);
  } catch (const std::out_of_range&) {
    args.fail("unknown --service '" + service + "' (see incast_sim run table1_services)");
  }
  if (const int rc = finish(args); rc != 0) return rc;
  // The hub observes the (host 0, snapshot 0) cell only, so trace and
  // metrics output is byte-identical at any --jobs value.
  flags.apply(cfg);

  const auto n_cells =
      static_cast<std::size_t>(cfg.num_hosts) * static_cast<std::size_t>(cfg.num_snapshots);
  // Cell 0 is the observed/exported cell: its Millisampler bins and any
  // trace/metrics output are not journaled, so it always re-runs.
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path, "fleet", n_cells,
                  "cell(s) already complete (cell 0 always re-runs: it owns the exported "
                  "trace)",
                  /*rerun_first=*/true, cfg, core::host_trace_from_payload);

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
  using enum core::QueueMode;
  args.list("modes", cfg.modes, {kDropTail, kPfc, kTrim, kCredit}, core::to_string,
            "queue modes to compare");
  args.list("degrees", cfg.degrees, 1, 100'000, "incast fan-ins");
  args.read("bursts", cfg.num_bursts, 1, 10'000, "incast bursts");
  args.read("duration", cfg.burst_duration, 1_ns, "length of each burst");
  args.read("gap", cfg.inter_burst_gap, sim::Time::zero(), "idle time between bursts");
  args.read("queue", cfg.queue_capacity_packets, 1, 10'000'000, "queue capacity in packets");
  args.read("ecn-threshold", cfg.ecn_threshold_packets, 0, 10'000'000, "ECN threshold, packets");
  args.read("trim-queue", cfg.trim_queue_capacity_packets, 1, 10'000'000, "trim queue in packets");
  args.read("shared-buffer", cfg.shared_buffer_bytes, 0, 1'000'000'000, "shared pool, 0 = none");
  args.read("dt-alpha", cfg.shared_buffer_alpha, 0.01, 64.0, "dynamic-threshold alpha of the pool");
  args.read("core-link", cfg.topology.core_link, "inter-ToR link rate");
  args.read("victim-cwnd-cap", cfg.victim_cwnd_cap_bytes, 0, 1'000'000'000, "victim cwnd cap in B");
  args.read("max-sim-time", cfg.max_sim_time, 1_ns, "simulated-time limit of each point");
  args.read("seed", cfg.seed, "base random seed");
  args.read("min-rto", cfg.tcp.rtt.min_rto, 1_ns, "minimum retransmission timeout");
  read_cc(args, "cc", cfg.tcp.cc, "congestion control outside the pfc mode");
  read_cc(args, "pfc-cc", cfg.pfc_cc, "congestion control of the pfc mode");
  std::string csv_path;
  args.read("export-csv", csv_path, "write one row per point as CSV");
  SharedFlags flags{args, /*sweep=*/true, /*flow_trace=*/true};
  if (const int rc = finish(args); rc != 0) return rc;
  flags.apply(cfg);

  const std::size_t n_points = cfg.modes.size() * cfg.degrees.size();
  // Point 0 feeds the hub when observability is on: it always re-runs.
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path, "collateral", n_points,
                  "point(s) already complete", /*rerun_first=*/cfg.hub != nullptr, cfg,
                  core::collateral_point_from_payload);

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

  if (flags.ft.flow_trace) {
    print_p99_table("point", report,
                    [](const core::CollateralPoint& p) { return core::to_string(p.mode); });
  }

  print_sweep_footer(report.sweep, journal);

  if (flags.ft.flow_trace) {
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
  fabric::FatTreeConfig& fab = cfg.fabric;
  args.list("degrees", cfg.degrees, 1, 100'000, "incast fan-ins");
  args.read("pods", fab.num_pods, 1, 64, "pods");
  args.read("leaves", fab.leaves_per_pod, 1, 64, "leaf switches per pod");
  args.read("hosts-per-leaf", fab.hosts_per_leaf, 1, 256, "hosts per leaf");
  args.read("aggs", fab.aggs_per_pod, 0, 64, "aggregation switches per pod, 0 = two tiers");
  args.read("spines", fab.num_spines, 1, 256, "spine switches");
  args.read("bytes", cfg.bytes_per_flow, 1, 1'000'000'000, "bytes each sender transfers");
  args.read("max-sim-time", cfg.max_sim_time, 1_ns, "simulated-time limit of each point");
  args.read("seed", cfg.seed, "base random seed");
  // --domains absent: the legacy single-queue engine (byte-identical to
  // every release before the parallel engine). --domains 0: the windowed
  // domain engine, one domain per hardware thread. --domains N: N domains.
  const bool domains_given = args.has("domains");
  int domains_flag = 0;
  args.read("domains", domains_flag, 0, 1024,
            "run the rack-domain engine, 0 = a domain per thread; absent = one queue");
  args.read("min-rto", cfg.tcp.rtt.min_rto, 1_ns, "minimum retransmission timeout");
  read_cc(args, "cc", cfg.tcp.cc, "congestion control of the senders");
  std::string csv_path;
  args.read("export-csv", csv_path, "write one row per degree as CSV");
  SharedFlags flags{args, /*sweep=*/true, /*flow_trace=*/true};
  core::Parallelism par;
  if (domains_given) {
    // Per-event observability is not sharded across domain queues: the
    // tracer, flow tracer and flight recorder would interleave differently
    // at every N. The N-invariant metrics snapshot (--metrics-out) is fine.
    if (flags.ft.flow_trace || !flags.obs.trace_out.empty() ||
        !flags.obs.trigger_spec.empty()) {
      args.fail("--domains is incompatible with --flow-trace / --trace-out / --flight-recorder "
                "(per-event observability is per engine queue; --metrics-out works anywhere)");
    }
    std::string perr;
    const auto threads = static_cast<int>(std::thread::hardware_concurrency());
    if (!core::resolve_parallelism(flags.hard.jobs, domains_flag, threads, par, perr)) {
      args.fail(perr);
    }
  }
  if (const int rc = finish(args); rc != 0) return rc;
  flags.apply(cfg);
  if (domains_given) {
    cfg.jobs = par.jobs;
    cfg.domains = par.domains;
  }

  // Point 0 feeds the hub when observability is on: it always re-runs.
  core::TaskJournal journal;
  journaled_sweep(journal, flags.hard.journal_path, "scaling", cfg.degrees.size(),
                  "degree(s) already complete", /*rerun_first=*/cfg.hub != nullptr, cfg,
                  core::scaling_point_from_payload);

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

  if (flags.ft.flow_trace) {
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

  if (flags.ft.flow_trace) {
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
  args.read("configs", cfg.num_configs, 1, 100'000, "random configurations to run");
  args.read("seed", cfg.seed, "generator seed: the same seed gives the same configurations");
  std::string journal_path;
  read_sweep(args, cfg.jobs, journal_path);
  args.read("max-events", cfg.max_events_per_run, 1, 1'000'000'000'000, "event budget per run");
  args.read("max-wall-ms", cfg.max_wall_ms_per_run, 0.0, 1e9, "wall-clock ms per run, 0 = none");
  if (const int rc = finish(args); rc != 0) return rc;
  cfg.sweep.cancel = &g_cancel;

  core::TaskJournal journal;
  journaled_sweep(journal, journal_path, "chaos", static_cast<std::size_t>(cfg.num_configs),
                  "config(s) already survived", /*rerun_first=*/false, cfg,
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
  std::string input;
  args.read("input", input, "Millisampler CSV to scan for bursts (required)");
  sim::Bandwidth line_rate = sim::Bandwidth::gigabits_per_second(10);
  args.read("line-rate", line_rate, "line rate of the traced link");
  if (!args.has("input")) args.fail("trace requires --input <csv>");
  if (const int rc = finish(args); rc != 0) return rc;

  // read_bins_csv_file throws std::runtime_error on missing/malformed
  // input; re-categorize as an I/O failure (exit 3) for the top-level
  // handler in main.
  std::vector<telemetry::Millisampler::Bin> bins;
  try {
    bins = telemetry::read_bins_csv_file(input);
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
  core::AuditOptions audit;
  audit.audit.cancel = &g_cancel;
  core::run_and_print(*row, core::scale_from_env(), audit);
  return 0;
}

struct Subcommand {
  const char* name;
  const char* summary;
  int (*run)(core::CliArgs&);
};

constexpr Subcommand kSubcommands[] = {
    {"burst", "the Section 4 cyclic incast on the dumbbell", run_burst},
    {"faults", "the cyclic incast under injected link faults, swept", run_faults},
    {"fabric", "the cyclic incast across a Clos fabric, seen per tier", run_fabric},
    {"fleet", "Section 3 production-like traces and their bursts", run_fleet},
    {"collateral", "a victim flow beside an incast, per queue mode", run_collateral},
    {"scaling", "N senders' transfers on the 432-host fat-tree, N swept", run_scaling},
    {"trace", "the burst detector on an exported Millisampler CSV", run_trace},
    {"chaos", "random configurations under the strict auditor", run_chaos},
    {"run", "one experiment-catalog row by id; no id lists them", run_catalog_row},
};

int usage() {
  std::fprintf(stderr, "usage: incast_sim <subcommand> [--key value ...]\n");
  for (const Subcommand& c : kSubcommands) std::fprintf(stderr, "  %-11s %s\n", c.name, c.summary);
  std::fprintf(stderr, "a usage error, --help included, lists the subcommand's flags\n");
  return 2;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  for (const Subcommand& c : kSubcommands) {
    if (std::strcmp(argv[1], c.name) != 0) continue;
    core::CliArgs args{argc - 1, argv + 1};
    const int rc = c.run(args);
    if (!args.errors().empty()) {
      for (const auto& err : args.errors()) std::fprintf(stderr, "error: %s\n", err.c_str());
      std::fprintf(stderr, "usage: incast_sim %s [--key value ...]: %s\n%s", c.name,
                   c.summary, args.flag_list().c_str());
    }
    return rc;
  }
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
