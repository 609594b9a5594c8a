// perfbench_driver — times one benchmark workload of the incast simulator.
//
//   perfbench_driver --workload parallel_fabric|scaling_ladder
//                    --seed N --seconds S --trace 0|1
//
// Each workload is one `incast_sim` command at its defaults, called through
// the same library entry point at --jobs 1:
//
//   scaling_ladder    incast_sim scaling --degrees 2000,512,64
//                     core::run_scaling_experiment on the single-queue engine:
//                     N senders x 270 kB into one receiver of the 432-host
//                     fat-tree; the degree subset CI runs, largest first so
//                     the hub observes the point deep in RTO recovery.
//   parallel_fabric   incast_sim scaling --degrees 2000 --domains 1, checked
//                     against --domains 4
//                     The same fabric on the conservative rack-domain engine:
//                     keyed event order, conservative windows, bridge drains
//                     and per-domain auditors. Timed passes run one domain.
//                     Each run also runs four domains once, after the
//                     measured window, and checks that the decomposition
//                     leaves the results byte for byte unchanged. At four
//                     domains the engine sleeps on a condition variable at
//                     each of ~10^5 barriers per pass, and on a shared
//                     virtual machine the wake-ups swing that pass's time
//                     fivefold from run to run, so it is a per-layer figure
//                     (--trace 1), not a bounded one. The engine's target is
//                     degree 8000 at 8 domains; degree 2000 fits a pass in
//                     the run, and 4 domains is one per hardware thread of
//                     the 4-vCPU virtual machine the bounds were set on.
//
// The seed is the sweep's base seed, so it changes ECMP path collisions,
// sender jitter and the burst process, but never the size of the sweep.
//
// Set-up is the program's own: the same entry point with simulated time cut
// to zero, so every point builds its network, flows and observers and
// dispatches nothing past the flows' start. A run takes a few set-up samples,
// runs one reference pass, then repeats timed passes, each preceded by
// another set-up sample, until --seconds have passed since the reference
// pass began. Every pass must reproduce the reference pass's output byte for
// byte, and every point must pass the workload's oracle checks.
//
// --trace 0 times plain passes (relaxed auditor, no observability), as users
// run them. --trace 1 cycles pass variants and times spans around the calls
// into each layer: set-up, simulation, output check. The variants are plain,
// auditor off, an obs::Hub attached (the program observes sweep point 0) and,
// for parallel_fabric, four domains, so the auditor's and the hub's cost and
// the parallel speed-up show against the plain pass; the hub's metrics
// snapshot supplies TCP and bottleneck-queue counters.
//
// The last stdout line is one JSON object of raw samples; run.py reduces it
// to the benchmark's metrics. Exit code 2 on a bad invocation.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/scaling_experiment.h"
#include "net/packet.h"
#include "obs/hub.h"

namespace {

using namespace incast;
using Clock = std::chrono::steady_clock;

// Set-up samples taken before the reference pass: at least kSetupSamples,
// and more until kSetupWindowS has passed. run.py reports the median of these
// and of the one taken before each timed pass. The first samples of a process
// run cold (fresh pages), so many samples keep the median on the steady cost.
constexpr int kSetupSamples = 5;
constexpr double kSetupWindowS = 1.0;
// Timed passes of every variant per run, even when one pass outlasts --seconds.
constexpr int kMinPasses = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Which variant of the program a pass runs (--trace 1 cycles them).
// kSplit is parallel_fabric's run across several domains.
enum class Variant { kPlain, kAuditOff, kHub, kSplit };
constexpr int kNumVariants = 4;
constexpr const char* kVariantNames[kNumVariants] = {"plain", "audit_off", "hub", "split"};

// Per-layer counters of one pass, summed over every sweep point.
struct Counters {
  std::int64_t queue_drops{0};
  std::uint64_t windows{0};          // conservative windows (parallel engine)
  std::uint64_t packets_bridged{0};  // cross-domain mailbox handoffs
  std::uint64_t barrier_stall_ns{0}; // summed worker wait at barriers
};

// Counters from the hub's metrics snapshot of the observed sweep point.
struct HubCounters {
  std::int64_t data_packets{0};
  std::int64_t retransmitted_packets{0};
  std::int64_t rto_count{0};
  std::int64_t fast_retransmits{0};
  std::int64_t queue_enqueued{0};
  std::int64_t queue_ecn_marks{0};
  std::int64_t peak_pending{0};
};

struct Pass {
  std::string output;  // the program's per-point output, the determinism check
  double check_s{0.0}; // time spent checking the program's results
  std::uint64_t events{0};
  int points{0};
  int failed{0};       // points that failed the sweep or an oracle check
  double point0_ms{0.0};
  Counters counters;
};

// Records one oracle failure: counted against the pass, explained on stderr.
void fail(Pass& pass, const std::string& what) {
  ++pass.failed;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

HubCounters read_hub(const obs::Hub& hub) {
  const auto ends_with = [](const std::string& s, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  };
  HubCounters c;
  for (const auto& e : hub.final_metrics().entries) {
    if (e.kind != 'c') continue;
    const std::string& n = e.name;
    if (n.rfind("tcp.sender.", 0) == 0) {
      if (ends_with(n, ".data_packets_sent")) c.data_packets += e.counter;
      if (ends_with(n, ".retransmitted_packets")) c.retransmitted_packets += e.counter;
      if (ends_with(n, ".rto_count")) c.rto_count += e.counter;
      if (ends_with(n, ".fast_retransmits")) c.fast_retransmits += e.counter;
    } else if (n.rfind("net.queue.", 0) == 0) {
      if (ends_with(n, ".enqueued")) c.queue_enqueued += e.counter;
      if (ends_with(n, ".ecn_marks")) c.queue_ecn_marks += e.counter;
    } else if (n == "sim.events.peak_pending") {
      c.peak_pending = std::max(c.peak_pending, e.counter);
    }
  }
  return c;
}

// One workload: a scaling sweep on the single-queue engine (split_domains
// 0) or on the domain engine, whose plain passes run one domain and whose
// kSplit passes run split_domains.
class Workload {
 public:
  Workload(std::uint64_t seed, std::vector<int> degrees, int split_domains)
      : split_domains_{split_domains} {
    cfg_.degrees = std::move(degrees);
    cfg_.seed = seed;
  }

  // Runs the program's set-up of one pass; returns the failures it saw.
  int run_setup() const {
    core::ScalingConfig cfg = config(Variant::kPlain, nullptr);
    cfg.max_sim_time = sim::Time::zero();
    const core::ScalingReport report = core::run_scaling_experiment(cfg);
    int failed = static_cast<int>(report.sweep.failures.size());
    for (const core::ScalingPoint& p : report.points) failed += p.audit_violations != 0 ? 1 : 0;
    if (failed != 0) std::fprintf(stderr, "check failed: set-up run: %d failure(s)\n", failed);
    return failed;
  }

  Pass run_pass(Variant v, obs::Hub* hub) const {
    const core::ScalingConfig cfg = config(v, hub);
    const core::ScalingReport report = core::run_scaling_experiment(cfg);
    const Clock::time_point t0 = Clock::now();
    Pass pass;
    for (const sim::TaskFailure& f : report.sweep.failures) {
      fail(pass, "sweep point " + std::to_string(f.index) + ": " + f.message);
    }
    if (!report.sweep.tasks.empty()) pass.point0_ms = report.sweep.tasks.front().wall_ms;
    pass.output = core::scaling_csv(report);
    // No incast can beat one base RTT plus serializing every byte on the
    // receiver's downlink. The program's optimum counts the last segment's
    // serialization in both terms, so a perfectly paced incast lands up to
    // one segment time (plus float rounding) below it.
    const double slack_ms =
        cfg_.fabric.host_link.serialization_time(cfg_.tcp.mss_bytes + net::kHeaderBytes).ms() +
        1e-6;
    for (const core::ScalingPoint& p : report.points) {
      ++pass.points;
      pass.events += p.events_processed;
      pass.counters.queue_drops += p.queue_drops;
      pass.counters.windows += p.windows;
      pass.counters.packets_bridged += p.packets_bridged;
      pass.counters.barrier_stall_ns += p.barrier_stall_ns;
      const std::string at = "degree " + std::to_string(p.degree);
      if (p.completed_flows != p.degree) fail(pass, at + ": not every flow completed");
      if (!(p.fct_ms >= p.optimal_ms - slack_ms && p.optimal_ms > 0.0)) {
        fail(pass, at + ": FCT " + std::to_string(p.fct_ms) + " ms below the analytic optimum " +
                       std::to_string(p.optimal_ms) + " ms");
      }
      if (p.audit_violations != 0) fail(pass, at + ": auditor violations");
      if (cfg.domains >= 1) {
        // Every event ran in exactly one domain, and with several domains
        // the cross-rack incast must have crossed the mailboxes.
        std::uint64_t per_domain = 0;
        for (const std::uint64_t e : p.events_per_domain) per_domain += e;
        if (p.parallel_domains != static_cast<std::uint64_t>(cfg.domains) ||
            p.events_per_domain.size() != static_cast<std::size_t>(cfg.domains) ||
            per_domain != p.events_processed) {
          fail(pass, at + ": per-domain event counts do not add up to the run's");
        }
        if (cfg.domains > 1 && p.packets_bridged == 0) {
          fail(pass, at + ": no packet crossed a domain boundary");
        }
      }
    }
    pass.check_s = seconds_since(t0);
    return pass;
  }

  // The variants a --trace 1 run cycles.
  std::vector<Variant> trace_variants() const {
    std::vector<Variant> v{Variant::kPlain, Variant::kAuditOff, Variant::kHub};
    if (split_domains_ > 0) v.push_back(Variant::kSplit);
    return v;
  }

  int split_domains() const { return split_domains_; }

 private:
  core::ScalingConfig config(Variant v, obs::Hub* hub) const {
    core::ScalingConfig cfg = cfg_;
    cfg.jobs = 1;
    cfg.audit_mode = v == Variant::kAuditOff ? sim::AuditMode::kOff : sim::AuditMode::kRelaxed;
    cfg.hub = v == Variant::kHub ? hub : nullptr;
    if (split_domains_ > 0) cfg.domains = v == Variant::kSplit ? split_domains_ : 1;
    return cfg;
  }

  core::ScalingConfig cfg_;
  int split_domains_;
};

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "scaling_ladder") return Workload{seed, {2000, 512, 64}, 0};
  if (name == "parallel_fabric") return Workload{seed, {2000}, 4};
  return std::nullopt;
}

// --- output -----------------------------------------------------------------

void put_array(std::string& out, const std::string& key, const std::vector<double>& v) {
  out += '"' + key + "\":[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", v[i]);
    out += buf;
  }
  out += "],";
}

void put_int(std::string& out, const char* key, std::int64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
  out += ',';
}

struct Samples {
  std::vector<double> pass_s, pass_events, check_s, point0_ms;
  Counters counters;  // of the last pass
};

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload_name = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const std::optional<Workload> workload = make_workload(workload_name, seed);
  if (!workload || !have_seed || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload parallel_fabric|scaling_ladder "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  std::int64_t attempted = 0, failed = 0;
  // Set-up samples: a few up front, then one before every timed pass, so
  // their median spans the whole run like the pass times do.
  std::vector<double> setup_s;
  const auto sample_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    failed += workload->run_setup();
    setup_s.push_back(seconds_since(t0));
  };
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setup_s.size()) < kSetupSamples ||
         seconds_since(setup_start) < kSetupWindowS) {
    sample_setup();
  }

  Samples samples[kNumVariants];
  const auto record = [&](Variant v, const Pass& pass, double wall_s) {
    Samples& s = samples[static_cast<int>(v)];
    s.pass_s.push_back(wall_s - pass.check_s);
    s.check_s.push_back(pass.check_s);
    s.pass_events.push_back(static_cast<double>(pass.events));
    s.point0_ms.push_back(pass.point0_ms);
    s.counters = pass.counters;
    attempted += pass.points;
    failed += pass.failed;
  };

  // The reference pass opens the measured window. With --trace 0 it is a
  // timed sample too; --trace 1 leaves it out, so that the i-th samples of
  // the cycled variants ran back to back.
  const Clock::time_point start = Clock::now();
  const Pass reference = workload->run_pass(Variant::kPlain, nullptr);
  if (trace == 0) {
    record(Variant::kPlain, reference, seconds_since(start));
  } else {
    attempted += reference.points;
    failed += reference.failed;
  }
  HubCounters hub_counters;
  const auto timed_pass = [&](Variant v) {
    obs::Hub hub;
    const Clock::time_point t0 = Clock::now();
    Pass pass = workload->run_pass(v, &hub);
    if (pass.output != reference.output) fail(pass, "output differs from the reference pass");
    const double wall_s = seconds_since(t0);
    record(v, pass, wall_s);
    if (v == Variant::kHub) hub_counters = read_hub(hub);
    return wall_s;
  };

  const std::vector<Variant> cycle =
      trace == 1 ? workload->trace_variants() : std::vector<Variant>{Variant::kPlain};
  const int min_passes = kMinPasses * static_cast<int>(cycle.size());
  // Timed passes until the next one would end past --seconds (judged by the
  // last pass), but at least kMinPasses of every variant.
  int passes = 0;
  double last_pass_s = seconds_since(start);
  while (passes < min_passes || seconds_since(start) + last_pass_s <= seconds) {
    sample_setup();
    last_pass_s = timed_pass(cycle[static_cast<std::size_t>(passes) % cycle.size()]);
    ++passes;
  }
  // The domain engine's determinism contract: a run across several domains
  // reproduces the one-domain reference byte for byte. --trace 1 cycles that
  // variant; --trace 0 runs it once, after the measured window.
  if (trace == 0 && workload->split_domains() > 0) timed_pass(Variant::kSplit);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::string out = "{";
  out += "\"workload\":\"" + workload_name + "\",";
  put_int(out, "attempted", attempted);
  put_int(out, "failed", failed);
  put_int(out, "peak_rss_kb", usage.ru_maxrss);
  put_int(out, "split_domains", workload->split_domains());
  put_array(out, "setup_s", setup_s);
  for (int v = 0; v < kNumVariants; ++v) {
    const Samples& s = samples[v];
    if (s.pass_s.empty()) continue;
    const std::string p = kVariantNames[v];
    put_array(out, p + "_pass_s", s.pass_s);
    put_array(out, p + "_pass_events", s.pass_events);
    put_array(out, p + "_point0_ms", s.point0_ms);
    put_array(out, p + "_check_s", s.check_s);
  }
  const Counters& c = samples[static_cast<int>(Variant::kPlain)].counters;
  put_int(out, "queue_drops", c.queue_drops);
  // The domain engine's own counters, from the run across several domains.
  const Counters& split = samples[static_cast<int>(Variant::kSplit)].counters;
  put_int(out, "windows", static_cast<std::int64_t>(split.windows));
  put_int(out, "packets_bridged", static_cast<std::int64_t>(split.packets_bridged));
  put_int(out, "barrier_stall_ns", static_cast<std::int64_t>(split.barrier_stall_ns));
  const HubCounters& h = hub_counters;
  put_int(out, "hub_data_packets", h.data_packets);
  put_int(out, "hub_retransmitted_packets", h.retransmitted_packets);
  put_int(out, "hub_rto_count", h.rto_count);
  put_int(out, "hub_fast_retransmits", h.fast_retransmits);
  put_int(out, "hub_queue_enqueued", h.queue_enqueued);
  put_int(out, "hub_queue_ecn_marks", h.queue_ecn_marks);
  put_int(out, "hub_peak_pending", h.peak_pending);
  out.back() = '}';
  std::printf("%s\n", out.c_str());
  return 0;
}
