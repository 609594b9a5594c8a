// Auditor: always-on invariant checking for simulation runs.
//
// Long unattended sweeps are only trustworthy if the simulator checks its
// own bookkeeping while it runs. The Auditor is a small, allocation-free
// observer that components feed from a handful of hot-path hooks:
//
//   * byte conservation — every byte a host injects must be delivered to a
//     host, dropped by a queue / link / switch, or still buffered in the
//     network at teardown (check_conservation receives the residual);
//   * non-negative queue depths and in-flight (wire) byte accounting;
//   * monotonic simulated time in the event loop;
//   * cwnd / RTO within configured sanity bounds;
//   * a livelock watchdog — N consecutive events without simulated time
//     advancing means some component is rescheduling itself at now().
//
// Modes: relaxed (the default) counts violations into counters that the
// observability layer exports as sim.audit.* metrics; strict throws
// AuditFailure on the first violation, aborting the run deterministically
// (the CLI maps it to its own exit code, and the sweep layer quarantines
// just that task). The Auditor also carries the per-run execution budgets
// (event count, wall clock) and the cooperative cancellation flag; all
// three abort by throwing from the dispatch hook.
//
// Layered switches, mirroring the obs spine: compile out every hook with
// -DINCAST_AUDIT=OFF (the INCAST_AUDITOR macro becomes a constant nullptr,
// so instrumented call sites dead-code-eliminate); at runtime, a simulator
// with no auditor attached costs one predictable branch per hook.
//
// Wall-clock budget and cancellation peek at the host clock, but they can
// only abort a run, never steer it — determinism of completed runs is
// unaffected.
#ifndef INCAST_SIM_AUDITOR_H_
#define INCAST_SIM_AUDITOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/time.h"

// Compile-time master switch. Build with -DINCAST_AUDIT_ENABLED=0 (cmake
// -DINCAST_AUDIT=OFF) to dead-code-eliminate every audit hook.
#ifndef INCAST_AUDIT_ENABLED
#define INCAST_AUDIT_ENABLED 1
#endif

#if INCAST_AUDIT_ENABLED
#define INCAST_AUDITOR(simulator) ((simulator).auditor())
#else
#define INCAST_AUDITOR(simulator) (static_cast<::incast::sim::Auditor*>(nullptr))
#endif

namespace incast::sim {

// Thrown by strict-mode audits. Carries the invariant name so the sweep
// layer can classify the failure without parsing the message.
class AuditFailure : public std::runtime_error {
 public:
  AuditFailure(const char* invariant, const std::string& detail)
      : std::runtime_error{std::string{"audit["} + invariant + "]: " + detail},
        invariant_{invariant} {}
  [[nodiscard]] const char* invariant() const noexcept { return invariant_; }

 private:
  const char* invariant_;
};

// Thrown when a per-run execution budget (events or wall clock) runs out.
class BudgetExceeded : public std::runtime_error {
 public:
  explicit BudgetExceeded(const std::string& detail)
      : std::runtime_error{"budget exceeded: " + detail} {}
};

// Thrown when the cooperative cancellation flag is observed set (SIGINT /
// SIGTERM in the CLI). The sweep layer records the task as cancelled.
class RunCancelled : public std::runtime_error {
 public:
  RunCancelled() : std::runtime_error{"run cancelled"} {}
};

// Every invariant the auditor checks, indexing the violation counters.
enum class AuditInvariant : std::uint8_t {
  kConservation = 0,  // injected != delivered + dropped + residual
  kNegativeDepth,     // queue packets/bytes or wire bytes went negative
  kTimeMonotonic,     // event dispatched with timestamp < now()
  kCwndBounds,        // cwnd non-positive or above the sanity cap
  kRtoBounds,         // RTO below min_rto or above the sanity cap
  kLivelock,          // too many events without sim-time advance
  kFlowBreakdown,     // FCT attribution components do not sum to the FCT
  kLookahead,         // cross-domain event landed inside a completed window
};
inline constexpr std::size_t kNumAuditInvariants = 8;

[[nodiscard]] const char* to_string(AuditInvariant inv) noexcept;

// How an experiment runs the auditor. kRelaxed observes — violations are
// counted but the run is never perturbed, so results stay byte-identical
// to an unaudited run. kStrict aborts on the first violation. kOff
// attaches no auditor at all (and -DINCAST_AUDIT=OFF forces every mode to
// behave as kOff).
enum class AuditMode : std::uint8_t { kOff = 0, kRelaxed, kStrict };

[[nodiscard]] const char* to_string(AuditMode mode) noexcept;

class Auditor {
 public:
  struct Config {
    // strict: throw AuditFailure on the first violation. relaxed (false):
    // count violations and keep running.
    bool strict{false};

    // Livelock watchdog: violate after at least this many consecutive
    // events without a sim-time advance. Detection is window-granular —
    // the check compares timestamps at successive 8192-event periodic
    // boundaries, so it fires between `limit` and `limit + 2*8192` stuck
    // events (keeping the per-event hot path store-free). Generous: even a
    // 100k-flow incast schedules far fewer same-timestamp events than this.
    std::uint64_t livelock_event_limit{1'000'000};

    // Sanity bounds for the TCP hooks. max_cwnd_bytes 0 disables the upper
    // cwnd check (cwnd > 0 is always checked).
    std::int64_t max_cwnd_bytes{1'000'000'000};
    Time min_rto{Time::zero()};               // zero = no lower bound check
    Time max_rto{Time::seconds(120)};         // Linux's TCP_RTO_MAX

    // Per-run execution budgets; 0 disables. Wall clock is only sampled
    // every kPeriodicCheckMask+1 events, so the effective wall budget is
    // slightly coarse — it exists to unwedge runaway tasks, not to time.
    std::uint64_t max_events{0};
    double max_wall_ms{0.0};

    // Cooperative cancellation: when set and *cancel becomes true, the
    // next periodic check throws RunCancelled. Must outlive the auditor.
    const std::atomic<bool>* cancel{nullptr};
  };

  // One violation, as handed to the sink callback (relaxed and strict).
  struct Violation {
    AuditInvariant invariant;
    std::string detail;
  };
  using ViolationSink = std::function<void(const Violation&)>;

  Auditor() noexcept { arm_check_countdown(); }
  explicit Auditor(const Config& config) noexcept : config_{config} {
    arm_check_countdown();
  }
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  // Observes every violation before strict mode throws; the experiment
  // layer uses this to route a structured diagnostic into the flight
  // recorder. Keep the sink cheap: it runs inline on the violating path.
  void set_violation_sink(ViolationSink sink) { sink_ = std::move(sink); }

  // --- Event-loop hook (called by Simulator::dispatch_one) ----------------

  // `now` is the loop's current time, `at` the timestamp of the event about
  // to run. Checks monotonicity, the livelock watchdog, and the budgets.
  //
  // This runs once per simulated event, so it is budgeted in fractions of a
  // nanosecond (BM_AuditorOverhead gates it at <= 3% of raw dispatch): the
  // event counter, the event budget, and the periodic wall/cancel check are
  // fused into one pre-armed countdown, leaving a single decrement-and-
  // branch on the hot path; everything slow lives in check_boundary().
  void on_dispatch(Time now, Time at) {
    const std::int64_t at_ns = at.ns();
    if (at_ns < now.ns()) [[unlikely]] {
      violate_nonmonotonic(now.ns(), at_ns);
    }
    if (--check_countdown_ == 0) [[unlikely]] {
      check_boundary(at_ns);
    }
  }

  // --- Conservation accounting (called by net::Host / net::Port) ----------

  // A host handed a fresh packet to its NIC (or the fault layer duplicated
  // one in flight — a duplicate is a new injection at the duplication
  // point, so the ledger stays balanced).
  void on_bytes_injected(std::int64_t bytes) noexcept {
    injected_bytes_ += bytes;
    ++injected_packets_;
  }
  // A packet reached a host NIC (corrupt and unclaimed arrivals included —
  // the wire delivered them; what the host does next is its business).
  void on_bytes_delivered(std::int64_t bytes) noexcept {
    delivered_bytes_ += bytes;
    ++delivered_packets_;
  }
  // A packet died: queue overflow, link fault, or switch blackhole.
  void on_bytes_dropped(std::int64_t bytes) noexcept {
    dropped_bytes_ += bytes;
    ++dropped_packets_;
  }
  // A trimming queue cut a packet's payload: `bytes` is the wire size
  // removed (original size minus the surviving header). The header travels
  // on and is delivered/dropped like any packet, so trimmed bytes are their
  // own conservation bucket.
  void on_bytes_trimmed(std::int64_t bytes) noexcept {
    trimmed_bytes_ += bytes;
    ++trimmed_packets_;
  }
  // A node emitted a MAC control frame (PFC pause/resume) onto a link.
  // Control frames are injected mid-network and consumed by the immediate
  // neighbor, so they get a ledger separate from host traffic.
  void on_control_injected(std::int64_t bytes) noexcept {
    control_injected_bytes_ += bytes;
    ++control_frames_;
  }
  // The neighbor consumed a control frame (applied the pause/resume).
  void on_control_consumed(std::int64_t bytes) noexcept {
    control_consumed_bytes_ += bytes;
  }

  // Depth sample from a queue or a port's wire ledger; negative values are
  // accounting corruption. `where` names the component for the diagnostic.
  void record_depth(const char* where, std::int64_t packets, std::int64_t bytes) {
    if (packets < 0 || bytes < 0) [[unlikely]] report_negative_depth(where, packets, bytes);
  }

  // --- TCP hooks (called by tcp::TcpSender) -------------------------------

  void check_cwnd(std::uint64_t flow, std::int64_t cwnd_bytes) {
    if (cwnd_bytes <= 0 ||
        (config_.max_cwnd_bytes > 0 && cwnd_bytes > config_.max_cwnd_bytes))
        [[unlikely]] {
      violate(AuditInvariant::kCwndBounds,
              "flow " + std::to_string(flow) + ": cwnd=" + std::to_string(cwnd_bytes) +
                  " bytes (bounds (0, " + std::to_string(config_.max_cwnd_bytes) + "])");
    }
  }

  void check_rto(std::uint64_t flow, Time rto) {
    if (rto < config_.min_rto || rto > config_.max_rto) [[unlikely]] {
      violate(AuditInvariant::kRtoBounds,
              "flow " + std::to_string(flow) + ": rto=" + std::to_string(rto.ns()) +
                  "ns (bounds [" + std::to_string(config_.min_rto.ns()) + ", " +
                  std::to_string(config_.max_rto.ns()) + "]ns)");
    }
  }

  // --- Flow-trace hook (called by experiments after FlowTracer::finalize) --

  // The tail-autopsy conservation invariant: a sampled flow's attribution
  // components must sum to its measured FCT *exactly* (integer ns). Any
  // difference means the tracer dropped or double-counted an interval.
  void check_flow_breakdown(std::uint64_t flow, std::int64_t component_sum_ns,
                            std::int64_t fct_ns) {
    if (component_sum_ns != fct_ns || fct_ns < 0) [[unlikely]] {
      violate(AuditInvariant::kFlowBreakdown,
              "flow " + std::to_string(flow) + ": components sum to " +
                  std::to_string(component_sum_ns) + "ns but fct=" +
                  std::to_string(fct_ns) + "ns");
    }
  }

  // --- Parallel-engine hooks (called by net::DomainBridge / core) ---------

  // A mailbox entry surfaced at a barrier with a timestamp inside the
  // window that just finished executing: the conservative contract
  // (arrival >= window end) was broken, which means the configured
  // lookahead exceeds some inter-domain link's real propagation delay.
  // Strict mode aborts the run; relaxed mode counts it (the result is then
  // *not* decomposition-invariant and the counter says so).
  void report_lookahead(std::int64_t entry_ns, std::int64_t window_end_ns) {
    violate(AuditInvariant::kLookahead,
            "cross-domain event at " + std::to_string(entry_ns) +
                "ns inside completed window ending " +
                std::to_string(window_end_ns) + "ns");
  }

  // Folds another auditor's counters into this one. The parallel engine
  // runs one auditor per domain (hot-path hooks must not share cache
  // lines) and merges them into the coordinator's auditor at teardown,
  // before check_conservation — so strict audit stays exact across the
  // whole fabric. Budgets/watchdogs of `other` are not merged; they are
  // per-domain concerns.
  void merge_from(const Auditor& other) noexcept {
    for (std::size_t i = 0; i < kNumAuditInvariants; ++i) {
      violations_[i] += other.violations_[i];
    }
    injected_bytes_ += other.injected_bytes_;
    delivered_bytes_ += other.delivered_bytes_;
    dropped_bytes_ += other.dropped_bytes_;
    injected_packets_ += other.injected_packets_;
    delivered_packets_ += other.delivered_packets_;
    dropped_packets_ += other.dropped_packets_;
    trimmed_bytes_ += other.trimmed_bytes_;
    trimmed_packets_ += other.trimmed_packets_;
    control_injected_bytes_ += other.control_injected_bytes_;
    control_consumed_bytes_ += other.control_consumed_bytes_;
    control_frames_ += other.control_frames_;
    events_seen_ += other.events_seen();
  }

  // --- Teardown -----------------------------------------------------------

  // End-of-run conservation check. `residual_bytes` is what is still
  // buffered in the network (queue bytes + in-flight wire bytes, summed
  // over every link — see net::residual_buffered_bytes). The full ledger:
  //
  //   injected + control_injected ==
  //       delivered + control_consumed + dropped + trimmed + residual
  void check_conservation(std::int64_t residual_bytes);

  // --- Counters (exported as sim.audit.* metrics by the obs layer) --------

  [[nodiscard]] std::uint64_t violations(AuditInvariant inv) const noexcept {
    return violations_[static_cast<std::size_t>(inv)];
  }
  [[nodiscard]] std::uint64_t total_violations() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t v : violations_) total += v;
    return total;
  }
  [[nodiscard]] std::int64_t injected_bytes() const noexcept { return injected_bytes_; }
  [[nodiscard]] std::int64_t delivered_bytes() const noexcept { return delivered_bytes_; }
  [[nodiscard]] std::int64_t dropped_bytes() const noexcept { return dropped_bytes_; }
  [[nodiscard]] std::int64_t injected_packets() const noexcept { return injected_packets_; }
  [[nodiscard]] std::int64_t delivered_packets() const noexcept { return delivered_packets_; }
  [[nodiscard]] std::int64_t dropped_packets() const noexcept { return dropped_packets_; }
  [[nodiscard]] std::int64_t trimmed_bytes() const noexcept { return trimmed_bytes_; }
  [[nodiscard]] std::int64_t trimmed_packets() const noexcept { return trimmed_packets_; }
  [[nodiscard]] std::int64_t control_injected_bytes() const noexcept {
    return control_injected_bytes_;
  }
  [[nodiscard]] std::int64_t control_consumed_bytes() const noexcept {
    return control_consumed_bytes_;
  }
  [[nodiscard]] std::int64_t control_frames() const noexcept { return control_frames_; }
  // Exact mid-run: the base counter advances only at countdown boundaries,
  // so the in-flight chunk is reconstructed from the countdown itself.
  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    return events_seen_ + (check_countdown_len_ - check_countdown_);
  }

 private:
  // Wall/cancel checks run every 8192 events: cheap enough to be always on,
  // frequent enough to unwedge a stuck task within a fraction of a second.
  static constexpr std::uint64_t kPeriodicCheckMask = 8191;

  // Records the violation, feeds the sink, and throws in strict mode.
  void violate(AuditInvariant inv, std::string detail);
  // Cold halves of on_dispatch, outlined so the hot path stays a handful of
  // instructions (string formatting inline there defeats inlining and costs
  // registers on every event).
  void violate_nonmonotonic(std::int64_t now_ns, std::int64_t at_ns);
  void violate_livelock(std::int64_t at_ns);
  // The cold half of record_depth, outlined for the same reason: it runs
  // on every dequeue.
  void report_negative_depth(const char* where, std::int64_t packets, std::int64_t bytes);
  void periodic_check();
  // Countdown expiry: folds the finished chunk into events_seen_, enforces
  // the event budget exactly, and — when the expiry landed on a
  // kPeriodicCheckMask boundary — runs the livelock window compare and the
  // periodic wall/cancel check, then re-arms.
  void check_boundary(std::int64_t at_ns);
  void arm_check_countdown() noexcept;

  Config config_;
  ViolationSink sink_;

  std::uint64_t violations_[kNumAuditInvariants]{};

  std::int64_t injected_bytes_{0};
  std::int64_t delivered_bytes_{0};
  std::int64_t dropped_bytes_{0};
  std::int64_t injected_packets_{0};
  std::int64_t delivered_packets_{0};
  std::int64_t dropped_packets_{0};
  std::int64_t trimmed_bytes_{0};
  std::int64_t trimmed_packets_{0};
  std::int64_t control_injected_bytes_{0};
  std::int64_t control_consumed_bytes_{0};
  std::int64_t control_frames_{0};

  std::uint64_t events_seen_{0};
  // Livelock window state: the timestamp seen at the previous periodic
  // boundary, and how many consecutive boundaries it has not advanced.
  std::int64_t boundary_ns_{-1};
  std::uint64_t stuck_windows_{0};
  // Calls remaining until check_boundary(); armed to the nearer of the next
  // periodic boundary and the event-budget edge. len is the armed value,
  // kept so events_seen() stays exact between boundaries.
  std::uint64_t check_countdown_{0};
  std::uint64_t check_countdown_len_{0};

  // Wall-budget start, captured lazily at the first periodic check (steady
  // clock nanoseconds; 0 = not yet captured).
  std::uint64_t wall_start_ns_{0};
};

}  // namespace incast::sim

#endif  // INCAST_SIM_AUDITOR_H_
