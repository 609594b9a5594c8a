// ExperimentObserver: the experiment-scope half of the observability spine.
//
// Components (senders, queues, fault hooks) register their own metrics when
// a hub is attached to the simulator; this class adds the run-level pieces
// an experiment owns — bottleneck-queue counters under the LinkDirectory
// link name, fault-injection totals, the burst-completion-time histogram,
// the end-of-run metrics snapshot, and whatever run-level gauges the
// experiment adds (scaling.*, parallel.*) — and unregisters them on scope
// exit so a hub can be reused across runs.
//
// Constructed from the simulator's hub pointer; with no hub every method is
// a no-op and the experiment runs exactly as before.
#ifndef INCAST_CORE_EXPERIMENT_OBS_H_
#define INCAST_CORE_EXPERIMENT_OBS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace incast::net {
class DropTailQueue;
class Switch;
}  // namespace incast::net

namespace incast::fault {
class FaultInjector;
}  // namespace incast::fault

namespace incast::obs {
class Hub;
}  // namespace incast::obs

namespace incast::sim {
class Auditor;
class Simulator;
}  // namespace incast::sim

namespace incast::core {

class ExperimentObserver {
 public:
  explicit ExperimentObserver(obs::Hub* hub);
  ~ExperimentObserver();

  ExperimentObserver(const ExperimentObserver&) = delete;
  ExperimentObserver& operator=(const ExperimentObserver&) = delete;

  [[nodiscard]] bool active() const noexcept { return hub_ != nullptr; }
  [[nodiscard]] obs::Hub* hub() const noexcept { return hub_; }

  // Registers net.queue.<link_name>.{drops,ecn_marks,enqueued} pull sources
  // reading `queue`'s cumulative stats. The queue must outlive this object.
  void watch_queue(const std::string& link_name, const net::DropTailQueue& queue);

  // Registers sim.events.{processed,peak_pending,slab_high_water} pull
  // sources reading the event kernel's dispatch count and memory footprint.
  // The simulator must outlive this object.
  void watch_simulator(const sim::Simulator& sim);

  // Registers fault.injected.{drops,corrupt_bytes,corruptions,duplicates,
  // reorders} totals across every installed link fault. The injector must
  // outlive this object.
  void watch_faults(const fault::FaultInjector& injector);

  // Registers net.pfc.<name>.{pause_frames,resume_frames,overflow_drops,
  // paused_ns} pull sources summing the switch's VIQ counters (pauses this
  // switch *sent*) and its egress ports' paused time (pauses it *obeyed*).
  // No-op for a switch without PFC enabled. The switch must outlive this
  // object.
  void watch_pfc(const std::string& name, const net::Switch& sw);

  // Registers sim.audit.{violations,violations.<invariant>,injected_bytes,
  // delivered_bytes,dropped_bytes,trimmed_bytes,control_injected_bytes,
  // control_consumed_bytes} pull sources reading the run-hardening
  // auditor's counters, and routes every violation and every budget trip
  // into the flight recorder as a forced dump (relaxed mode included — a
  // violation is exactly the anomaly the recorder exists for). The auditor
  // must outlive this object.
  void watch_auditor(sim::Auditor& auditor, const sim::Simulator& sim);

  // Registers net.int.hop_overflow holding the run's INT hop-stamp overflow
  // total (a teardown value, so call it just before finish()).
  void watch_int_overflows(std::int64_t overflows);

  // End-of-run bookkeeping, called while every metric source is still
  // alive: records measured burst completion times into the
  // core.incast.bct_ms histogram (skipped when empty), reports a non-"safe"
  // goodput-mode classification as a mode shift (which can trip the flight
  // recorder), and snapshots the whole registry into the hub.
  void finish(std::int64_t at_ns, const std::vector<double>& bct_ms, const char* mode);

 private:
  obs::Hub* hub_{nullptr};
};

}  // namespace incast::core

#endif  // INCAST_CORE_EXPERIMENT_OBS_H_
