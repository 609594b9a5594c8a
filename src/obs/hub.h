// Hub: the one observability object a run carries.
//
// Bundles the metrics registry, the event tracer and the flight recorder,
// and is what components discover through sim::Simulator::hub(). A run with
// no observability requested never constructs a Hub at all — the simulator's
// hub pointer stays nullptr and every instrumented component takes a
// single-branch fast path (see INCAST_OBS_HUB below for the compile-time
// version of the same guarantee).
//
// Layered switches, outermost first:
//   1. compile time: -DINCAST_OBS_ENABLED=0 turns INCAST_OBS_HUB() into a
//      constant nullptr, so instrumentation dead-code-eliminates entirely;
//   2. no hub attached (the default): components cache nullptr and skip;
//   3. per-facility: tracer().set_enabled() / recorder().arm().
#ifndef INCAST_OBS_HUB_H_
#define INCAST_OBS_HUB_H_

#include <cstdint>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// Compile-time master switch. Build with -DINCAST_OBS_ENABLED=0 (cmake
// -DINCAST_OBS=OFF) to compile all instrumentation out of the hot paths.
#ifndef INCAST_OBS_ENABLED
#define INCAST_OBS_ENABLED 1
#endif

#if INCAST_OBS_ENABLED
#define INCAST_OBS_HUB(sim) ((sim).hub())
#else
#define INCAST_OBS_HUB(sim) (static_cast<::incast::obs::Hub*>(nullptr))
#endif

namespace incast::obs {

class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }

  // True when components should construct and emit trace events: the
  // tracer records or the flight recorder is armed.
  [[nodiscard]] bool tracing() const noexcept {
    return tracer_.enabled() || recorder_.armed();
  }

  void set_thread_name(std::uint32_t tid, std::string name) {
    tracer_.set_thread_name(tid, std::move(name));
  }

  // Routes an event to the tracer and, when armed, the flight recorder.
  void emit(TraceEvent ev) {
    recorder_.on_event(ev);
    tracer_.record(std::move(ev));
  }

  // Convenience emitters. All are cheap no-ops unless tracing() is true —
  // but callers on per-packet paths should still check tracing() first to
  // avoid building name strings for nothing.
  void instant(std::int64_t ts_ns, TraceCategory cat, std::string name, std::uint32_t tid,
               const char* k1 = nullptr, std::int64_t v1 = 0, const char* k2 = nullptr,
               std::int64_t v2 = 0) {
    if (!tracing()) return;
    emit(TraceEvent{ts_ns, TraceEvent::Phase::kInstant, cat, tid, 0, std::move(name),
                    k1, v1, k2, v2});
  }
  void counter(std::int64_t ts_ns, TraceCategory cat, std::string name, std::uint32_t tid,
               std::int64_t value) {
    if (!tracing()) return;
    emit(TraceEvent{ts_ns, TraceEvent::Phase::kCounter, cat, tid, 0, std::move(name),
                    "value", value, nullptr, 0});
  }
  void begin(std::int64_t ts_ns, TraceCategory cat, std::string name, std::uint32_t tid,
             const char* k1 = nullptr, std::int64_t v1 = 0) {
    if (!tracing()) return;
    emit(TraceEvent{ts_ns, TraceEvent::Phase::kBegin, cat, tid, 0, std::move(name),
                    k1, v1, nullptr, 0});
  }
  void end(std::int64_t ts_ns, TraceCategory cat, std::string name, std::uint32_t tid) {
    if (!tracing()) return;
    emit(TraceEvent{ts_ns, TraceEvent::Phase::kEnd, cat, tid, 0, std::move(name),
                    nullptr, 0, nullptr, 0});
  }
  void async_begin(std::int64_t ts_ns, TraceCategory cat, std::string name,
                   std::uint32_t tid, std::uint64_t id, const char* k1 = nullptr,
                   std::int64_t v1 = 0) {
    if (!tracing()) return;
    emit(TraceEvent{ts_ns, TraceEvent::Phase::kAsyncBegin, cat, tid, id, std::move(name),
                    k1, v1, nullptr, 0});
  }
  void async_end(std::int64_t ts_ns, TraceCategory cat, std::string name,
                 std::uint32_t tid, std::uint64_t id) {
    if (!tracing()) return;
    emit(TraceEvent{ts_ns, TraceEvent::Phase::kAsyncEnd, cat, tid, id, std::move(name),
                    nullptr, 0, nullptr, 0});
  }

  // Queue monitors feed depths here: the flight recorder evaluates its
  // collapse trigger even when the tracer itself is off.
  void observe_queue_depth(std::int64_t ts_ns, std::int64_t packets) {
    recorder_.observe_queue_depth(ts_ns, packets);
  }

  // Experiments report goodput-mode classification changes.
  void notify_mode_shift(std::int64_t ts_ns, const std::string& from, const std::string& to);

  // Snapshots the registry (typically at end of the traced run, before
  // components unregister their sources in their destructors).
  void capture_metrics(std::int64_t at_ns);
  [[nodiscard]] bool has_final_metrics() const noexcept { return has_final_metrics_; }
  [[nodiscard]] const MetricsRegistry::Snapshot& final_metrics() const noexcept {
    return final_metrics_;
  }

  // Full-trace export (tracer buffer + thread names).
  void write_trace(std::ostream& out) const { tracer_.write_chrome_trace(out); }
  // Flight-recorder ring export in the same format.
  void write_dump(const std::vector<TraceEvent>& ring, std::ostream& out) const {
    obs::write_chrome_trace(ring, tracer_.thread_names(), 0, out);
  }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  FlightRecorder recorder_;
  bool has_final_metrics_{false};
  MetricsRegistry::Snapshot final_metrics_;
};

}  // namespace incast::obs

#endif  // INCAST_OBS_HUB_H_
