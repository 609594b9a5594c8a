// Anomaly flight recorder: a ring of the most recent trace events that is
// dumped when a trigger fires, giving a microscopic post-hoc view of the
// moments leading up to an anomaly without recording a whole run.
//
// Triggers (parse_trigger() grammar, used by the --flight-recorder flag):
//   rto-storm[:N[:window_ms]]   N "rto" instants within the window
//                               (default 10 within 10 ms)
//   queue-collapse[:packets]    watched queue depth reaches the threshold
//                               (default 1200 packets ~= 90% of the 1333-pkt
//                               bottleneck queue)
//   mode-shift                  experiment classified its goodput mode as
//                               degenerate or collapse
//
// "Exactly once per anomaly": each trigger latches when it fires and
// re-arms only after the condition clears — the RTO storm re-arms when the
// sliding window empties, queue collapse re-arms below half the threshold
// (hysteresis) — so one sustained anomaly produces one dump, and a second
// distinct anomaly produces a second dump.
#ifndef INCAST_OBS_FLIGHT_RECORDER_H_
#define INCAST_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"

namespace incast::obs {

struct TriggerConfig {
  enum class Kind : std::uint8_t { kNone = 0, kRtoStorm, kQueueCollapse, kModeShift };

  Kind kind{Kind::kNone};
  // kRtoStorm: fire when rto_threshold "rto" instants land within rto_window.
  int rto_threshold{10};
  sim::Time rto_window{sim::Time::milliseconds(10)};
  // kQueueCollapse: fire when an observed queue depth reaches this.
  std::int64_t queue_threshold_packets{1200};
};

[[nodiscard]] const char* to_string(TriggerConfig::Kind kind) noexcept;

// Parses the --flight-recorder trigger spec; nullopt on a malformed spec.
[[nodiscard]] std::optional<TriggerConfig> parse_trigger(const std::string& spec);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void arm(const TriggerConfig& trigger);
  [[nodiscard]] bool armed() const noexcept {
    return trigger_.kind != TriggerConfig::Kind::kNone;
  }
  [[nodiscard]] const TriggerConfig& trigger() const noexcept { return trigger_; }

  // Empties the ring and releases the trigger latches, so a retried run's
  // dumps hold none of an earlier attempt's events. The trigger, the sink
  // and the dump count stay.
  void restart();

  // Invoked on every firing with the trigger reason and the ring contents
  // (oldest first, ending with a "trigger: <reason>" instant). The CLI
  // installs a sink that writes a Chrome-trace JSON file; tests install
  // their own.
  using DumpSink =
      std::function<void(const std::string& reason, const std::vector<TraceEvent>& ring)>;
  void set_dump_sink(DumpSink sink) { sink_ = std::move(sink); }

  // Feeds: every trace event enters the ring; "rto" instants additionally
  // drive the RTO-storm trigger.
  void on_event(const TraceEvent& ev);
  // Queue monitors report sampled/watermark depths here (kQueueCollapse).
  void observe_queue_depth(std::int64_t ts_ns, std::int64_t packets);
  // Experiments report a goodput-mode classification change (kModeShift).
  void notify_mode_shift(std::int64_t ts_ns, const std::string& from, const std::string& to);

  // Unconditionally dumps the ring with the given reason, bypassing trigger
  // arming and latching. The run-hardening layer routes audit-invariant
  // violations and budget trips here so a strict abort or a runaway run
  // ships a structured diagnostic of the moments leading up to it.
  void force_dump(std::int64_t ts_ns, const std::string& reason);

  [[nodiscard]] int dumps() const noexcept { return dumps_; }
  [[nodiscard]] const std::string& last_reason() const noexcept { return last_reason_; }
  // Ring contents captured at the last firing (oldest first).
  [[nodiscard]] const std::vector<TraceEvent>& last_dump() const noexcept {
    return last_dump_;
  }
  // Current ring contents, oldest first.
  [[nodiscard]] std::vector<TraceEvent> ring_snapshot() const;

 private:
  void push(TraceEvent ev);
  void fire(std::int64_t ts_ns, const std::string& reason);

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};  // next overwrite position once the ring is full

  TriggerConfig trigger_;
  DumpSink sink_;

  // RTO-storm sliding window (timestamps of recent "rto" instants) and the
  // fired-latch for each trigger kind.
  std::deque<std::int64_t> rto_times_;
  bool storm_active_{false};
  bool collapse_active_{false};

  int dumps_{0};
  std::string last_reason_;
  std::vector<TraceEvent> last_dump_;
};

}  // namespace incast::obs

#endif  // INCAST_OBS_FLIGHT_RECORDER_H_
