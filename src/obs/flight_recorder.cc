#include "obs/flight_recorder.h"

#include <utility>

namespace incast::obs {

const char* to_string(TriggerConfig::Kind kind) noexcept {
  switch (kind) {
    case TriggerConfig::Kind::kNone: return "none";
    case TriggerConfig::Kind::kRtoStorm: return "rto-storm";
    case TriggerConfig::Kind::kQueueCollapse: return "queue-collapse";
    case TriggerConfig::Kind::kModeShift: return "mode-shift";
  }
  return "?";
}

std::optional<TriggerConfig> parse_trigger(const std::string& spec) {
  // Split on ':' into name[:arg1[:arg2]].
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(start));
      break;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }

  auto parse_positive = [](const std::string& s) -> std::optional<long long> {
    if (s.empty()) return std::nullopt;
    long long v = 0;
    for (const char ch : s) {
      if (ch < '0' || ch > '9') return std::nullopt;
      v = v * 10 + (ch - '0');
      if (v > 1'000'000'000LL) return std::nullopt;
    }
    if (v <= 0) return std::nullopt;
    return v;
  };

  TriggerConfig cfg;
  if (parts[0] == "rto-storm") {
    cfg.kind = TriggerConfig::Kind::kRtoStorm;
    if (parts.size() > 3) return std::nullopt;
    if (parts.size() >= 2) {
      const auto n = parse_positive(parts[1]);
      if (!n) return std::nullopt;
      cfg.rto_threshold = static_cast<int>(*n);
    }
    if (parts.size() == 3) {
      const auto ms = parse_positive(parts[2]);
      if (!ms) return std::nullopt;
      cfg.rto_window = sim::Time::milliseconds(*ms);
    }
  } else if (parts[0] == "queue-collapse") {
    cfg.kind = TriggerConfig::Kind::kQueueCollapse;
    if (parts.size() > 2) return std::nullopt;
    if (parts.size() == 2) {
      const auto pkts = parse_positive(parts[1]);
      if (!pkts) return std::nullopt;
      cfg.queue_threshold_packets = *pkts;
    }
  } else if (parts[0] == "mode-shift") {
    if (parts.size() != 1) return std::nullopt;
    cfg.kind = TriggerConfig::Kind::kModeShift;
  } else {
    return std::nullopt;
  }
  return cfg;
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_{capacity} {
  ring_.reserve(capacity_);
}

void FlightRecorder::arm(const TriggerConfig& trigger) {
  trigger_ = trigger;
  rto_times_.clear();
  storm_active_ = false;
  collapse_active_ = false;
}

void FlightRecorder::restart() {
  ring_.clear();
  head_ = 0;
  rto_times_.clear();
  storm_active_ = false;
  collapse_active_ = false;
}

std::vector<TraceEvent> FlightRecorder::ring_snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

void FlightRecorder::push(TraceEvent ev) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
  }
}

void FlightRecorder::fire(std::int64_t ts_ns, const std::string& reason) {
  TraceEvent marker;
  marker.ts_ns = ts_ns;
  marker.phase = TraceEvent::Phase::kInstant;
  marker.category = TraceCategory::kSim;
  marker.tid = kWorkloadTid;
  marker.name = "trigger: " + reason;
  push(std::move(marker));

  ++dumps_;
  last_reason_ = reason;
  last_dump_ = ring_snapshot();
  if (sink_) sink_(reason, last_dump_);
}

void FlightRecorder::on_event(const TraceEvent& ev) {
  if (!armed()) return;
  const std::int64_t ts = ev.ts_ns;
  const bool is_rto =
      ev.phase == TraceEvent::Phase::kInstant && ev.name == "rto";
  push(ev);

  if (trigger_.kind == TriggerConfig::Kind::kRtoStorm && is_rto) {
    const std::int64_t window_ns = trigger_.rto_window.ns();
    while (!rto_times_.empty() && rto_times_.front() <= ts - window_ns) {
      rto_times_.pop_front();
    }
    // The storm latch releases once the window has fully drained of the
    // RTOs that fired it — the anomaly is over; a new burst of RTOs is a
    // new anomaly.
    if (storm_active_ && rto_times_.empty()) storm_active_ = false;
    rto_times_.push_back(ts);
    if (!storm_active_ && static_cast<int>(rto_times_.size()) >= trigger_.rto_threshold) {
      storm_active_ = true;
      fire(ts, "rto-storm");
    }
  }
}

void FlightRecorder::observe_queue_depth(std::int64_t ts_ns, std::int64_t packets) {
  if (trigger_.kind != TriggerConfig::Kind::kQueueCollapse) return;
  if (!collapse_active_ && packets >= trigger_.queue_threshold_packets) {
    collapse_active_ = true;
    fire(ts_ns, "queue-collapse");
  } else if (collapse_active_ && packets < trigger_.queue_threshold_packets / 2) {
    // Hysteresis: re-arm only once the queue has genuinely drained, so one
    // sustained standing queue cannot fire on every sample.
    collapse_active_ = false;
  }
}

void FlightRecorder::notify_mode_shift(std::int64_t ts_ns, const std::string& from,
                                       const std::string& to) {
  if (trigger_.kind != TriggerConfig::Kind::kModeShift) return;
  fire(ts_ns, "mode-shift:" + from + "->" + to);
}

void FlightRecorder::force_dump(std::int64_t ts_ns, const std::string& reason) {
  fire(ts_ns, reason);
}

}  // namespace incast::obs
