#include "sim/auditor.h"

#include <algorithm>
#include <chrono>

namespace incast::sim {

const char* to_string(AuditInvariant inv) noexcept {
  switch (inv) {
    case AuditInvariant::kConservation: return "conservation";
    case AuditInvariant::kNegativeDepth: return "negative_depth";
    case AuditInvariant::kTimeMonotonic: return "time_monotonic";
    case AuditInvariant::kCwndBounds: return "cwnd_bounds";
    case AuditInvariant::kRtoBounds: return "rto_bounds";
    case AuditInvariant::kLivelock: return "livelock";
    case AuditInvariant::kFlowBreakdown: return "flow_breakdown";
    case AuditInvariant::kLookahead: return "lookahead";
  }
  return "unknown";
}

const char* to_string(AuditMode mode) noexcept {
  switch (mode) {
    case AuditMode::kOff: return "off";
    case AuditMode::kRelaxed: return "relaxed";
    case AuditMode::kStrict: return "strict";
  }
  return "unknown";
}

bool parse_audit_mode(const std::string& text, AuditMode& out) noexcept {
  if (text == "off") {
    out = AuditMode::kOff;
  } else if (text == "relaxed") {
    out = AuditMode::kRelaxed;
  } else if (text == "strict") {
    out = AuditMode::kStrict;
  } else {
    return false;
  }
  return true;
}

void Auditor::violate(AuditInvariant inv, std::string detail) {
  ++violations_[static_cast<std::size_t>(inv)];
  if (sink_) sink_(Violation{inv, detail});
  if (config_.strict) throw AuditFailure{to_string(inv), detail};
}

void Auditor::violate_nonmonotonic(std::int64_t now_ns, std::int64_t at_ns) {
  violate(AuditInvariant::kTimeMonotonic,
          "event at t=" + std::to_string(at_ns) + "ns dispatched at now=" +
              std::to_string(now_ns) + "ns");
}

void Auditor::report_negative_depth(const char* where, std::int64_t packets,
                                    std::int64_t bytes) {
  violate(AuditInvariant::kNegativeDepth, std::string{where} + ": packets=" +
                                              std::to_string(packets) +
                                              " bytes=" + std::to_string(bytes));
}

void Auditor::violate_livelock(std::int64_t at_ns) {
  stuck_windows_ = 0;  // re-arm so relaxed mode reports repeats
  violate(AuditInvariant::kLivelock,
          "at least " + std::to_string(config_.livelock_event_limit) +
              " events without sim-time advance at t=" + std::to_string(at_ns) +
              "ns");
}

void Auditor::arm_check_countdown() noexcept {
  // Distance to the next multiple-of-8192 event count; capped at the event
  // budget's edge (the call where events_seen() first exceeds max_events),
  // so the budget still trips on exactly that call.
  std::uint64_t until = kPeriodicCheckMask + 1 - (events_seen_ & kPeriodicCheckMask);
  if (config_.max_events != 0 && events_seen_ <= config_.max_events) {
    until = std::min(until, config_.max_events + 1 - events_seen_);
  }
  check_countdown_ = until;
  check_countdown_len_ = until;
}

void Auditor::check_boundary(std::int64_t at_ns) {
  events_seen_ += check_countdown_len_;
  // Re-arm before any throw so a caught exception leaves the countdown
  // valid (the next boundary simply checks again).
  const bool at_periodic = (events_seen_ & kPeriodicCheckMask) == 0;
  arm_check_countdown();
  if (config_.max_events != 0 && events_seen_ > config_.max_events) {
    throw BudgetExceeded{"task dispatched more than " +
                         std::to_string(config_.max_events) + " events"};
  }
  if (at_periodic) {
    // Livelock window compare: time is dispatch-monotonic, so an unchanged
    // timestamp across a whole 8192-event window means zero advance in it.
    if (at_ns == boundary_ns_) {
      if (++stuck_windows_ * (kPeriodicCheckMask + 1) >=
          config_.livelock_event_limit) {
        violate_livelock(at_ns);
      }
    } else {
      boundary_ns_ = at_ns;
      stuck_windows_ = 0;
    }
    periodic_check();
  }
}

void Auditor::periodic_check() {
  if (config_.cancel != nullptr &&
      config_.cancel->load(std::memory_order_relaxed)) {
    throw RunCancelled{};
  }
  if (config_.max_wall_ms <= 0.0) return;
  const auto now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  if (wall_start_ns_ == 0) {
    wall_start_ns_ = now_ns;
    return;
  }
  const double elapsed_ms = static_cast<double>(now_ns - wall_start_ns_) / 1e6;
  if (elapsed_ms > config_.max_wall_ms) {
    throw BudgetExceeded{"task ran for " + std::to_string(elapsed_ms) +
                         " ms (budget " + std::to_string(config_.max_wall_ms) +
                         " ms)"};
  }
}

void Auditor::check_conservation(std::int64_t residual_bytes) {
  const std::int64_t in = injected_bytes_ + control_injected_bytes_;
  const std::int64_t accounted = delivered_bytes_ + control_consumed_bytes_ +
                                 dropped_bytes_ + trimmed_bytes_ + residual_bytes;
  if (in != accounted) {
    violate(AuditInvariant::kConservation,
            "injected " + std::to_string(injected_bytes_) + " bytes (" +
                std::to_string(injected_packets_) + " pkts) + control " +
                std::to_string(control_injected_bytes_) + " != delivered " +
                std::to_string(delivered_bytes_) + " + control_consumed " +
                std::to_string(control_consumed_bytes_) + " + dropped " +
                std::to_string(dropped_bytes_) + " + trimmed " +
                std::to_string(trimmed_bytes_) + " + residual " +
                std::to_string(residual_bytes) + " = " + std::to_string(accounted));
  }
}

}  // namespace incast::sim
