#include "obs/flow_trace.h"

#include <algorithm>
#include <cstdio>

namespace incast::obs {

namespace {

// Same avalanche mix the sweep engine's seed derivation uses: flow ids are
// small sequential integers, so the hash — not the id — must carry the
// sampling randomness.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

[[nodiscard]] const char* stall_name(FlowTracer::BlockReason reason) noexcept {
  switch (reason) {
    case FlowTracer::BlockReason::kCwndLimited:
      return "stall.cwnd";
    case FlowTracer::BlockReason::kDrain:
      return "stall.drain";
    case FlowTracer::BlockReason::kFastRecovery:
      return "stall.recovery";
  }
  return "stall.cwnd";
}

[[nodiscard]] std::uint32_t flow_tid(std::uint64_t flow) noexcept {
  return kFlowTidBase + static_cast<std::uint32_t>(flow);
}

}  // namespace

FlowTracer::FlowTracer(const Config& config, Hub* hub) : config_{config}, hub_{hub} {}

bool FlowTracer::sampled(std::uint64_t flow) const noexcept {
  if (config_.sample_every <= 1) return true;
  return splitmix64(flow ^ config_.seed) % config_.sample_every == 0;
}

void FlowTracer::close_stall_span(FlowState& st, std::uint64_t flow,
                                  std::int64_t now_ns) {
  if (hub_ != nullptr && st.stall_open != nullptr) {
    hub_->async_end(now_ns, TraceCategory::kTcp, st.stall_open, flow_tid(flow), flow);
  }
  st.stall_open = nullptr;
}

void FlowTracer::on_period_start(std::uint64_t flow, std::int64_t now_ns) {
  FlowState& st = states_[flow];
  if (st.period_open) return;
  st.period_open = true;
  st.period_start = now_ns;
  st.blocked_since = now_ns;
  st.reason = BlockReason::kDrain;
  if (hub_ != nullptr) {
    hub_->async_begin(now_ns, TraceCategory::kTcp, "flow.active", flow_tid(flow), flow,
                      "flow", static_cast<std::int64_t>(flow));
  }
}

void FlowTracer::on_unblocked(std::uint64_t flow, std::int64_t now_ns,
                              UnblockCause cause) {
  const auto it = states_.find(flow);
  if (it == states_.end() || !it->second.period_open) return;
  FlowState& st = it->second;
  const std::int64_t dur = now_ns - st.blocked_since;
  // The cause wins for recovery events (the whole wait was spent reaching
  // them); otherwise the stored reason says what the sender was waiting on.
  if (cause == UnblockCause::kRto) {
    st.rto_ns += dur;
  } else if (cause == UnblockCause::kNack) {
    st.nack_ns += dur;
  } else if (st.reason == BlockReason::kFastRecovery) {
    st.fastrec_ns += dur;
  } else if (st.reason == BlockReason::kCwndLimited) {
    st.cwnd_ns += dur;
  } else {
    st.drain_ns += dur;
  }
  st.blocked_since = now_ns;
  close_stall_span(st, flow, now_ns);
}

void FlowTracer::on_blocked(std::uint64_t flow, std::int64_t now_ns,
                            BlockReason reason) {
  const auto it = states_.find(flow);
  if (it == states_.end() || !it->second.period_open) return;
  FlowState& st = it->second;
  st.reason = reason;
  if (hub_ != nullptr) {
    const char* name = stall_name(reason);
    if (st.stall_open == name) return;  // same literal: span already open
    close_stall_span(st, flow, now_ns);
    st.stall_open = name;
    hub_->async_begin(now_ns, TraceCategory::kTcp, name, flow_tid(flow), flow);
  }
}

void FlowTracer::on_flow_complete(std::uint64_t flow, std::int64_t now_ns) {
  const auto it = states_.find(flow);
  if (it == states_.end() || !it->second.period_open) return;
  FlowState& st = it->second;
  // Close any residual tail interval (normally zero-length: the ACK that
  // completed the flow already closed it via on_unblocked at this ts).
  on_unblocked(flow, now_ns, UnblockCause::kAck);
  st.active_ns += now_ns - st.period_start;
  st.period_open = false;
  st.completed = true;
  close_stall_span(st, flow, now_ns);
  if (hub_ != nullptr) {
    hub_->async_end(now_ns, TraceCategory::kTcp, "flow.active", flow_tid(flow), flow);
  }
}

void FlowTracer::on_hop(std::uint64_t flow, HopTier tier, std::int64_t queue_ns,
                        std::int64_t pause_ns, std::int64_t serialization_ns,
                        std::int64_t propagation_ns) {
  const auto it = states_.find(flow);
  if (it == states_.end()) return;
  FlowState& st = it->second;
  st.hop_serialization_ns += serialization_ns > 0 ? serialization_ns : 0;
  st.hop_propagation_ns += propagation_ns > 0 ? propagation_ns : 0;
  st.hop_pause_ns += pause_ns > 0 ? pause_ns : 0;
  st.hop_queue_ns[static_cast<std::size_t>(tier)] += queue_ns > 0 ? queue_ns : 0;
}

std::vector<FlowBreakdown> FlowTracer::finalize(std::int64_t now_ns) {
  // Flows cut mid-period have no FCT: count them, and close their waterfall
  // spans in sorted order so the trace needs no synthesized closers.
  std::vector<std::uint64_t> open;
  for (auto& [flow, st] : states_) {
    if (st.period_open) open.push_back(flow);
  }
  std::sort(open.begin(), open.end());
  for (const std::uint64_t flow : open) {
    FlowState& st = states_[flow];
    close_stall_span(st, flow, now_ns);
    if (hub_ != nullptr) {
      hub_->async_end(now_ns, TraceCategory::kTcp, "flow.active", flow_tid(flow), flow);
    }
    st.period_open = false;
    ++incomplete_;
  }

  std::vector<FlowBreakdown> out;
  out.reserve(states_.size());
  for (const auto& [flow, st] : states_) {
    if (!st.completed) continue;
    FlowBreakdown b;
    b.flow = flow;
    b.fct_ns = st.active_ns;
    b.cwnd_limited_ns = st.cwnd_ns;
    b.rto_wait_ns = st.rto_ns;
    b.fast_recovery_ns = st.fastrec_ns;
    b.nack_recovery_ns = st.nack_ns;

    // Split the drain bucket — pure network time — across hop-residency
    // components proportionally. Floor division per component; the
    // remainder plus any unknown-tier share lands in other_ns, keeping
    // component_sum() == fct_ns exact.
    const std::int64_t comp[7] = {
        st.hop_serialization_ns,
        st.hop_propagation_ns,
        st.hop_queue_ns[static_cast<std::size_t>(HopTier::kHost)],
        st.hop_queue_ns[static_cast<std::size_t>(HopTier::kTor)],
        st.hop_queue_ns[static_cast<std::size_t>(HopTier::kAgg)],
        st.hop_queue_ns[static_cast<std::size_t>(HopTier::kSpine)],
        st.hop_pause_ns,
    };
    std::int64_t total_hop =
        st.hop_queue_ns[static_cast<std::size_t>(HopTier::kUnknown)];
    for (const std::int64_t c : comp) total_hop += c;
    const std::int64_t drain = st.drain_ns;
    if (drain > 0 && total_hop > 0) {
      std::int64_t shares[7];
      std::int64_t assigned = 0;
      for (int i = 0; i < 7; ++i) {
        shares[i] = static_cast<std::int64_t>(
            static_cast<__int128>(drain) * comp[i] / total_hop);
        assigned += shares[i];
      }
      b.serialization_ns = shares[0];
      b.propagation_ns = shares[1];
      b.q_host_ns = shares[2];
      b.q_tor_ns = shares[3];
      b.q_agg_ns = shares[4];
      b.q_spine_ns = shares[5];
      b.pfc_pause_ns = shares[6];
      b.other_ns = drain - assigned;
    } else {
      b.other_ns = drain;
    }
    out.push_back(b);
  }
  std::sort(out.begin(), out.end(),
            [](const FlowBreakdown& a, const FlowBreakdown& x) { return a.flow < x.flow; });
  return out;
}

std::vector<TailAttributionRow> tail_attribution(std::vector<FlowBreakdown> flows) {
  std::vector<TailAttributionRow> rows;
  if (flows.empty()) return rows;
  std::sort(flows.begin(), flows.end(),
            [](const FlowBreakdown& a, const FlowBreakdown& b) {
              return a.fct_ns != b.fct_ns ? a.fct_ns < b.fct_ns : a.flow < b.flow;
            });
  const std::size_t n = flows.size();
  // Nearest-rank: index = ceil(q * n) - 1, with q as an exact fraction.
  const struct {
    const char* name;
    std::size_t num, den;
  } pctls[] = {{"p50", 50, 100}, {"p99", 99, 100}, {"p999", 999, 1000}};
  for (const auto& p : pctls) {
    const std::size_t idx = (p.num * n + p.den - 1) / p.den - 1;
    rows.push_back(TailAttributionRow{p.name, static_cast<int>(n), flows[idx]});
  }
  return rows;
}

std::string fct_breakdown_csv_header() {
  return "mode,degree,pctl,flows,fct_ns,serialization_ns,propagation_ns,"
         "q_host_ns,q_tor_ns,q_agg_ns,q_spine_ns,pfc_pause_ns,cwnd_limited_ns,"
         "rto_wait_ns,fast_recovery_ns,nack_recovery_ns,other_ns\n";
}

void append_fct_breakdown_csv(std::string& out, const std::string& mode, int degree,
                              const std::vector<TailAttributionRow>& rows) {
  char buf[512];
  for (const TailAttributionRow& r : rows) {
    const FlowBreakdown& b = r.flow;
    std::snprintf(buf, sizeof(buf),
                  "%s,%d,%s,%d,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,"
                  "%lld,%lld,%lld\n",
                  mode.c_str(), degree, r.pctl, r.flows,
                  static_cast<long long>(b.fct_ns),
                  static_cast<long long>(b.serialization_ns),
                  static_cast<long long>(b.propagation_ns),
                  static_cast<long long>(b.q_host_ns),
                  static_cast<long long>(b.q_tor_ns),
                  static_cast<long long>(b.q_agg_ns),
                  static_cast<long long>(b.q_spine_ns),
                  static_cast<long long>(b.pfc_pause_ns),
                  static_cast<long long>(b.cwnd_limited_ns),
                  static_cast<long long>(b.rto_wait_ns),
                  static_cast<long long>(b.fast_recovery_ns),
                  static_cast<long long>(b.nack_recovery_ns),
                  static_cast<long long>(b.other_ns));
    out += buf;
  }
}

}  // namespace incast::obs
