// The result schema: one field table per journaled result struct.
//
// A table row names a field once — its journal payload key and the member
// path that reaches it — and, for the CSV-exported structs, its column and
// printf precision. The journal encoder and decoder and the CSV header and
// rows are all generated from the table, so adding a result field means
// adding one row. Payload keys are the journal's on-disk format: renaming
// one orphans every existing journal.
#include <cstdio>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/task_journal.h"

namespace incast::core {

namespace {

// --- Field codecs ----------------------------------------------------------

// Scalars travel through Json's own constructors (a u64 as int64) and come
// back through its checked accessors.
template <typename T>
Json to_json(const T& v) {
  return Json{v};
}
Json to_json(sim::Time v) { return Json{v.ns()}; }
Json to_json(DctcpMode v) { return Json{to_string(v)}; }
Json to_json(QueueMode v) { return Json{to_string(v)}; }
Json to_json(const sim::EventCategoryCounts& counts) {
  Json::Array out;
  for (const std::uint64_t n : counts) out.emplace_back(n);
  return Json{std::move(out)};
}

template <typename T>
void from_json(const Json& v, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = v.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    out = static_cast<T>(v.as_int());
  } else if constexpr (std::is_floating_point_v<T>) {
    out = v.as_double();
  } else {
    out = v.as_string();
  }
}
void from_json(const Json& v, sim::Time& out) { out = sim::Time::nanoseconds(v.as_int()); }
void from_json(const Json& v, sim::EventCategoryCounts& out) {
  out = {};
  const Json::Array& arr = v.as_array();
  for (std::size_t i = 0; i < out.size() && i < arr.size(); ++i) from_json(arr[i], out[i]);
}

// Enum-like fields travel as their name. Decoding accepts exactly the names
// encoding writes: anything else is a corrupt payload, never a silent
// default.
template <typename E>
void enum_from_json(const Json& v, E& out, std::initializer_list<E> values,
                    const char* what) {
  const std::string& name = v.as_string();
  for (const E e : values) {
    if (to_json(e).as_string() == name) {
      out = e;
      return;
    }
  }
  throw Error{ErrorCategory::kIo, std::string{"journal payload: unknown "} + what + " " + name};
}
void from_json(const Json& v, DctcpMode& out) {
  enum_from_json(v, out, {DctcpMode::kSafe, DctcpMode::kDegenerate, DctcpMode::kCollapse},
                 "DCTCP mode");
}
void from_json(const Json& v, QueueMode& out) {
  enum_from_json(v, out,
                 {QueueMode::kDropTail, QueueMode::kPfc, QueueMode::kTrim, QueueMode::kCredit},
                 "queue mode");
}
// TailAttributionRow::pctl points at a static string: decode onto the same
// literals tail_attribution() emits.
void from_json(const Json& v, const char*& out) {
  enum_from_json<const char*>(v, out, {"p50", "p99", "p999"}, "percentile");
}

// --- Field tables ----------------------------------------------------------

template <typename S>
struct Field {
  const char* key;  // journal payload key
  Json (*encode)(const S&);
  void (*decode)(const Json&, S&);
  const char* column;  // CSV column; nullptr = journal only
  int precision;       // CSV digits after the point (doubles)
};

// Every struct's table; each journaled struct (nested ones too) specializes
// it below.
template <typename S>
extern const std::vector<Field<S>> kSchema;

template <typename S>
Json encode(const S& s) {
  Json::Object o;
  for (const Field<S>& f : kSchema<S>) o[f.key] = f.encode(s);
  return Json{std::move(o)};
}

template <typename S>
S decode(const Json& payload) {
  S s;
  for (const Field<S>& f : kSchema<S>) f.decode(payload.at(f.key), s);
  return s;
}

template <typename S>
Json to_json(const std::vector<S>& rows) {
  Json::Array arr;
  for (const S& row : rows) arr.push_back(encode(row));
  return Json{std::move(arr)};
}

template <typename S>
void from_json(const Json& v, std::vector<S>& out) {
  out.clear();
  for (const Json& row : v.as_array()) out.push_back(decode<S>(row));
}

// The CSV cells are the encoded values, in the printf formats the exported
// files have always used.
template <typename S>
std::string csv(const std::vector<S>& rows) {
  std::string out;
  for (const Field<S>& f : kSchema<S>) {
    if (f.column != nullptr) out.append(out.empty() ? "" : ",").append(f.column);
  }
  out += '\n';
  char buf[64];
  for (const S& row : rows) {
    const char* sep = "";
    for (const Field<S>& f : kSchema<S>) {
      if (f.column == nullptr) continue;
      const Json v = f.encode(row);
      out += sep;
      sep = ",";
      if (v.is_double()) {
        std::snprintf(buf, sizeof(buf), "%.*f", f.precision, v.as_double());
        out += buf;
      } else {
        out += v.is_int() ? std::to_string(v.as_int()) : v.as_string();
      }
    }
    out += '\n';
  }
  return out;
}

// A u64 carried as a decimal string rather than a (signed) JSON number.
struct Decimal {
  static Json encode(std::uint64_t v) { return Json{std::to_string(v)}; }
  static void decode(const Json& j, std::uint64_t& v) { v = std::stoull(j.as_string()); }
};
struct Plain {
  static Json encode(const auto& v) { return to_json(v); }
  static void decode(const Json& j, auto& v) { from_json(j, v); }
};

template <typename M>
struct ClassOf;
template <typename M, typename C>
struct ClassOf<M C::*> {
  using type = C;
};

// A member path (&Outer::inner, &Inner::leaf, ...) from a struct to a field.
template <auto First, auto... Rest>
struct Path {
  using Struct = typename ClassOf<decltype(First)>::type;
  static auto& get(auto& s) { return ((s.*First) .* ... .* Rest); }
};

template <typename Codec, auto... Members>
Field<typename Path<Members...>::Struct> coded_field(const char* key, const char* column,
                                                     int precision) {
  using Member = Path<Members...>;
  using S = typename Member::Struct;
  return {key, [](const S& s) { return Codec::encode(Member::get(s)); },
          [](const Json& v, S& s) { Codec::decode(v, Member::get(s)); }, column, precision};
}

// One row: payload key, then the CSV column and precision when exported.
template <auto... Members>
auto field(const char* key, const char* column = nullptr, int precision = 0) {
  return coded_field<Plain, Members...>(key, column, precision);
}

using obs::FlowBreakdown;
using obs::TailAttributionRow;

template <>
const std::vector<Field<TailAttributionRow>> kSchema<TailAttributionRow> = {
    field<&TailAttributionRow::pctl>("pctl"),
    field<&TailAttributionRow::flows>("flows"),
    field<&TailAttributionRow::flow, &FlowBreakdown::flow>("flow"),
    field<&TailAttributionRow::flow, &FlowBreakdown::fct_ns>("fct_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::serialization_ns>("serialization_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::propagation_ns>("propagation_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::q_host_ns>("q_host_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::q_tor_ns>("q_tor_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::q_agg_ns>("q_agg_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::q_spine_ns>("q_spine_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::pfc_pause_ns>("pfc_pause_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::cwnd_limited_ns>("cwnd_limited_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::rto_wait_ns>("rto_wait_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::fast_recovery_ns>("fast_recovery_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::nack_recovery_ns>("nack_recovery_ns"),
    field<&TailAttributionRow::flow, &FlowBreakdown::other_ns>("other_ns"),
};

using analysis::Burst;

template <>
const std::vector<Field<Burst>> kSchema<Burst> = {
    field<&Burst::first_bin>("first_bin"),
    field<&Burst::num_bins>("num_bins"),
    field<&Burst::bytes>("bytes"),
    field<&Burst::marked_bytes>("marked_bytes"),
    field<&Burst::retx_bytes>("retx_bytes"),
    field<&Burst::max_active_flows>("max_active_flows"),
    field<&Burst::peak_queue_packets>("peak_queue_packets"),
};

// Deliberately absent: the bulky per-bin/per-sample series (bins, queue
// watermarks) and wall-clock profiling; see task_journal.h.
using H = HostTraceResult;
template <>
const std::vector<Field<H>> kSchema<H> = {
    field<&H::host>("host"),
    field<&H::snapshot>("snapshot"),
    field<&H::alt_regime>("alt_regime"),
    field<&H::avg_utilization>("avg_utilization"),
    field<&H::queue_drops>("queue_drops"),
    field<&H::generated_bursts>("generated_bursts"),
    field<&H::events_processed>("events_processed"),
    field<&H::events_by_category>("events_by_category"),
    field<&H::peak_events_pending>("peak_events_pending"),
    field<&H::slab_high_water>("slab_high_water"),
    field<&H::audit_violations>("audit_violations"),
    field<&H::summary, &analysis::TraceBurstSummary::trace_seconds>("trace_seconds"),
    field<&H::summary, &analysis::TraceBurstSummary::bursts>("bursts"),
};

using R = ResiliencePoint;
using I = IncastExperimentResult;
template <>
const std::vector<Field<R>> kSchema<R> = {
    field<&R::drop_rate>("drop_rate"),
    field<&R::flap_duration>("flap_duration_ns"),
    field<&R::goodput_rel>("goodput_rel"),
    field<&R::recovery_after_flap_ms>("recovery_after_flap_ms"),
    field<&R::mode>("mode"),
    field<&R::result, &I::avg_bct_ms>("avg_bct_ms"),
    field<&R::result, &I::max_bct_ms>("max_bct_ms"),
    field<&R::result, &I::timeouts>("timeouts"),
    field<&R::result, &I::fast_retransmits>("fast_retransmits"),
    field<&R::result, &I::retransmitted_packets>("retransmitted_packets"),
    field<&R::result, &I::queue_drops>("queue_drops"),
    field<&R::result, &I::injected_drops>("injected_drops"),
    field<&R::result, &I::injected_corruptions>("injected_corruptions"),
    field<&R::result, &I::events_processed>("events_processed"),
    field<&R::result, &I::events_by_category>("events_by_category"),
    field<&R::result, &I::peak_events_pending>("peak_events_pending"),
    field<&R::result, &I::slab_high_water>("slab_high_water"),
    field<&R::result, &I::audit_violations>("audit_violations"),
};

// The parallel-engine diagnostics (windows, per-domain splits, stalls) are
// intentionally absent — see task_journal.h. A replayed point reports zeros.
using P = ScalingPoint;
template <>
const std::vector<Field<P>> kSchema<P> = {
    field<&P::degree>("degree", "degree"),
    field<&P::fct_ms>("fct_ms", "fct_ms", 4),
    field<&P::optimal_ms>("optimal_ms", "optimal_ms", 4),
    field<&P::overhead_pct>("overhead_pct", "overhead_pct", 2),
    field<&P::completed_flows>("completed_flows", "completed"),
    field<&P::timeouts>("timeouts", "timeouts"),
    field<&P::retransmits>("retransmits", "retx"),
    field<&P::queue_drops>("queue_drops", "drops"),
    field<&P::flow_state_bytes>("flow_state_bytes", "flow_state_bytes"),
    field<&P::packet_pool_bytes>("packet_pool_bytes", "packet_pool_bytes"),
    field<&P::routing_bytes>("routing_bytes", "routing_bytes"),
    field<&P::event_bytes>("event_bytes", "event_bytes"),
    field<&P::bytes_per_flow>("bytes_per_flow", "bytes_per_flow"),
    field<&P::events_processed>("events_processed", "events"),
    field<&P::audit_violations>("audit_violations", "audit_violations"),
    field<&P::fct_rows>("fct_rows"),
    field<&P::traced_flows>("traced_flows"),
    field<&P::flow_trace_incomplete>("flow_trace_incomplete"),
    field<&P::int_hop_overflows>("int_hop_overflows"),
};

using C = CollateralPoint;
template <>
const std::vector<Field<C>> kSchema<C> = {
    field<&C::mode>("mode", "mode"),
    field<&C::degree>("degree", "degree"),
    field<&C::victim_goodput_gbps>("victim_goodput_gbps", "victim_gbps", 4),
    field<&C::victim_delivered_bytes>("victim_delivered_bytes"),
    field<&C::victim_paused_ms>("victim_paused_ms", "victim_paused_ms", 3),
    field<&C::victim_retransmits>("victim_retransmits", "victim_retx"),
    field<&C::victim_timeouts>("victim_timeouts", "victim_timeouts"),
    field<&C::victim_nacks>("victim_nacks", "victim_nacks"),
    field<&C::incast_avg_bct_ms>("incast_avg_bct_ms", "incast_avg_bct_ms", 3),
    field<&C::incast_max_bct_ms>("incast_max_bct_ms", "incast_max_bct_ms", 3),
    field<&C::incast_timeouts>("incast_timeouts", "incast_timeouts"),
    field<&C::queue_drops>("queue_drops", "drops"),
    field<&C::trimmed_packets>("trimmed_packets", "trimmed_packets"),
    field<&C::trimmed_bytes>("trimmed_bytes", "trimmed_bytes"),
    field<&C::pfc_pause_frames>("pfc_pause_frames", "pause_frames"),
    field<&C::pfc_resume_frames>("pfc_resume_frames", "resume_frames"),
    field<&C::pfc_overflow_drops>("pfc_overflow_drops", "overflow_drops"),
    field<&C::incast_nacks>("incast_nacks", "incast_nacks"),
    field<&C::events_processed>("events_processed"),
    field<&C::audit_violations>("audit_violations", "audit_violations"),
    field<&C::fct_rows>("fct_rows"),
    field<&C::traced_flows>("traced_flows"),
    field<&C::flow_trace_incomplete>("flow_trace_incomplete"),
    field<&C::int_hop_overflows>("int_hop_overflows"),
};

template <>
const std::vector<Field<ChaosRunResult>> kSchema<ChaosRunResult> = {
    field<&ChaosRunResult::description>("description"),
    coded_field<Decimal, &ChaosRunResult::seed>("seed", nullptr, 0),
    field<&ChaosRunResult::events_processed>("events_processed"),
};

}  // namespace

Json to_journal_payload(const HostTraceResult& result) { return encode(result); }
HostTraceResult host_trace_from_payload(const Json& payload) {
  return decode<HostTraceResult>(payload);
}

Json to_journal_payload(const ResiliencePoint& point) { return encode(point); }
ResiliencePoint resilience_point_from_payload(const Json& payload) {
  return decode<ResiliencePoint>(payload);
}

Json to_journal_payload(const ScalingPoint& point) { return encode(point); }
ScalingPoint scaling_point_from_payload(const Json& payload) {
  return decode<ScalingPoint>(payload);
}

Json to_journal_payload(const CollateralPoint& point) { return encode(point); }
CollateralPoint collateral_point_from_payload(const Json& payload) {
  return decode<CollateralPoint>(payload);
}

Json to_journal_payload(const ChaosRunResult& run) { return encode(run); }
ChaosRunResult chaos_run_from_payload(const Json& payload) {
  return decode<ChaosRunResult>(payload);
}

std::string scaling_csv(const ScalingReport& report) { return csv(report.points); }

std::string collateral_csv(const CollateralReport& report) { return csv(report.points); }

}  // namespace incast::core
