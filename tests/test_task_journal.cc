// Tests for the crash-safe checkpoint/resume layer: core::Json round-trips,
// config fingerprints, TaskJournal load/append semantics (truncation
// tolerance, corruption refusal, fingerprint refusal), and the end-to-end
// guarantee — a sweep killed mid-run and resumed from its journal produces
// results identical to an uninterrupted run. The resume suite is named
// "SweepJournal" so the TSan CI leg exercises the journal's worker-thread
// appends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/fleet_experiment.h"
#include "core/json.h"
#include "core/resilience_experiment.h"
#include "core/task_journal.h"
#include "workload/service_profile.h"

namespace incast::core {
namespace {

using namespace incast::sim::literals;

std::string temp_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- Json ---

TEST(Json, RoundTripsScalarsAndContainers) {
  Json::Object o;
  o["null"] = Json{};
  o["t"] = Json{true};
  o["f"] = Json{false};
  o["int"] = Json{std::int64_t{-9223372036854775807LL}};
  o["pi"] = Json{3.141592653589793};
  o["s"] = Json{"quote\" slash\\ tab\t newline\n"};
  o["arr"] = Json{Json::Array{Json{1}, Json{"two"}, Json{Json::Array{}}}};
  const Json original{std::move(o)};

  const Json reparsed = Json::parse(original.dump());
  EXPECT_EQ(reparsed.dump(), original.dump());
  EXPECT_TRUE(reparsed.at("null").is_null());
  EXPECT_TRUE(reparsed.at("t").as_bool());
  EXPECT_EQ(reparsed.at("int").as_int(), -9223372036854775807LL);
  EXPECT_DOUBLE_EQ(reparsed.at("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(reparsed.at("s").as_string(), "quote\" slash\\ tab\t newline\n");
  EXPECT_EQ(reparsed.at("arr").as_array().size(), 3u);
}

TEST(Json, ObjectKeysSerializeSorted) {
  Json::Object o;
  o["zebra"] = Json{1};
  o["alpha"] = Json{2};
  o["mid"] = Json{3};
  EXPECT_EQ(Json{std::move(o)}.dump(), R"({"alpha":2,"mid":3,"zebra":1})");
}

TEST(Json, IntegralDoublesStayDoublesAcrossRoundTrip) {
  // 2.0 must not reparse as the integer 2 — the dump appends ".0".
  const Json d{2.0};
  EXPECT_EQ(d.dump(), "2.0");
  EXPECT_TRUE(Json::parse(d.dump()).is_double());
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("nul"), std::runtime_error);
}

TEST(Json, CheckedAccessorsThrowOnMismatch) {
  const Json s{"text"};
  EXPECT_THROW((void)s.as_int(), std::runtime_error);
  EXPECT_THROW((void)s.at("key"), std::runtime_error);
  const Json o{Json::Object{}};
  EXPECT_THROW((void)o.at("absent"), std::runtime_error);
  EXPECT_EQ(o.find("absent"), nullptr);
}

// --- Fingerprints ---

TEST(TaskJournalFingerprint, StableForIdenticalConfigsSensitiveToKnobs) {
  FleetConfig a;
  a.profile = workload::service_by_name("messaging");
  FleetConfig b = a;
  EXPECT_EQ(fnv1a(canonical_config(a)), fnv1a(canonical_config(b)));

  // Result-determining knob: fingerprint must move.
  b.base_seed += 1;
  EXPECT_NE(fnv1a(canonical_config(a)), fnv1a(canonical_config(b)));

  // Execution knobs: fingerprint must NOT move (resuming at a different
  // --jobs or retry policy is explicitly supported).
  FleetConfig c = a;
  c.jobs = 16;
  c.sweep.fail_fast = false;
  c.sweep.max_attempts = 5;
  c.fail_cell_for_test = 3;
  EXPECT_EQ(fnv1a(canonical_config(a)), fnv1a(canonical_config(c)));
}

TEST(TaskJournalFingerprint, ResilienceCoversSweepAxes) {
  ResilienceConfig a;
  a.drop_rates = {0.0, 0.001};
  ResilienceConfig b = a;
  EXPECT_EQ(fnv1a(canonical_config(a)), fnv1a(canonical_config(b)));
  b.drop_rates.push_back(0.01);
  EXPECT_NE(fnv1a(canonical_config(a)), fnv1a(canonical_config(b)));
  ResilienceConfig c = a;
  c.flap_durations = {2_ms};
  EXPECT_NE(fnv1a(canonical_config(a)), fnv1a(canonical_config(c)));
}

// --- TaskJournal file semantics ---

JournalHeader test_header(std::uint64_t fingerprint = 123, std::uint64_t tasks = 4) {
  JournalHeader h;
  h.command = "fleet";
  h.fingerprint = fingerprint;
  h.tasks = tasks;
  return h;
}

Json payload_with(int marker) {
  Json::Object o;
  o["marker"] = Json{marker};
  return Json{std::move(o)};
}

TEST(TaskJournal, RecordsPersistAcrossReopen) {
  const std::string path = temp_path("journal_reopen.jsonl");
  {
    TaskJournal j;
    j.open(path, test_header());
    EXPECT_TRUE(j.active());
    EXPECT_EQ(j.completed_count(), 0u);
    j.record_ok(1, 777, payload_with(11));
    j.record_ok(3, 778, payload_with(33));
    sim::TaskFailure f;
    f.index = 2;
    f.seed = 779;
    f.category = sim::FailureCategory::kAudit;
    f.message = "conservation: ledger imbalance";
    f.attempts = 1;
    j.record_failure(f);
  }
  TaskJournal j;
  j.open(path, test_header());
  EXPECT_EQ(j.completed_count(), 2u);
  EXPECT_TRUE(j.completed(1));
  EXPECT_TRUE(j.completed(3));
  // Failed tasks are NOT completed: a resume run retries them.
  EXPECT_FALSE(j.completed(2));
  EXPECT_FALSE(j.completed(0));
  ASSERT_NE(j.payload(1), nullptr);
  EXPECT_EQ(j.payload(1)->at("marker").as_int(), 11);
  EXPECT_EQ(j.payload(0), nullptr);
  std::remove(path.c_str());
}

TEST(TaskJournal, ToleratesTruncatedFinalLine) {
  const std::string path = temp_path("journal_truncated.jsonl");
  {
    TaskJournal j;
    j.open(path, test_header());
    j.record_ok(0, 1, payload_with(0));
    j.record_ok(1, 2, payload_with(1));
  }
  {
    // Chop the file mid-way through the last record, as a kill -9 would.
    std::string contents = read_file(path);
    contents.resize(contents.size() - 10);
    std::ofstream out{path, std::ios::trunc};
    out << contents;
  }
  {
    TaskJournal j;
    j.open(path, test_header());
    EXPECT_EQ(j.completed_count(), 1u);
    EXPECT_TRUE(j.completed(0));
    EXPECT_FALSE(j.completed(1));
    // Appending after a truncated tail must start on a fresh line, not fuse
    // onto the partial record.
    j.record_ok(1, 2, payload_with(1));
  }
  TaskJournal j;
  j.open(path, test_header());
  EXPECT_EQ(j.completed_count(), 2u);
  EXPECT_TRUE(j.completed(1));
  std::remove(path.c_str());
}

TEST(TaskJournal, RefusesFingerprintMismatch) {
  const std::string path = temp_path("journal_mismatch.jsonl");
  {
    TaskJournal j;
    j.open(path, test_header(/*fingerprint=*/123));
    j.record_ok(0, 1, payload_with(0));
  }
  TaskJournal j;
  try {
    j.open(path, test_header(/*fingerprint=*/456));
    FAIL() << "expected core::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig);
  }
  // Different task count is also a config mismatch.
  TaskJournal j2;
  try {
    j2.open(path, test_header(/*fingerprint=*/123, /*tasks=*/9));
    FAIL() << "expected core::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig);
  }
  std::remove(path.c_str());
}

TEST(TaskJournal, RefusesCorruptMidFileRecord) {
  const std::string path = temp_path("journal_corrupt.jsonl");
  {
    TaskJournal j;
    j.open(path, test_header());
    j.record_ok(0, 1, payload_with(0));
    j.record_ok(1, 2, payload_with(1));
  }
  {
    // Corrupt the middle record — unlike a truncated tail, this means the
    // file is damaged and silently skipping it could merge wrong results.
    std::string contents = read_file(path);
    const std::size_t second_line = contents.find('\n') + 1;
    contents[second_line + 5] = '\xff';
    std::ofstream out{path, std::ios::trunc};
    out << contents;
  }
  TaskJournal j;
  try {
    j.open(path, test_header());
    FAIL() << "expected core::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
  std::remove(path.c_str());
}

TEST(TaskJournal, RecordOkOnCompletedIndexIsNoOp) {
  const std::string path = temp_path("journal_noop.jsonl");
  {
    TaskJournal j;
    j.open(path, test_header());
    j.record_ok(0, 1, payload_with(0));
  }
  const std::string before = read_file(path);
  {
    // A resume run deliberately re-runs some tasks (fleet cell 0); their
    // record_ok must not grow the journal.
    TaskJournal j;
    j.open(path, test_header());
    j.record_ok(0, 1, payload_with(0));
  }
  EXPECT_EQ(read_file(path), before);
  std::remove(path.c_str());
}

// --- Payload round-trips ---

TEST(TaskJournal, HostTraceResultPayloadRoundTrips) {
  HostTraceResult r;
  r.host = 3;
  r.snapshot = 2;
  r.alt_regime = true;
  r.avg_utilization = 0.3125;
  r.queue_drops = 17;
  r.generated_bursts = 42;
  r.events_processed = 123456789;
  r.peak_events_pending = 512;
  r.slab_high_water = 1024;
  r.audit_violations = 1;
  analysis::Burst b;
  b.first_bin = 5;
  b.num_bins = 3;
  b.bytes = 100000;
  b.marked_bytes = 5000;
  b.retx_bytes = 120;
  b.max_active_flows = 9;
  b.peak_queue_packets = 77;
  r.summary.bursts.push_back(b);
  r.summary.trace_seconds = 0.25;

  // Through a real serialize -> dump -> parse -> deserialize cycle.
  const HostTraceResult back =
      host_trace_from_payload(Json::parse(to_journal_payload(r).dump()));
  EXPECT_EQ(back.host, r.host);
  EXPECT_EQ(back.snapshot, r.snapshot);
  EXPECT_EQ(back.alt_regime, r.alt_regime);
  EXPECT_DOUBLE_EQ(back.avg_utilization, r.avg_utilization);
  EXPECT_EQ(back.queue_drops, r.queue_drops);
  EXPECT_EQ(back.generated_bursts, r.generated_bursts);
  EXPECT_EQ(back.events_processed, r.events_processed);
  EXPECT_EQ(back.peak_events_pending, r.peak_events_pending);
  EXPECT_EQ(back.slab_high_water, r.slab_high_water);
  EXPECT_EQ(back.audit_violations, r.audit_violations);
  ASSERT_EQ(back.summary.bursts.size(), 1u);
  EXPECT_EQ(back.summary.bursts[0].bytes, b.bytes);
  EXPECT_EQ(back.summary.bursts[0].peak_queue_packets, b.peak_queue_packets);
  EXPECT_DOUBLE_EQ(back.summary.trace_seconds, r.summary.trace_seconds);
}

TEST(TaskJournal, ResiliencePointPayloadRoundTrips) {
  ResiliencePoint p;
  p.drop_rate = 0.001;
  p.flap_duration = 2_ms;
  p.goodput_rel = 0.875;
  p.recovery_after_flap_ms = 1.5;
  p.mode = DctcpMode::kCollapse;
  p.result.avg_bct_ms = 3.25;
  p.result.max_bct_ms = 9.5;
  p.result.timeouts = 4;
  p.result.fast_retransmits = 11;
  p.result.retransmitted_packets = 23;
  p.result.queue_drops = 7;
  p.result.injected_drops = 19;
  p.result.injected_corruptions = 2;
  p.result.events_processed = 987654;

  const ResiliencePoint back =
      resilience_point_from_payload(Json::parse(to_journal_payload(p).dump()));
  EXPECT_DOUBLE_EQ(back.drop_rate, p.drop_rate);
  EXPECT_EQ(back.flap_duration.ns(), p.flap_duration.ns());
  EXPECT_DOUBLE_EQ(back.goodput_rel, p.goodput_rel);
  EXPECT_DOUBLE_EQ(back.recovery_after_flap_ms, p.recovery_after_flap_ms);
  EXPECT_EQ(back.mode, DctcpMode::kCollapse);
  EXPECT_DOUBLE_EQ(back.result.avg_bct_ms, p.result.avg_bct_ms);
  EXPECT_EQ(back.result.timeouts, p.result.timeouts);
  EXPECT_EQ(back.result.retransmitted_packets, p.result.retransmitted_packets);
  EXPECT_EQ(back.result.injected_drops, p.result.injected_drops);
  EXPECT_EQ(back.result.events_processed, p.result.events_processed);
}

TEST(TaskJournal, ScalingPointPayloadRoundTrips) {
  ScalingPoint p;
  p.degree = 512;
  p.fct_ms = 12.625;
  p.optimal_ms = 3.5;
  p.overhead_pct = 260.71;
  p.completed_flows = 512;
  p.timeouts = 3;
  p.retransmits = 91;
  p.queue_drops = 88;
  p.flow_state_bytes = 1'000'000;
  p.packet_pool_bytes = 2'000'000;
  p.routing_bytes = 300'000;
  p.event_bytes = 40'000;
  p.bytes_per_flow = 6523;
  p.events_processed = 777'777;
  p.audit_violations = 1;
  p.traced_flows = 256;
  p.flow_trace_incomplete = 2;
  p.int_hop_overflows = 5;
  obs::TailAttributionRow row;
  row.pctl = "p99";
  row.flows = 256;
  row.flow.flow = 12345;
  row.flow.fct_ns = 12'625'000;
  row.flow.serialization_ns = 1'000'000;
  row.flow.q_tor_ns = 9'000'000;
  row.flow.rto_wait_ns = 2'000'000;
  row.flow.other_ns = 625'000;
  p.fct_rows.push_back(row);
  // Parallel diagnostics are execution-only and must NOT survive the
  // journal: a resumed point may run under a different --domains.
  p.parallel_domains = 8;
  p.windows = 1000;
  p.packets_bridged = 5000;

  const ScalingPoint back =
      scaling_point_from_payload(Json::parse(to_journal_payload(p).dump()));
  EXPECT_EQ(back.degree, p.degree);
  EXPECT_DOUBLE_EQ(back.fct_ms, p.fct_ms);
  EXPECT_DOUBLE_EQ(back.optimal_ms, p.optimal_ms);
  EXPECT_DOUBLE_EQ(back.overhead_pct, p.overhead_pct);
  EXPECT_EQ(back.completed_flows, p.completed_flows);
  EXPECT_EQ(back.timeouts, p.timeouts);
  EXPECT_EQ(back.retransmits, p.retransmits);
  EXPECT_EQ(back.queue_drops, p.queue_drops);
  EXPECT_EQ(back.flow_state_bytes, p.flow_state_bytes);
  EXPECT_EQ(back.packet_pool_bytes, p.packet_pool_bytes);
  EXPECT_EQ(back.routing_bytes, p.routing_bytes);
  EXPECT_EQ(back.event_bytes, p.event_bytes);
  EXPECT_EQ(back.bytes_per_flow, p.bytes_per_flow);
  EXPECT_EQ(back.events_processed, p.events_processed);
  EXPECT_EQ(back.audit_violations, p.audit_violations);
  EXPECT_EQ(back.traced_flows, p.traced_flows);
  EXPECT_EQ(back.flow_trace_incomplete, p.flow_trace_incomplete);
  EXPECT_EQ(back.int_hop_overflows, p.int_hop_overflows);
  ASSERT_EQ(back.fct_rows.size(), 1u);
  EXPECT_STREQ(back.fct_rows[0].pctl, "p99");  // static-literal mapping
  EXPECT_EQ(back.fct_rows[0].flows, row.flows);
  EXPECT_EQ(back.fct_rows[0].flow.flow, row.flow.flow);
  EXPECT_EQ(back.fct_rows[0].flow.fct_ns, row.flow.fct_ns);
  EXPECT_EQ(back.fct_rows[0].flow.q_tor_ns, row.flow.q_tor_ns);
  EXPECT_EQ(back.fct_rows[0].flow.rto_wait_ns, row.flow.rto_wait_ns);
  EXPECT_EQ(back.fct_rows[0].flow.other_ns, row.flow.other_ns);
  EXPECT_EQ(back.parallel_domains, 0u);  // excluded by design
  EXPECT_EQ(back.windows, 0u);
  EXPECT_EQ(back.packets_bridged, 0u);
}

TEST(TaskJournal, CollateralPointPayloadRoundTrips) {
  CollateralPoint p;
  p.mode = QueueMode::kTrim;
  p.degree = 128;
  p.victim_goodput_gbps = 9.25;
  p.victim_delivered_bytes = 1'000'000'000;
  p.victim_paused_ms = 0.75;
  p.victim_retransmits = 12;
  p.victim_timeouts = 1;
  p.victim_nacks = 34;
  p.incast_avg_bct_ms = 4.5;
  p.incast_max_bct_ms = 8.125;
  p.incast_timeouts = 9;
  p.queue_drops = 100;
  p.trimmed_packets = 5000;
  p.trimmed_bytes = 7'000'000;
  p.pfc_pause_frames = 0;
  p.pfc_resume_frames = 0;
  p.pfc_overflow_drops = 0;
  p.incast_nacks = 4900;
  p.events_processed = 123'123;
  p.audit_violations = 0;
  p.traced_flows = 64;
  p.flow_trace_incomplete = 0;
  p.int_hop_overflows = 2;
  obs::TailAttributionRow row;
  row.pctl = "p999";
  row.flows = 64;
  row.flow.fct_ns = 8'125'000;
  row.flow.nack_recovery_ns = 4'000'000;
  p.fct_rows.push_back(row);

  const CollateralPoint back =
      collateral_point_from_payload(Json::parse(to_journal_payload(p).dump()));
  EXPECT_EQ(back.mode, QueueMode::kTrim);
  EXPECT_EQ(back.degree, p.degree);
  EXPECT_DOUBLE_EQ(back.victim_goodput_gbps, p.victim_goodput_gbps);
  EXPECT_EQ(back.victim_delivered_bytes, p.victim_delivered_bytes);
  EXPECT_DOUBLE_EQ(back.victim_paused_ms, p.victim_paused_ms);
  EXPECT_EQ(back.victim_retransmits, p.victim_retransmits);
  EXPECT_EQ(back.victim_timeouts, p.victim_timeouts);
  EXPECT_EQ(back.victim_nacks, p.victim_nacks);
  EXPECT_DOUBLE_EQ(back.incast_avg_bct_ms, p.incast_avg_bct_ms);
  EXPECT_DOUBLE_EQ(back.incast_max_bct_ms, p.incast_max_bct_ms);
  EXPECT_EQ(back.incast_timeouts, p.incast_timeouts);
  EXPECT_EQ(back.queue_drops, p.queue_drops);
  EXPECT_EQ(back.trimmed_packets, p.trimmed_packets);
  EXPECT_EQ(back.trimmed_bytes, p.trimmed_bytes);
  EXPECT_EQ(back.incast_nacks, p.incast_nacks);
  EXPECT_EQ(back.events_processed, p.events_processed);
  EXPECT_EQ(back.int_hop_overflows, p.int_hop_overflows);
  ASSERT_EQ(back.fct_rows.size(), 1u);
  EXPECT_STREQ(back.fct_rows[0].pctl, "p999");
  EXPECT_EQ(back.fct_rows[0].flow.nack_recovery_ns, row.flow.nack_recovery_ns);
}

TEST(TaskJournalFingerprint, ScalingCoversEngineIdentityNotDomainCount) {
  ScalingConfig a;
  a.degrees = {1, 2, 8};
  a.domains = 2;
  ScalingConfig b = a;
  b.domains = 8;
  // The parallel engine is byte-identical at any N: a journal written at
  // --domains 2 must resume at --domains 8.
  EXPECT_EQ(canonical_config(a), canonical_config(b));
  // ...but the legacy engine is a different deterministic sequence.
  b.domains = 0;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  // Result-determining knobs all move the fingerprint.
  b = a;
  b.degrees = {1, 2, 4};
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.bytes_per_flow += 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.fabric.hosts_per_leaf += 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.seed += 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  // Execution knobs must NOT move it: resuming with different parallelism
  // or output paths is the whole point of the journal.
  b = a;
  b.jobs = 7;
  b.sweep.max_attempts = 9;
  EXPECT_EQ(canonical_config(a), canonical_config(b));
}

TEST(TaskJournalFingerprint, CollateralCoversGridAndModeKnobs) {
  CollateralConfig a;
  a.degrees = {64};
  CollateralConfig b = a;
  b.modes = {QueueMode::kPfc};
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.degrees = {64, 128};
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.trim_queue_capacity_packets += 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.pfc.xoff_bytes += 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.victim_cwnd_cap_bytes += 1;
  EXPECT_NE(canonical_config(a), canonical_config(b));
  b = a;
  b.jobs = 13;
  EXPECT_EQ(canonical_config(a), canonical_config(b));
}

// --- Journal compatibility goldens ---
//
// An existing journal resumes only while two things hold byte for byte: the
// fingerprint in its header and the encoding of its records. Both are
// pinned here against values a released binary wrote, so a change that
// would orphan every journal on disk fails loudly instead.

TEST(JournalCompat, DefaultConfigFingerprintsArePinned) {
  EXPECT_EQ(fnv1a(canonical_config(FleetConfig{})), 625989758262093674ULL);
  EXPECT_EQ(fnv1a(canonical_config(ResilienceConfig{})), 9428490940571887837ULL);
  EXPECT_EQ(fnv1a(canonical_config(ScalingConfig{})), 4298310342758816560ULL);
  EXPECT_EQ(fnv1a(canonical_config(CollateralConfig{})), 8525034377137359373ULL);
}

TEST(JournalCompat, ChaosCanonicalStringIsPinned) {
  EXPECT_EQ(canonical_config(ChaosConfig{}), "chaos|seed=7|configs=25|max_events=20000000");
}

// One "ok" payload per journaled command, exactly as written by the
// released binary: decoding and re-encoding must reproduce every byte.
TEST(JournalCompat, ReleasedPayloadsReencodeByteForByte) {
  const std::string fleet =
      R"({"alt_regime":false,"audit_violations":0,"avg_utilization":0.012156399999999999,)"
      R"("bursts":[{"bytes":896730,"first_bin":32,"marked_bytes":0,"max_active_flows":32,)"
      R"("num_bins":1,"peak_queue_packets":63,"retx_bytes":0}],)"
      R"("events_by_category":[0,7464,0,33,60,0],"events_processed":7557,)"
      R"("generated_bursts":1,"host":1,"peak_events_pending":625,"queue_drops":0,)"
      R"("slab_high_water":625,"snapshot":0,"trace_seconds":0.060000000000000005})";
  EXPECT_EQ(to_journal_payload(host_trace_from_payload(Json::parse(fleet))).dump(), fleet);

  const std::string faults =
      R"({"audit_violations":0,"avg_bct_ms":3.1310949999999997,"drop_rate":0.0,)"
      R"("events_by_category":[0,93600,0,122,2967,4],"events_processed":96693,)"
      R"("fast_retransmits":0,"flap_duration_ns":2000000,"goodput_rel":1.0,)"
      R"("injected_corruptions":0,"injected_drops":0,"max_bct_ms":3.1429169999999997,)"
      R"("mode":"safe","peak_events_pending":7804,"queue_drops":0,)"
      R"("recovery_after_flap_ms":0.0,"retransmitted_packets":0,"slab_high_water":7804,)"
      R"("timeouts":0})";
  EXPECT_EQ(to_journal_payload(resilience_point_from_payload(Json::parse(faults))).dump(),
            faults);

  const std::string scaling =
      R"({"audit_violations":0,"bytes_per_flow":11325,"completed_flows":8,"degree":8,)"
      R"("event_bytes":15264,"events_processed":2432,"fct_ms":0.21554399999999999,)"
      R"("fct_rows":[{"cwnd_limited_ns":85880,"fast_recovery_ns":0,"fct_ns":213112,)"
      R"("flow":6,"flows":8,"nack_recovery_ns":0,"other_ns":2,"pctl":"p50",)"
      R"("pfc_pause_ns":0,"propagation_ns":27440,"q_agg_ns":0,"q_host_ns":4717,)"
      R"("q_spine_ns":2431,"q_tor_ns":88188,"rto_wait_ns":0,"serialization_ns":4454},)"
      R"({"cwnd_limited_ns":93080,"fast_recovery_ns":0,"fct_ns":215544,"flow":8,)"
      R"("flows":8,"nack_recovery_ns":0,"other_ns":2,"pctl":"p99","pfc_pause_ns":0,)"
      R"("propagation_ns":24797,"q_agg_ns":0,"q_host_ns":4263,"q_spine_ns":2653,)"
      R"("q_tor_ns":86724,"rto_wait_ns":0,"serialization_ns":4025},)"
      R"({"cwnd_limited_ns":93080,"fast_recovery_ns":0,"fct_ns":215544,"flow":8,)"
      R"("flows":8,"nack_recovery_ns":0,"other_ns":2,"pctl":"p999","pfc_pause_ns":0,)"
      R"("propagation_ns":24797,"q_agg_ns":0,"q_host_ns":4263,"q_spine_ns":2653,)"
      R"("q_tor_ns":86724,"rto_wait_ns":0,"serialization_ns":4025}],)"
      R"("flow_state_bytes":12672,"flow_trace_incomplete":0,"int_hop_overflows":0,)"
      R"("optimal_ms":0.21674399999999999,"overhead_pct":-0.55364854390432816,)"
      R"("packet_pool_bytes":59976,"queue_drops":0,"retransmits":0,"routing_bytes":2688,)"
      R"("timeouts":0,"traced_flows":8})";
  EXPECT_EQ(to_journal_payload(scaling_point_from_payload(Json::parse(scaling))).dump(),
            scaling);

  const std::string collateral =
      R"({"audit_violations":0,"degree":16,"events_processed":158272,"fct_rows":[],)"
      R"("flow_trace_incomplete":1,"incast_avg_bct_ms":3.1376080000000002,)"
      R"("incast_max_bct_ms":3.139764,"incast_nacks":0,"incast_timeouts":0,)"
      R"("int_hop_overflows":0,"mode":"credit","pfc_overflow_drops":0,)"
      R"("pfc_pause_frames":0,"pfc_resume_frames":0,"queue_drops":0,"traced_flows":0,)"
      R"("trimmed_bytes":0,"trimmed_packets":0,"victim_delivered_bytes":10900360,)"
      R"("victim_goodput_gbps":9.6892088888888868,"victim_nacks":0,)"
      R"("victim_paused_ms":0.0,"victim_retransmits":0,"victim_timeouts":0})";
  EXPECT_EQ(
      to_journal_payload(collateral_point_from_payload(Json::parse(collateral))).dump(),
      collateral);

  const std::string chaos =
      R"({"description":"fleet service=aggregator trace=68ms contention=2 max_flows=80",)"
      R"("events_processed":141050,"seed":"16753576447339095367"})";
  EXPECT_EQ(to_journal_payload(chaos_run_from_payload(Json::parse(chaos))).dump(), chaos);
}

// Enum-like payload fields decode strictly: a name the encoder never writes
// is a corrupt payload (kIo), never a silently substituted default.
TEST(JournalCompat, UnknownEnumNamesAreCorruptPayloads) {
  const auto expect_io_error = [](auto decode, const Json& payload) {
    try {
      (void)decode(payload);
      ADD_FAILURE() << "decoded " << payload.dump();
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kIo) << e.what();
    }
  };

  Json::Object faults = to_journal_payload(ResiliencePoint{}).as_object();
  faults["mode"] = Json{"collapsed"};
  expect_io_error(resilience_point_from_payload, Json{faults});

  Json::Object collateral = to_journal_payload(CollateralPoint{}).as_object();
  collateral["mode"] = Json{"lossless"};
  expect_io_error(collateral_point_from_payload, Json{collateral});

  ScalingPoint p;
  p.fct_rows.push_back(obs::TailAttributionRow{"p99", 4, {}});
  Json::Object row = to_journal_payload(p).at("fct_rows").as_array().front().as_object();
  row["pctl"] = Json{"p95"};
  Json::Object scaling = to_journal_payload(p).as_object();
  scaling["fct_rows"] = Json{Json::Array{Json{row}}};
  expect_io_error(scaling_point_from_payload, Json{scaling});
}

// --- End-to-end: kill mid-sweep, resume, byte-identical results. Suite is
// --- named "SweepJournal" so the TSan leg covers concurrent appends.

FleetConfig journal_fleet(int jobs) {
  FleetConfig cfg;
  cfg.profile = workload::service_by_name("messaging");
  cfg.profile.max_flows = 40;
  cfg.profile.body_median_flows = 20.0;
  cfg.num_hosts = 3;
  cfg.num_snapshots = 2;
  cfg.trace_duration = 40_ms;
  cfg.jobs = jobs;
  return cfg;
}

std::string fleet_results_fingerprint(const std::vector<HostTraceResult>& results) {
  // The deterministic observables a resumed run must reproduce exactly —
  // serialized through the same payload path the journal itself uses.
  std::string all;
  for (const auto& r : results) all += to_journal_payload(r).dump() + "\n";
  return all;
}

TEST(SweepJournalResume, KilledSweepResumesByteIdentical) {
  // Reference: uninterrupted sequential run.
  const auto reference = FleetExperiment{journal_fleet(1)}.run_all();
  const std::string want = fleet_results_fingerprint(reference);

  for (const int jobs : {1, 4}) {
    const std::string path = temp_path("journal_resume_e2e.jsonl");
    JournalHeader header;
    header.command = "fleet";
    header.tasks = 6;
    header.fingerprint = fnv1a(canonical_config(journal_fleet(jobs)));

    // Phase 1: "crash" after three cells — the journal only ever sees three
    // records, then the process is gone (journal destructor = kill point).
    {
      TaskJournal journal;
      journal.open(path, header);
      auto cfg = journal_fleet(jobs);
      cfg.sweep.fail_fast = false;
      std::atomic<int> recorded{0};
      cfg.on_result = [&](std::size_t index, std::uint64_t seed,
                          const HostTraceResult& r) {
        if (recorded.fetch_add(1) < 3) {
          journal.record_ok(index, seed, to_journal_payload(r));
        }
      };
      (void)FleetExperiment{cfg}.run_all();
    }

    // Phase 2: resume. Cells in the journal replay from their payloads;
    // the rest run fresh. Merged output must match the reference exactly.
    {
      TaskJournal journal;
      journal.open(path, header);
      EXPECT_EQ(journal.completed_count(), 3u) << "jobs=" << jobs;
      auto cfg = journal_fleet(jobs);
      std::atomic<int> replayed{0};
      cfg.resume = [&](std::size_t index, HostTraceResult& out) {
        const Json* payload = journal.payload(index);
        if (payload == nullptr) return false;
        out = host_trace_from_payload(*payload);
        replayed.fetch_add(1);
        return true;
      };
      cfg.on_result = [&](std::size_t index, std::uint64_t seed,
                          const HostTraceResult& r) {
        journal.record_ok(index, seed, to_journal_payload(r));
      };
      const auto resumed = FleetExperiment{cfg}.run_all();
      EXPECT_EQ(replayed.load(), 3) << "jobs=" << jobs;
      EXPECT_EQ(fleet_results_fingerprint(resumed), want) << "jobs=" << jobs;
    }

    // Phase 3: the journal is now complete; a further resume replays
    // everything and still matches.
    {
      TaskJournal journal;
      journal.open(path, header);
      EXPECT_EQ(journal.completed_count(), 6u) << "jobs=" << jobs;
      auto cfg = journal_fleet(jobs);
      cfg.resume = [&](std::size_t index, HostTraceResult& out) {
        const Json* payload = journal.payload(index);
        if (payload == nullptr) return false;
        out = host_trace_from_payload(*payload);
        return true;
      };
      const auto replay = FleetExperiment{cfg}.run_all();
      EXPECT_EQ(fleet_results_fingerprint(replay), want) << "jobs=" << jobs;
    }
    std::remove(path.c_str());
  }
}

// The PR 2 smoke fabric at a tiny ladder, on the windowed domain engine —
// the journal must also hold across a --domains change between runs.
ScalingConfig journal_ladder() {
  ScalingConfig cfg;
  cfg.degrees = {1, 2, 8};
  cfg.fabric.num_pods = 2;
  cfg.fabric.leaves_per_pod = 2;
  cfg.fabric.hosts_per_leaf = 8;
  cfg.fabric.aggs_per_pod = 0;
  cfg.fabric.num_spines = 2;
  cfg.bytes_per_flow = 27'000;
  cfg.seed = 11;
  cfg.jobs = 1;
  cfg.domains = 1;
  return cfg;
}

TEST(SweepJournalResume, ScalingLadderResumesByteIdenticalAcrossDomainCounts) {
  const std::string want = scaling_csv(run_scaling_experiment(journal_ladder()));

  const std::string path = temp_path("scaling.journal");
  auto cfg = journal_ladder();
  const JournalHeader header{"scaling", fnv1a(canonical_config(cfg)), cfg.degrees.size()};

  // Phase 1: journal only the first two points — a "crash" before the third.
  {
    TaskJournal journal;
    journal.open(path, header);
    cfg.on_result = [&](std::size_t index, std::uint64_t seed, const ScalingPoint& p) {
      if (index < 2) journal.record_ok(index, seed, to_journal_payload(p));
    };
    (void)run_scaling_experiment(cfg);
  }

  // Phase 2: resume under a *different* domain count. The fingerprint
  // encodes engine identity, not N, so the journal is accepted; the two
  // stored points replay, the third runs fresh, and the merged CSV is
  // byte-identical to the uninterrupted run.
  {
    TaskJournal journal;
    journal.open(path, header);
    ASSERT_EQ(journal.completed_count(), 2u);
    auto resumed_cfg = journal_ladder();
    resumed_cfg.domains = 2;
    std::atomic<int> replayed{0};
    resumed_cfg.resume = [&](std::size_t index, ScalingPoint& out) {
      const Json* payload = journal.payload(index);
      if (payload == nullptr) return false;
      out = scaling_point_from_payload(*payload);
      ++replayed;
      return true;
    };
    resumed_cfg.on_result = [&](std::size_t index, std::uint64_t seed,
                                const ScalingPoint& p) {
      journal.record_ok(index, seed, to_journal_payload(p));
    };
    const auto resumed = run_scaling_experiment(resumed_cfg);
    EXPECT_EQ(replayed.load(), 2);
    EXPECT_EQ(scaling_csv(resumed), want);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace incast::core
