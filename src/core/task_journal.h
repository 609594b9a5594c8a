// core::TaskJournal — crash-safe checkpoint/resume for sweep subcommands.
//
// A journal is an append-only JSONL file: a header line identifying the
// command and a fingerprint of its full configuration, then one record per
// finished sweep task. A killed run (crash, SIGINT, SIGTERM, OOM) leaves a
// valid journal — at worst one truncated trailing line, which the loader
// tolerates — and rerunning the same command with the same --journal path
// resumes by skipping every task already recorded, replaying its stored
// result instead. Because every simulation is deterministic in (config,
// seed), the merged output is byte-identical to an uninterrupted run.
//
//   header:  {"command":"fleet","fingerprint":"<u64>","journal":
//             "incast-task-journal","tasks":N,"version":1}
//   ok:      {"payload":{...},"seed":"<u64>","status":"ok","task":i}
//   fail:    {"attempts":k,"category":"audit","message":"...",
//             "status":"fail","task":i}
//
// Failed tasks are deliberately *not* treated as completed: a resume run
// retries them (transient failures — OOM, wall budgets on a loaded machine —
// are exactly what resume is for). Fingerprints cover every
// result-determining knob and exclude execution knobs (--jobs, --retries,
// --fail-fast, --journal, output paths), so changing parallelism between
// runs is fine while changing the experiment refuses loudly (core::Error,
// category kConfig) instead of merging incompatible results.
#ifndef INCAST_CORE_TASK_JOURNAL_H_
#define INCAST_CORE_TASK_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "core/chaos.h"
#include "core/collateral_experiment.h"
#include "core/fleet_experiment.h"
#include "core/json.h"
#include "core/resilience_experiment.h"
#include "core/scaling_experiment.h"
#include "sim/sweep.h"

namespace incast::core {

// FNV-1a over bytes; the journal's config fingerprint hash.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

// Canonical config strings: every result-determining field in a fixed
// order, doubles via %.17g, times in integer nanoseconds. Execution knobs
// (jobs, hub, sweep policy, journal/export paths, test hooks) are excluded
// by design — see the header comment.
[[nodiscard]] std::string canonical_config(const FleetConfig& config);
[[nodiscard]] std::string canonical_config(const ResilienceConfig& config);
// scaling: `domains` enters only as engine=0|1 (legacy vs parallel) — the
// parallel engine is byte-identical at any N, so a journal written at
// --domains 8 resumes cleanly at --domains 2, while switching engines
// (whose equal-time tie-breaks differ) refuses like any config change.
[[nodiscard]] std::string canonical_config(const ScalingConfig& config);
[[nodiscard]] std::string canonical_config(const CollateralConfig& config);
[[nodiscard]] std::string canonical_config(const ChaosConfig& config);

struct JournalHeader {
  std::string command;           // the subcommand: "fleet", "scaling", ...
  std::uint64_t fingerprint{0};  // fnv1a(canonical_config(...))
  std::uint64_t tasks{0};        // sweep size, a cheap second fingerprint
};

class TaskJournal {
 public:
  TaskJournal() = default;
  ~TaskJournal();
  TaskJournal(const TaskJournal&) = delete;
  TaskJournal& operator=(const TaskJournal&) = delete;

  // Opens `path` for append, first loading any records a previous run left
  // behind. Throws core::Error — kConfig when the existing header does not
  // match `header` (different command, config, or sweep size), kIo when the
  // file exists but is unreadable/corrupt beyond a truncated final line, or
  // cannot be created.
  void open(const std::string& path, const JournalHeader& header);

  [[nodiscard]] bool active() const noexcept { return out_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  // Completed (status "ok") tasks loaded at open().
  [[nodiscard]] std::size_t completed_count() const noexcept { return payloads_.size(); }
  [[nodiscard]] bool completed(std::size_t index) const noexcept;
  // The stored payload, or nullptr when the task is not completed.
  [[nodiscard]] const Json* payload(std::size_t index) const noexcept;

  // Append one record and flush (so a kill -9 right after loses nothing).
  // Thread-safe: sweep workers record from their own threads. record_ok on
  // an already-completed index is a no-op (a deliberately re-run task, e.g.
  // the observed cell, does not grow the journal on every resume).
  void record_ok(std::size_t index, std::uint64_t seed, const Json& payload);
  void record_failure(const sim::TaskFailure& failure);

 private:
  void append_line(const std::string& line);

  std::FILE* out_{nullptr};
  std::string path_;
  std::map<std::size_t, Json> payloads_;
  std::mutex mu_;
};

// Payload (de)serialization for the journaled subcommands, generated from
// one field table per result struct (core/result_schema.cc). Payloads carry
// every field the CLI reports or aggregates; deliberately excluded are the
// bulky per-bin/per-sample series (bins, queue watermarks) — the one cell
// whose series the CLI exports (fleet cell 0; the faults baseline) is
// always re-run on resume, which reproduces them exactly. Decoding throws
// on a missing key, and core::Error (kIo) on an enum-like field (a mode, a
// percentile label) holding a name the encoder never writes.
[[nodiscard]] Json to_journal_payload(const HostTraceResult& result);
[[nodiscard]] HostTraceResult host_trace_from_payload(const Json& payload);

[[nodiscard]] Json to_journal_payload(const ResiliencePoint& point);
[[nodiscard]] ResiliencePoint resilience_point_from_payload(const Json& payload);

// Scaling/collateral payloads carry every CSV column plus the tail-autopsy
// percentile rows. The parallel-engine execution diagnostics (windows,
// per-domain event splits, barrier stalls) are deliberately not journaled:
// they describe how a run executed, not what it simulated, and a resumed
// point may legitimately run under a different --domains value.
[[nodiscard]] Json to_journal_payload(const ScalingPoint& point);
[[nodiscard]] ScalingPoint scaling_point_from_payload(const Json& payload);

[[nodiscard]] Json to_journal_payload(const CollateralPoint& point);
[[nodiscard]] CollateralPoint collateral_point_from_payload(const Json& payload);

[[nodiscard]] Json to_journal_payload(const ChaosRunResult& run);
[[nodiscard]] ChaosRunResult chaos_run_from_payload(const Json& payload);

}  // namespace incast::core

#endif  // INCAST_CORE_TASK_JOURNAL_H_
