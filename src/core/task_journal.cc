#include "core/task_journal.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "core/error.h"

namespace incast::core {

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

namespace {

constexpr const char* kJournalMagic = "incast-task-journal";
constexpr std::int64_t kJournalVersion = 1;

// Canonical-string helpers: "key=value|" pieces in a fixed order. Doubles
// use %.17g so the string (and hence the fingerprint) round-trips the exact
// value the run will use.
void put(std::string& out, const char* key, std::int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRId64 "|", key, value);
  out += buf;
}

void put_u64(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "|", key, value);
  out += buf;
}

void put(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g|", key, value);
  out += buf;
}

void put(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += '|';
}

void put_time(std::string& out, const char* key, sim::Time t) { put(out, key, t.ns()); }

void put_profile(std::string& out, const workload::ServiceProfile& p) {
  put(out, "service", p.name);
  put(out, "bursts_per_second", p.bursts_per_second);
  put(out, "body_median_flows", p.body_median_flows);
  put(out, "body_sigma", p.body_sigma);
  put(out, "min_flows", static_cast<std::int64_t>(p.min_flows));
  put(out, "max_flows", static_cast<std::int64_t>(p.max_flows));
  put(out, "low_mode_probability", p.low_mode_probability);
  put(out, "low_mode_min", static_cast<std::int64_t>(p.low_mode_min));
  put(out, "low_mode_max", static_cast<std::int64_t>(p.low_mode_max));
  put(out, "alt_median_flows", p.alt_median_flows);
  put(out, "duration_geometric_p", p.duration_geometric_p);
  put(out, "max_duration_ms", static_cast<std::int64_t>(p.max_duration_ms));
  put(out, "util_lo", p.util_lo);
  put(out, "util_hi", p.util_hi);
  put(out, "host_sigma", p.host_sigma);
}

void put_tcp(std::string& out, const tcp::TcpConfig& tcp) {
  put(out, "cc", static_cast<std::int64_t>(tcp.cc));
  put(out, "mss_bytes", tcp.mss_bytes);
  put_time(out, "min_rto", tcp.rtt.min_rto);
  put(out, "cwnd_cap_bytes", tcp.cwnd_cap_bytes.value_or(0));
  put(out, "tlp", static_cast<std::int64_t>(tcp.tail_loss_probe ? 1 : 0));
  put(out, "int_telemetry", static_cast<std::int64_t>(tcp::requests_int(tcp.cc) ? 1 : 0));
}

void put_queue(std::string& out, const char* prefix, const net::DropTailQueue::Config& q) {
  std::string key{prefix};
  const auto add = [&](const char* name, std::int64_t v) {
    put(out, (key + name).c_str(), v);
  };
  add("capacity_packets", q.capacity_packets);
  add("capacity_bytes", q.capacity_bytes);
  add("ecn_threshold_packets", q.ecn_threshold_packets);
  add("ecn_kmin_packets", q.ecn_kmin_packets);
  add("ecn_kmax_packets", q.ecn_kmax_packets);
  add("discipline", static_cast<std::int64_t>(q.discipline));
  add("trim_header_bytes", q.trim_header_bytes);
  add("header_capacity_packets", q.header_capacity_packets);
}

void put_pfc(std::string& out, const char* prefix, const net::LosslessInputQueue::Config& p) {
  std::string key{prefix};
  const auto add = [&](const char* name, std::int64_t v) {
    put(out, (key + name).c_str(), v);
  };
  add("xoff_bytes", p.xoff_bytes);
  add("xon_bytes", p.xon_bytes);
  add("headroom_bytes", p.headroom_bytes);
  add("pause_ns", p.pause_ns);
}

void put_fault(std::string& out, const char* prefix, const fault::LinkFaultConfig& f) {
  std::string key{prefix};
  const auto add_d = [&](const char* name, double v) {
    put(out, (key + name).c_str(), v);
  };
  add_d("drop_rate", f.drop_rate);
  add_d("corrupt_rate", f.corrupt_rate);
  add_d("duplicate_rate", f.duplicate_rate);
  add_d("reorder_rate", f.reorder_rate);
  put(out, (key + "reorder_max_delay").c_str(), f.reorder_max_delay.ns());
  add_d("ge_good_to_bad", f.ge_good_to_bad);
  add_d("ge_bad_to_good", f.ge_bad_to_good);
  add_d("ge_drop_bad", f.ge_drop_bad);
  add_d("ge_drop_good", f.ge_drop_good);
}

}  // namespace

std::string canonical_config(const FleetConfig& config) {
  std::string out{"fleet|"};
  put_profile(out, config.profile);
  put(out, "num_hosts", static_cast<std::int64_t>(config.num_hosts));
  put(out, "num_snapshots", static_cast<std::int64_t>(config.num_snapshots));
  put_time(out, "trace_duration", config.trace_duration);
  put(out, "queue_capacity_packets", config.queue_capacity_packets);
  put(out, "ecn_threshold_fraction", config.ecn_threshold_fraction);
  put(out, "shared_pool_bytes", config.shared_pool_bytes);
  put(out, "contention_mode", static_cast<std::int64_t>(config.contention_mode));
  put_time(out, "contention_mean_on", config.contention.mean_on);
  put_time(out, "contention_mean_off", config.contention.mean_off);
  put(out, "contention_min_fraction", config.contention.min_fraction);
  put(out, "contention_max_fraction", config.contention.max_fraction);
  put_tcp(out, config.tcp);
  put(out, "nic_rate_bps", config.nic_rate.bps());
  put(out, "regime_block_snapshots", static_cast<std::int64_t>(config.regime_block_snapshots));
  put_u64(out, "base_seed", config.base_seed);
  put(out, "utilization_threshold", config.detector.utilization_threshold);
  put(out, "incast_flow_threshold",
      static_cast<std::int64_t>(config.detector.incast_flow_threshold));
  return out;
}

std::string canonical_config(const ResilienceConfig& config) {
  std::string out{"faults|"};
  const IncastExperimentConfig& base = config.base;
  put(out, "num_flows", static_cast<std::int64_t>(base.num_flows));
  put_time(out, "burst_duration", base.burst_duration);
  put(out, "num_bursts", static_cast<std::int64_t>(base.num_bursts));
  put(out, "discard_bursts", static_cast<std::int64_t>(base.discard_bursts));
  put_time(out, "inter_burst_gap", base.inter_burst_gap);
  put(out, "schedule", static_cast<std::int64_t>(base.schedule));
  put(out, "queue_capacity_packets", base.topology.switch_queue.capacity_packets);
  put(out, "ecn_threshold_packets", base.topology.switch_queue.ecn_threshold_packets);
  put_tcp(out, base.tcp);
  put_time(out, "max_sim_time", base.max_sim_time);
  put_u64(out, "seed", base.seed);
  put_fault(out, "template_", config.fault_template);
  out += "drop_rates=";
  for (const double rate : config.drop_rates) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g,", rate);
    out += buf;
  }
  out += "|flap_durations=";
  for (const sim::Time d : config.flap_durations) {
    out += std::to_string(d.ns());
    out += ',';
  }
  out += '|';
  put_time(out, "flap_at", config.flap_at);
  return out;
}

std::string canonical_config(const ScalingConfig& config) {
  std::string out{"scaling|"};
  out += "degrees=";
  for (const int d : config.degrees) {
    out += std::to_string(d);
    out += ',';
  }
  out += '|';
  const fabric::FatTreeConfig& f = config.fabric;
  put(out, "num_pods", static_cast<std::int64_t>(f.num_pods));
  put(out, "leaves_per_pod", static_cast<std::int64_t>(f.leaves_per_pod));
  put(out, "hosts_per_leaf", static_cast<std::int64_t>(f.hosts_per_leaf));
  put(out, "aggs_per_pod", static_cast<std::int64_t>(f.aggs_per_pod));
  put(out, "num_spines", static_cast<std::int64_t>(f.num_spines));
  put(out, "host_link_bps", f.host_link.bps());
  put(out, "leaf_uplink_bps", f.leaf_uplink.bps());
  put(out, "spine_link_bps", f.spine_link.bps());
  put_time(out, "link_delay", f.link_delay);
  put_queue(out, "switch_queue_", f.switch_queue);
  put_queue(out, "host_queue_", f.host_queue);
  put(out, "shared_buffer", static_cast<std::int64_t>(f.shared_buffer ? 1 : 0));
  if (f.shared_buffer) {
    put(out, "shared_buffer_bytes", f.shared_buffer->total_bytes);
    put(out, "shared_buffer_alpha", f.shared_buffer->alpha);
  }
  put(out, "fabric_pfc", static_cast<std::int64_t>(f.pfc ? 1 : 0));
  if (f.pfc) put_pfc(out, "fabric_pfc_", *f.pfc);
  // f.ecmp_seed is excluded: each point overwrites it with its derived seed.
  put(out, "bytes_per_flow", config.bytes_per_flow);
  put_tcp(out, config.tcp);
  put_time(out, "max_sim_time", config.max_sim_time);
  // Engine identity, not domain count: the parallel engine is byte-identical
  // at any N, so resuming under a different --domains is safe, while legacy
  // vs parallel are distinct deterministic sequences (see the header).
  put(out, "engine", static_cast<std::int64_t>(config.domains > 0 ? 1 : 0));
  put_time(out, "lookahead_override", config.lookahead_override);
  put(out, "flow_trace", static_cast<std::int64_t>(config.flow_trace ? 1 : 0));
  put_u64(out, "flow_trace_sample_every", config.flow_trace_sample_every);
  put_u64(out, "seed", config.seed);
  return out;
}

std::string canonical_config(const CollateralConfig& config) {
  std::string out{"collateral|"};
  out += "modes=";
  for (const QueueMode mode : config.modes) {
    out += to_string(mode);
    out += ',';
  }
  out += "|degrees=";
  for (const int d : config.degrees) {
    out += std::to_string(d);
    out += ',';
  }
  out += '|';
  put(out, "num_bursts", static_cast<std::int64_t>(config.num_bursts));
  put_time(out, "burst_duration", config.burst_duration);
  put_time(out, "inter_burst_gap", config.inter_burst_gap);
  // Topology template. num_senders/num_receivers are overridden per point
  // (degree + 1 senders, 2 receivers) and switch_queue is reshaped per mode
  // from the knobs below, so none of those three enter the fingerprint.
  const net::DumbbellConfig& t = config.topology;
  put(out, "host_link_bps", t.host_link.bps());
  put(out, "core_link_bps", t.core_link.bps());
  put(out, "receiver_link_bps",
      t.receiver_link ? t.receiver_link->bps() : static_cast<std::int64_t>(-1));
  put_time(out, "link_delay", t.link_delay);
  put_queue(out, "host_queue_", t.host_queue);
  put(out, "queue_capacity_packets", static_cast<std::int64_t>(config.queue_capacity_packets));
  put(out, "ecn_threshold_packets", static_cast<std::int64_t>(config.ecn_threshold_packets));
  put(out, "shared_buffer_bytes", config.shared_buffer_bytes);
  put(out, "shared_buffer_alpha", config.shared_buffer_alpha);
  put_pfc(out, "pfc_", config.pfc);
  put(out, "pfc_queue_capacity_packets",
      static_cast<std::int64_t>(config.pfc_queue_capacity_packets));
  put(out, "trim_queue_capacity_packets",
      static_cast<std::int64_t>(config.trim_queue_capacity_packets));
  put(out, "victim_cwnd_cap_bytes", config.victim_cwnd_cap_bytes);
  put_tcp(out, config.tcp);
  put(out, "pfc_cc", static_cast<std::int64_t>(config.pfc_cc));
  put_time(out, "max_sim_time", config.max_sim_time);
  put(out, "flow_trace", static_cast<std::int64_t>(config.flow_trace ? 1 : 0));
  put_u64(out, "flow_trace_sample_every", config.flow_trace_sample_every);
  put_u64(out, "seed", config.seed);
  return out;
}

// The chaos config is tiny and its string predates the put() helpers: kept
// byte for byte, separators included, so existing journals still resume.
std::string canonical_config(const ChaosConfig& config) {
  return "chaos|seed=" + std::to_string(config.seed) +
         "|configs=" + std::to_string(config.num_configs) +
         "|max_events=" + std::to_string(config.max_events_per_run);
}

TaskJournal::~TaskJournal() {
  if (out_ != nullptr) std::fclose(out_);
}

void TaskJournal::open(const std::string& path, const JournalHeader& header) {
  if (out_ != nullptr) throw Error{ErrorCategory::kInternal, "journal: already open"};

  bool needs_header = true;
  bool truncated_tail = false;
  std::vector<std::string> kept_lines;
  {
    std::ifstream in{path};
    if (in) {
      // Existing journal: validate the header and load completed tasks.
      // Collect the lines first so "last line" is well-defined for the
      // truncation tolerance below.
      std::vector<std::string> lines;
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
      if (!lines.empty()) {
        Json head;
        try {
          head = Json::parse(lines.front());
        } catch (const std::exception& e) {
          throw Error{ErrorCategory::kIo,
                      "journal " + path + ": unreadable header: " + e.what()};
        }
        const Json* magic = head.find("journal");
        if (magic == nullptr || !magic->is_string() ||
            magic->as_string() != kJournalMagic) {
          throw Error{ErrorCategory::kIo,
                      "journal " + path + ": not an incast task journal"};
        }
        try {
          if (head.at("version").as_int() != kJournalVersion) {
            throw Error{ErrorCategory::kConfig,
                        "journal " + path + ": unsupported version " +
                            std::to_string(head.at("version").as_int())};
          }
          const std::string command = head.at("command").as_string();
          const std::uint64_t fingerprint =
              std::stoull(head.at("fingerprint").as_string());
          const auto tasks = static_cast<std::uint64_t>(head.at("tasks").as_int());
          if (command != header.command || fingerprint != header.fingerprint ||
              tasks != header.tasks) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "journal %s was written by a different run (%s, %" PRIu64
                          " task(s), fingerprint %016" PRIx64 "; this run: %s, %" PRIu64
                          " task(s), fingerprint %016" PRIx64
                          ") — refusing to resume; delete the journal or rerun the "
                          "original configuration",
                          path.c_str(), command.c_str(), tasks, fingerprint,
                          header.command.c_str(), header.tasks, header.fingerprint);
            throw Error{ErrorCategory::kConfig, buf};
          }
        } catch (const Error&) {
          throw;
        } catch (const std::exception& e) {
          throw Error{ErrorCategory::kIo,
                      "journal " + path + ": malformed header: " + e.what()};
        }
        needs_header = false;

        for (std::size_t i = 1; i < lines.size(); ++i) {
          Json record;
          try {
            record = Json::parse(lines[i]);
            const std::string status = record.at("status").as_string();
            const auto index = static_cast<std::size_t>(record.at("task").as_int());
            if (status == "ok") {
              payloads_[index] = record.at("payload");
            }
            // status "fail": the task is re-run on resume — nothing to keep.
          } catch (const std::exception& e) {
            if (i + 1 == lines.size()) {
              // A crash mid-append leaves exactly one truncated final line;
              // everything before it is intact, so resume from there. The
              // partial line must be cut from the file too, or the next
              // append would fuse onto it and corrupt the record.
              std::fprintf(stderr,
                           "journal %s: ignoring truncated final record (%s)\n",
                           path.c_str(), e.what());
              truncated_tail = true;
              break;
            }
            throw Error{ErrorCategory::kIo, "journal " + path + ": corrupt record on line " +
                                                std::to_string(i + 1) + ": " + e.what()};
          }
        }
        if (truncated_tail) {
          lines.pop_back();
          kept_lines = std::move(lines);
        }
      }
    }
  }

  if (truncated_tail) {
    // Rewrite the valid prefix; the handle stays open for the appends to
    // come, so a crash during the rewrite can at worst re-truncate a tail.
    out_ = std::fopen(path.c_str(), "wb");
    if (out_ == nullptr) {
      throw Error{ErrorCategory::kIo, "journal: cannot rewrite " + path};
    }
    for (const std::string& line : kept_lines) {
      std::fwrite(line.data(), 1, line.size(), out_);
      std::fputc('\n', out_);
    }
    std::fflush(out_);
  } else {
    out_ = std::fopen(path.c_str(), "ab");
    if (out_ == nullptr) {
      throw Error{ErrorCategory::kIo, "journal: cannot open " + path + " for append"};
    }
  }
  path_ = path;

  if (needs_header) {
    Json::Object head;
    head["journal"] = Json{kJournalMagic};
    head["version"] = Json{kJournalVersion};
    head["command"] = Json{header.command};
    head["fingerprint"] = Json{std::to_string(header.fingerprint)};
    head["tasks"] = Json{static_cast<std::int64_t>(header.tasks)};
    append_line(Json{std::move(head)}.dump());
  }
}

bool TaskJournal::completed(std::size_t index) const noexcept {
  return payloads_.count(index) > 0;
}

const Json* TaskJournal::payload(std::size_t index) const noexcept {
  const auto it = payloads_.find(index);
  return it == payloads_.end() ? nullptr : &it->second;
}

void TaskJournal::record_ok(std::size_t index, std::uint64_t seed, const Json& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr || payloads_.count(index) > 0) return;
  Json::Object record;
  record["status"] = Json{"ok"};
  record["task"] = Json{static_cast<std::int64_t>(index)};
  record["seed"] = Json{std::to_string(seed)};
  record["payload"] = payload;
  append_line(Json{std::move(record)}.dump());
}

void TaskJournal::record_failure(const sim::TaskFailure& failure) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr) return;
  Json::Object record;
  record["status"] = Json{"fail"};
  record["task"] = Json{static_cast<std::int64_t>(failure.index)};
  record["seed"] = Json{std::to_string(failure.seed)};
  record["category"] = Json{sim::to_string(failure.category)};
  record["message"] = Json{failure.message};
  record["attempts"] = Json{static_cast<std::int64_t>(failure.attempts)};
  append_line(Json{std::move(record)}.dump());
}

void TaskJournal::append_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  std::fflush(out_);
}

}  // namespace incast::core
