#include "core/cli_args.h"

#include <charconv>

namespace incast::core {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare flag
    }
  }
  for (const auto& [key, value] : values_) consumed_[key] = false;
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  const_cast<CliArgs*>(this)->consumed_[key] = true;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key, std::string fallback) const {
  return get(key).value_or(std::move(fallback));
}

std::int64_t CliArgs::int_or(const std::string& key, std::int64_t fallback) {
  const auto raw = get(key);
  if (!raw) return fallback;
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(raw->data(), raw->data() + raw->size(), value);
  if (ec != std::errc{} || ptr != raw->data() + raw->size()) {
    errors_.push_back("--" + key + ": expected an integer, got '" + *raw + "'");
    return fallback;
  }
  return value;
}

double CliArgs::double_or(const std::string& key, double fallback) {
  const auto raw = get(key);
  if (!raw) return fallback;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(raw->data(), raw->data() + raw->size(), value);
  if (ec != std::errc{} || ptr != raw->data() + raw->size()) {
    errors_.push_back("--" + key + ": expected a number, got '" + *raw + "'");
    return fallback;
  }
  return value;
}

bool CliArgs::bool_or(const std::string& key, bool fallback) {
  const auto raw = get(key);
  if (!raw) return fallback;
  if (*raw == "true" || *raw == "1" || *raw == "yes" || *raw == "on") return true;
  if (*raw == "false" || *raw == "0" || *raw == "no" || *raw == "off") return false;
  errors_.push_back("--" + key + ": expected a boolean, got '" + *raw + "'");
  return fallback;
}

sim::Time CliArgs::time_or(const std::string& key, sim::Time fallback) {
  const auto raw = get(key);
  if (!raw) return fallback;
  const auto parsed = sim::parse_time(*raw);
  if (!parsed) {
    errors_.push_back("--" + key + ": expected a duration like '15ms', got '" + *raw + "'");
    return fallback;
  }
  return *parsed;
}

sim::Bandwidth CliArgs::bandwidth_or(const std::string& key, sim::Bandwidth fallback) {
  const auto raw = get(key);
  if (!raw) return fallback;
  const auto parsed = sim::parse_bandwidth(*raw);
  if (!parsed) {
    errors_.push_back("--" + key + ": expected a rate like '10Gbps', got '" + *raw + "'");
    return fallback;
  }
  return *parsed;
}

std::int64_t CliArgs::int_or(const std::string& key, std::int64_t fallback,
                             std::int64_t min_value, std::int64_t max_value) {
  const std::int64_t value = int_or(key, fallback);
  if (value < min_value || value > max_value) {
    errors_.push_back("--" + key + ": " + std::to_string(value) + " is out of range [" +
                      std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
    return fallback;
  }
  return value;
}

double CliArgs::double_or(const std::string& key, double fallback, double min_value,
                          double max_value) {
  const double value = double_or(key, fallback);
  // Written as "not inside" so NaN, which compares false both ways, fails.
  if (!(value >= min_value && value <= max_value)) {
    errors_.push_back("--" + key + ": " + std::to_string(value) + " is out of range [" +
                      std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
    return fallback;
  }
  return value;
}

sim::Time CliArgs::time_or(const std::string& key, sim::Time fallback,
                           sim::Time min_value) {
  const sim::Time value = time_or(key, fallback);
  if (value < min_value) {
    errors_.push_back("--" + key + ": " + value.to_string() + " is below the minimum " +
                      min_value.to_string());
    return fallback;
  }
  return value;
}

bool resolve_parallelism(int jobs_flag, int domains_flag, int hardware_threads,
                         Parallelism& out, std::string& error) {
  if (hardware_threads < 1) hardware_threads = 1;  // hardware_concurrency() may be 0
  if (jobs_flag < 0 || domains_flag < 0) {
    error = "--jobs/--domains: negative values are not a thread count";
    return false;
  }
  const bool jobs_auto = jobs_flag == 0;
  const bool domains_auto = domains_flag == 0;
  out.domains = domains_auto ? hardware_threads : domains_flag;
  out.jobs = jobs_auto ? (hardware_threads / out.domains > 1 ? hardware_threads / out.domains : 1)
                       : jobs_flag;
  if (!jobs_auto && !domains_auto && out.jobs > 1 && out.domains > 1 &&
      static_cast<std::int64_t>(out.jobs) * out.domains > hardware_threads) {
    error = "--jobs " + std::to_string(out.jobs) + " x --domains " +
            std::to_string(out.domains) + " = " + std::to_string(out.jobs * out.domains) +
            " CPU-bound threads oversubscribes this machine's " +
            std::to_string(hardware_threads) +
            " hardware thread(s); set one of them to 0 (auto) or lower the other";
    return false;
  }
  return true;
}

void CliArgs::reject_unknown() {
  for (const auto& key : unused_keys()) {
    errors_.push_back("--" + key + ": unknown flag");
  }
}

std::vector<std::string> CliArgs::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, used] : consumed_) {
    if (!used) out.push_back(key);
  }
  return out;
}

}  // namespace incast::core
