#include "core/cli_args.h"

#include <algorithm>
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

namespace {

// `raw` as a T when from_chars consumes all of it.
template <typename T>
std::optional<T> whole(const std::string& raw) {
  T value{};
  const auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), value);
  return ec == std::errc{} && ptr == raw.data() + raw.size() ? std::optional{value} : std::nullopt;
}

std::optional<bool> boolean(const std::string& raw) {
  if (raw == "true" || raw == "1" || raw == "yes" || raw == "on") return true;
  if (raw == "false" || raw == "0" || raw == "no" || raw == "off") return false;
  return std::nullopt;
}

// Writes a parsed value to `out`, or records what --key expected instead.
template <typename T>
bool store(std::vector<std::string>& errors, const std::string& key, const std::string& raw,
           const std::optional<T>& parsed, const char* expected, T& out) {
  if (!parsed) errors.push_back("--" + key + ": expected " + expected + ", got '" + raw + "'");
  out = parsed.value_or(out);
  return parsed.has_value();
}

}  // namespace

bool CliArgs::parse(const std::string& key, const std::string& raw, std::int64_t& out) {
  return store(errors_, key, raw, whole<std::int64_t>(raw), "an integer", out);
}

bool CliArgs::parse(const std::string& key, const std::string& raw, double& out) {
  return store(errors_, key, raw, whole<double>(raw), "a number", out);
}

bool CliArgs::parse(const std::string& key, const std::string& raw, bool& out) {
  return store(errors_, key, raw, boolean(raw), "a boolean", out);
}

bool CliArgs::parse(const std::string& key, const std::string& raw, sim::Time& out) {
  return store(errors_, key, raw, sim::parse_time(raw), "a duration like '15ms'", out);
}

bool CliArgs::parse(const std::string& key, const std::string& raw, sim::Bandwidth& out) {
  return store(errors_, key, raw, sim::parse_bandwidth(raw), "a rate like '10Gbps'", out);
}

// The shortest form that reads back as `v` ("0.1", not "0.100000").
std::string CliArgs::show(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : std::to_string(v);
}

void CliArgs::declare(const std::string& key, const std::string& kind,
                      const std::string& fallback, const std::string& range,
                      const char* help) {
  constexpr std::size_t kHelpColumn = 32;
  std::string line = "  --" + key + (kind.empty() ? "" : " " + kind);
  line += line.size() < kHelpColumn ? std::string(kHelpColumn - line.size(), ' ')
                                    : "\n" + std::string(kHelpColumn, ' ');
  line += help;
  if (!fallback.empty()) line += "; default " + fallback;
  if (!range.empty()) line += "; " + range;
  flag_list_ += line + '\n';
}

std::optional<std::size_t> CliArgs::pick(const std::string& key,
                                         const std::vector<std::string>& names,
                                         const std::string& raw) {
  const auto it = std::find(names.begin(), names.end(), raw);
  if (it != names.end()) return it - names.begin();
  errors_.push_back("--" + key + ": unknown value '" + raw + "' (" + join(names, "|") + ")");
  return std::nullopt;
}

std::string CliArgs::join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
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
