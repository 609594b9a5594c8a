// CliArgs: a minimal command-line parser for the driver tool.
//
// Accepts "--key value", "--key=value", and bare "--flag" forms; everything
// else is positional. Typed getters record malformed values instead of
// aborting, so the caller can print all problems at once.
//
// The declaring getters (read, choice, list) are a flag's only declaration:
// each takes its default from the field it writes, writes the parsed value
// back, and records the key, kind, default, range and a one-line help
// string, so flag_list() can print every flag a command reads.
#ifndef INCAST_CORE_CLI_ARGS_H_
#define INCAST_CORE_CLI_ARGS_H_

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/parse.h"

namespace incast::core {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, std::string fallback) const;

  // Typed getters; parse failures are appended to errors().
  [[nodiscard]] std::int64_t int_or(const std::string& key, std::int64_t fallback) {
    return value_or(key, fallback);
  }
  [[nodiscard]] double double_or(const std::string& key, double fallback) {
    return value_or(key, fallback);
  }
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) {
    return value_or(key, fallback);
  }
  [[nodiscard]] sim::Time time_or(const std::string& key, sim::Time fallback) {
    return value_or(key, fallback);
  }
  [[nodiscard]] sim::Bandwidth bandwidth_or(const std::string& key, sim::Bandwidth fallback) {
    return value_or(key, fallback);
  }

  // Range-checked variants: a well-formed but out-of-range value (negative
  // duration, zero flows, probability above 1, ...) is rejected with a
  // clear error instead of being silently accepted.
  [[nodiscard]] std::int64_t int_or(const std::string& key, std::int64_t fallback,
                                    std::int64_t min_value, std::int64_t max_value) {
    const std::int64_t value = int_or(key, fallback);
    return in_range(key, value, min_value, max_value) ? value : fallback;
  }
  [[nodiscard]] double double_or(const std::string& key, double fallback, double min_value,
                                 double max_value) {
    const double value = double_or(key, fallback);
    return in_range(key, value, min_value, max_value) ? value : fallback;
  }
  [[nodiscard]] sim::Time time_or(const std::string& key, sim::Time fallback,
                                  sim::Time min_value) {
    const sim::Time value = time_or(key, fallback);
    return in_range(key, value, min_value, sim::Time::infinity()) ? value : fallback;
  }

  // Integer fields of any width are parsed and range-checked as int64.
  template <typename T>
  using Wide = std::conditional_t<std::is_integral_v<T> && !std::same_as<T, bool>, std::int64_t, T>;

  // Declaring getters for integer, number, bool, duration, rate and text
  // fields. A rejected value leaves the field as it was; the range check
  // also covers a default the flag did not override.
  template <typename T>
  void read(const std::string& key, T& field, const char* help) {
    declare(key, kind(Wide<T>(field)), show(Wide<T>(field)), "", help);
    field = static_cast<T>(value_or(key, Wide<T>(field)));
  }
  template <typename T>
  void read(const std::string& key, T& field, Wide<T> min_value, Wide<T> max_value,
            const char* help) {
    declare(key, kind(min_value), show(Wide<T>(field)), range(min_value, max_value), help);
    const Wide<T> value = value_or(key, Wide<T>(field));
    if (in_range(key, value, min_value, max_value)) field = static_cast<T>(value);
  }
  void read(const std::string& key, sim::Time& field, sim::Time min_value, const char* help) {
    read(key, field, min_value, sim::Time::infinity(), help);
  }

  // An enum flag whose values are the names `name` (the enum's to_string)
  // gives `values`.
  template <typename Enum>
  void choice(const std::string& key, Enum& field, std::initializer_list<Enum> values,
              std::type_identity_t<const char* (*)(Enum)> name, const char* help) {
    std::vector<std::string> names;
    for (const Enum v : values) names.push_back(name(v));
    declare(key, join(names, "|"), name(field), "", help);
    if (const auto raw = get(key)) {
      if (const auto index = pick(key, names, *raw)) field = values.begin()[*index];
    }
  }

  // Comma-list forms of read() and choice(): each element is checked as
  // the scalar form checks one value. An empty list is an error, and any
  // bad element leaves the whole field as it was.
  template <typename T>
  void list(const std::string& key, std::vector<T>& field, Wide<T> min_value,
            Wide<T> max_value, const char* help) {
    std::vector<std::string> shown;
    for (const T v : field) shown.push_back(show(Wide<T>(v)));
    declare(key, std::string{kind(min_value)} + ",...", join(shown, ","),
            range(min_value, max_value), help);
    read_list(key, field, [&](const std::string& element) -> std::optional<T> {
      Wide<T> value{};
      if (!parse(key, element, value) || !in_range(key, value, min_value, max_value)) {
        return std::nullopt;
      }
      return static_cast<T>(value);
    });
  }
  template <typename Enum>
  void list(const std::string& key, std::vector<Enum>& field, std::initializer_list<Enum> values,
            std::type_identity_t<const char* (*)(Enum)> name, const char* help) {
    std::vector<std::string> names, shown;
    for (const Enum v : values) names.push_back(name(v));
    for (const Enum v : field) shown.push_back(name(v));
    declare(key, join(names, "|") + ",...", join(shown, ","), "", help);
    read_list(key, field, [&](const std::string& element) -> std::optional<Enum> {
      if (const auto index = pick(key, names, element)) return values.begin()[*index];
      return std::nullopt;
    });
  }

  // Records a usage error found once the flags are read: a conflict
  // between two flags, an unknown name.
  void fail(std::string message) { errors_.push_back(std::move(message)); }

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }

  // Keys that were supplied but never read by any getter — typo detection.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

  // Turns every unused key into an error. Strict CLIs call this after
  // reading all their flags, so an unknown --flag fails the invocation
  // instead of being silently ignored.
  void reject_unknown();

  // One line per flag the declaring getters recorded, in reading order:
  // "--key KIND", then the help, default and range.
  [[nodiscard]] const std::string& flag_list() const noexcept { return flag_list_; }

 private:
  // One value of each kind: parse() writes `out` only when `raw` is
  // well-formed and records an error otherwise.
  bool parse(const std::string& key, const std::string& raw, std::int64_t& out);
  bool parse(const std::string& key, const std::string& raw, double& out);
  bool parse(const std::string& key, const std::string& raw, bool& out);
  bool parse(const std::string& key, const std::string& raw, sim::Time& out);
  bool parse(const std::string& key, const std::string& raw, sim::Bandwidth& out);
  bool parse(const std::string&, const std::string& raw, std::string& out) {
    out = raw;
    return true;
  }
  static const char* kind(std::int64_t) { return "INT"; }
  static const char* kind(double) { return "NUM"; }
  static const char* kind(bool) { return ""; }
  static const char* kind(sim::Time) { return "TIME"; }
  static const char* kind(sim::Bandwidth) { return "RATE"; }
  static const char* kind(const std::string&) { return "TEXT"; }
  static std::string show(std::int64_t v) { return std::to_string(v); }
  static std::string show(double v);
  static std::string show(bool v) { return v ? "true" : "false"; }
  static std::string show(sim::Time v) { return v.to_string(); }
  static std::string show(sim::Bandwidth v) { return v.to_string(); }
  static std::string show(const std::string& v) { return v; }

  template <typename T>
  T value_or(const std::string& key, T fallback) {
    if (const auto raw = get(key)) parse(key, *raw, fallback);
    return fallback;
  }
  template <typename T>
  static std::string range(T min_value, T max_value) {
    return "[" + show(min_value) + ", " + show(max_value) + "]";
  }
  // Written as "inside" so NaN, which compares false both ways, fails.
  template <typename T>
  bool in_range(const std::string& key, T value, T min_value, T max_value) {
    if (value >= min_value && value <= max_value) return true;
    errors_.push_back("--" + key + ": " + show(value) + " is out of range " +
                      range(min_value, max_value));
    return false;
  }
  // Parses the comma-separated fields of the flag's value with `parse`,
  // which yields nullopt for a bad one, and stores them when all are good.
  template <typename T, typename Parse>
  void read_list(const std::string& key, std::vector<T>& field, Parse parse) {
    const auto raw = get(key);
    if (!raw) return;
    if (raw->empty()) {
      errors_.push_back("--" + key + ": empty list");
      return;
    }
    std::vector<T> out;
    for (std::size_t start = 0;;) {
      const std::size_t comma = raw->find(',', start);
      const auto value = parse(raw->substr(start, comma - start));
      if (!value) return;
      out.push_back(*value);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    field = std::move(out);
  }
  void declare(const std::string& key, const std::string& kind, const std::string& fallback,
               const std::string& range, const char* help);
  // The index of `raw` in `names`, or an error and nullopt.
  std::optional<std::size_t> pick(const std::string& key, const std::vector<std::string>& names,
                                  const std::string& raw);
  static std::string join(const std::vector<std::string>& parts, const char* sep);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
  std::string flag_list_;
};

// The resolved --jobs x --domains pair: sweep workers times engine threads
// per point. Both are >= 1 after resolution.
struct Parallelism {
  int jobs{1};
  int domains{1};
};

// Resolves the two parallelism flags against the machine. 0 means "auto"
// for either: auto domains takes every hardware thread; auto jobs takes
// whatever the domain count leaves over (at least 1), so the common
// `--domains N` invocation never oversubscribes by accident. Explicit
// oversubscription — both flags given, both above 1, and their product
// beyond `hardware_threads` — is rejected with a diagnostic in `error`
// (the CLI exits 2, the bad-invocation code): every simulation thread is
// CPU-bound, so thread thrash only slows the run down and a typo like
// `--jobs 64 --domains 64` should fail loudly, not quietly crawl.
[[nodiscard]] bool resolve_parallelism(int jobs_flag, int domains_flag,
                                       int hardware_threads, Parallelism& out,
                                       std::string& error);

}  // namespace incast::core

#endif  // INCAST_CORE_CLI_ARGS_H_
