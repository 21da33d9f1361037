// Minimal leveled logger with simulation-time-aware prefixes. The simulator
// installs a time source so every line carries the simulated timestamp, which
// makes protocol traces directly comparable to the paper's timeline figures.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/units.hpp"

namespace smarth {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

const char* log_level_name(LogLevel level);

/// Parses "trace" / "debug" / "info" / "warn" / "error" / "off"
/// (case-insensitive). Returns false (leaving `out` untouched) on anything
/// else; used by the smarthsim --log-level flag.
bool parse_log_level(const std::string& name, LogLevel& out);

/// Process-wide logging configuration. Not thread-safe by design: the DES is
/// single-threaded and benches configure logging before running.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_; }

  /// Installs a simulated-time source (nullptr restores wall-clock-free
  /// output).
  void set_time_source(std::function<SimTime()> source) {
    time_source_ = std::move(source);
  }

  void write(LogLevel level, const std::string& component,
             const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  std::function<SimTime()> time_source_;
};

/// Stream-style log statement builder.
class LogStatement {
 public:
  LogStatement(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogStatement() { Logger::instance().write(level_, component_, out_.str()); }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  template <typename T>
  LogStatement& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream out_;
};

/// Structured key=value log statement: emits `event=<name> k1=v1 k2=v2 ...`
/// through the Logger (so lines carry the simulated-time stamp, level and
/// component like every other log line). Values containing whitespace are
/// quoted, which keeps chaos-soak logs machine-greppable.
class KvLogStatement {
 public:
  KvLogStatement(LogLevel level, std::string component, std::string event);
  ~KvLogStatement();
  KvLogStatement(const KvLogStatement&) = delete;
  KvLogStatement& operator=(const KvLogStatement&) = delete;

  KvLogStatement& kv(std::string_view key, const std::string& value);
  KvLogStatement& kv(std::string_view key, const char* value);
  KvLogStatement& kv(std::string_view key, double value);
  template <typename T>
  KvLogStatement& kv(std::string_view key, const T& value) {
    std::ostringstream os;
    os << value;
    return kv(key, os.str());
  }

 private:
  LogLevel level_;
  std::string component_;
  std::string line_;
};

}  // namespace smarth

#define SMARTH_LOG(level, component)                         \
  if (!::smarth::Logger::instance().enabled(level)) {        \
  } else                                                     \
    ::smarth::LogStatement(level, component)

/// Structured form: SMARTH_KV(level, "chaos", "crash").kv("dn", 3);
#define SMARTH_KV(level, component, event)                   \
  if (!::smarth::Logger::instance().enabled(level)) {        \
  } else                                                     \
    ::smarth::KvLogStatement(level, component, event)

#define SMARTH_TRACE(component) SMARTH_LOG(::smarth::LogLevel::kTrace, component)
#define SMARTH_DEBUG(component) SMARTH_LOG(::smarth::LogLevel::kDebug, component)
#define SMARTH_INFO(component) SMARTH_LOG(::smarth::LogLevel::kInfo, component)
#define SMARTH_WARN(component) SMARTH_LOG(::smarth::LogLevel::kWarn, component)
#define SMARTH_ERROR(component) SMARTH_LOG(::smarth::LogLevel::kError, component)
