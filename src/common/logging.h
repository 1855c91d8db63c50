#ifndef PHASORWATCH_COMMON_LOGGING_H_
#define PHASORWATCH_COMMON_LOGGING_H_

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace phasorwatch {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum level; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Parses a level name ("debug", "info", "warn"/"warning", "error"),
/// case-insensitive. Returns false (and leaves `level` untouched) on
/// anything else.
bool ParseLogLevel(std::string_view name, LogLevel* level);

/// Applies the PW_LOG_LEVEL environment variable, if set and valid, to
/// the global minimum level. Call once at binary startup (examples and
/// bench harnesses do). Returns true when the variable was present and
/// parsed; an unset variable is a silent no-op, a malformed one logs a
/// warning.
bool SetLogLevelFromEnv();

namespace internal_logging {

/// Stream-style log sink that writes one line to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

/// Per-call-site occurrence check backing PW_LOG_EVERY_N: true on the
/// 1st, (n+1)th, (2n+1)th... invocation. n == 0 behaves like n == 1.
inline bool LogEveryNCheck(std::atomic<uint64_t>& counter, uint64_t n) {
  if (n == 0) n = 1;
  return counter.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

}  // namespace internal_logging
}  // namespace phasorwatch

#define PW_LOG(level)                                                   \
  ::phasorwatch::internal_logging::LogMessage(                          \
      ::phasorwatch::LogLevel::k##level, __FILE__, __LINE__)

/// Rate-limited logging for per-sample hot paths: emits only every n-th
/// invocation of this call site (the first one always logs). A
/// TenantSession fed 30-60 samples/s can leave a debug line here
/// without flooding stderr. Each expansion keeps its own atomic
/// counter, so the limit is per call site, not global.
#define PW_LOG_EVERY_N(level, n)                                        \
  if ([]() {                                                            \
        static ::std::atomic<uint64_t> pw_log_every_n_counter_{0};      \
        return ::phasorwatch::internal_logging::LogEveryNCheck(         \
            pw_log_every_n_counter_, static_cast<uint64_t>(n));         \
      }())                                                              \
  PW_LOG(level)

#endif  // PHASORWATCH_COMMON_LOGGING_H_
