#pragma once
// Lightweight leveled logger for library and tool diagnostics.
//
// Messages below the active level are discarded cheaply. Output goes to
// stderr so experiment tables written to stdout stay machine-parseable.

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace multihit::log {

enum class Level : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Sets the global log threshold; messages below it are dropped.
void set_level(Level level) noexcept;

/// Returns the current global log threshold.
Level level() noexcept;

/// Parses a level name ("trace", "debug", "info", "warn", "error", "off").
/// Unknown names return nullopt so callers can reject a typo'd --log-level
/// instead of silently running at kInfo.
std::optional<Level> parse_level(std::string_view name) noexcept;

/// The accepted parse_level names, for CLI error messages.
std::string_view level_names() noexcept;

/// Emits one log record at `level`. Prefer the MH_LOG_* macros below, which
/// skip message formatting entirely when the level is disabled.
void emit(Level level, std::string_view message);

/// Redirects emitted records to `sink` instead of stderr (used by tools that
/// collect structured events, and by tests). An empty function restores the
/// default stderr output. The sink sees records that pass the level filter.
using Sink = std::function<void(Level, std::string_view)>;
void set_sink(Sink sink);

/// Ordered key/value pairs attached to a structured event.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// Stringifies one field value with enough precision for doubles to survive.
template <typename T>
std::pair<std::string, std::string> field(std::string_view key, const T& value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return {std::string(key), out.str()};
}

/// Formats a structured record as `event key=value key=value ...`. Values
/// containing spaces, quotes, `=`, backslashes, or control characters (or
/// empty values) are double-quoted, with `"`, `\`, newline, carriage return
/// and tab `\`-escaped, so a record stays one line and splits unambiguously.
std::string format_event(std::string_view event, const Fields& fields);

/// Emits one structured record (`event key=value ...`) at `level`. Used for
/// machine-readable run records such as fault-injection events.
void emit_event(Level level, std::string_view event, const Fields& fields);

namespace detail {

class Record {
 public:
  explicit Record(Level level) : level_(level) {}
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;
  ~Record() { emit(level_, stream_.str()); }

  template <typename T>
  Record& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  Level level_;
  std::ostringstream stream_;
};

}  // namespace detail

}  // namespace multihit::log

#define MH_LOG_AT(lvl)                            \
  if (::multihit::log::level() <= (lvl))          \
  ::multihit::log::detail::Record(lvl)

#define MH_LOG_TRACE MH_LOG_AT(::multihit::log::Level::kTrace)
#define MH_LOG_DEBUG MH_LOG_AT(::multihit::log::Level::kDebug)
#define MH_LOG_INFO MH_LOG_AT(::multihit::log::Level::kInfo)
#define MH_LOG_WARN MH_LOG_AT(::multihit::log::Level::kWarn)
#define MH_LOG_ERROR MH_LOG_AT(::multihit::log::Level::kError)
