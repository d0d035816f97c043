#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace multihit::log {

namespace {

std::atomic<Level> g_level{Level::kInfo};
std::mutex g_emit_mutex;
Sink g_sink;  // guarded by g_emit_mutex; empty = stderr

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kTrace:
      return "TRACE";
    case Level::kDebug:
      return "DEBUG";
    case Level::kInfo:
      return "INFO";
    case Level::kWarn:
      return "WARN";
    case Level::kError:
      return "ERROR";
    case Level::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void set_level(Level level) noexcept { g_level.store(level, std::memory_order_relaxed); }

Level level() noexcept { return g_level.load(std::memory_order_relaxed); }

std::optional<Level> parse_level(std::string_view name) noexcept {
  if (name == "trace") return Level::kTrace;
  if (name == "debug") return Level::kDebug;
  if (name == "info") return Level::kInfo;
  if (name == "warn") return Level::kWarn;
  if (name == "error") return Level::kError;
  if (name == "off") return Level::kOff;
  return std::nullopt;
}

std::string_view level_names() noexcept { return "trace, debug, info, warn, error, off"; }

void emit(Level lvl, std::string_view message) {
  if (level() > lvl) return;
  std::scoped_lock lock(g_emit_mutex);
  if (g_sink) {
    g_sink(lvl, message);
    return;
  }
  std::fprintf(stderr, "[%s] %.*s\n", level_name(lvl), static_cast<int>(message.size()),
               message.data());
}

void set_sink(Sink sink) {
  std::scoped_lock lock(g_emit_mutex);
  g_sink = std::move(sink);
}

namespace {

bool needs_quoting(std::string_view value) {
  if (value.empty()) return true;
  for (const char c : value) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

void append_quoted(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string format_event(std::string_view event, const Fields& fields) {
  std::string out(event);
  for (const auto& [key, value] : fields) {
    out += ' ';
    out += key;
    out += '=';
    if (needs_quoting(value)) {
      append_quoted(out, value);
    } else {
      out += value;
    }
  }
  return out;
}

void emit_event(Level lvl, std::string_view event, const Fields& fields) {
  if (level() > lvl) return;
  emit(lvl, format_event(event, fields));
}

}  // namespace multihit::log
