#include "util/log.hpp"

#include <gtest/gtest.h>

namespace multihit::log {
namespace {

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(level()) {}
  ~LogLevelGuard() { set_level(saved_); }

 private:
  Level saved_;
};

TEST(Log, LevelRoundTrip) {
  LogLevelGuard guard;
  set_level(Level::kWarn);
  EXPECT_EQ(level(), Level::kWarn);
  set_level(Level::kTrace);
  EXPECT_EQ(level(), Level::kTrace);
}

TEST(Log, ParseLevelNames) {
  EXPECT_EQ(parse_level("trace"), Level::kTrace);
  EXPECT_EQ(parse_level("debug"), Level::kDebug);
  EXPECT_EQ(parse_level("info"), Level::kInfo);
  EXPECT_EQ(parse_level("warn"), Level::kWarn);
  EXPECT_EQ(parse_level("error"), Level::kError);
  EXPECT_EQ(parse_level("off"), Level::kOff);
}

TEST(Log, ParseLevelRejectsUnknownNames) {
  // Regression: unknown names used to map silently to kInfo, so a typo like
  // --log-level=dbug quietly ran at the default verbosity.
  EXPECT_EQ(parse_level("bogus"), std::nullopt);
  EXPECT_EQ(parse_level("dbug"), std::nullopt);
  EXPECT_EQ(parse_level(""), std::nullopt);
  EXPECT_EQ(parse_level("INFO"), std::nullopt);  // names are case-sensitive
}

TEST(Log, LevelNamesListsEveryParseableName) {
  const std::string names{level_names()};
  for (const char* name : {"trace", "debug", "info", "warn", "error", "off"}) {
    EXPECT_NE(names.find(name), std::string::npos) << name;
  }
}

TEST(Log, MacrosSkipFormattingWhenDisabled) {
  LogLevelGuard guard;
  set_level(Level::kOff);
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  MH_LOG_DEBUG << "value " << expensive();
  EXPECT_EQ(evaluations, 0);  // the whole statement short-circuits
  set_level(Level::kTrace);
  MH_LOG_DEBUG << "value " << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST(Log, EmitRespectsThreshold) {
  LogLevelGuard guard;
  set_level(Level::kError);
  // Below-threshold emits must be no-ops (no crash, no output assertions
  // possible on stderr here — the contract is simply "does not throw").
  emit(Level::kInfo, "suppressed");
  emit(Level::kError, "visible");
  SUCCEED();
}

TEST(Log, SinkCapturesFilteredRecords) {
  LogLevelGuard guard;
  set_level(Level::kInfo);
  std::vector<std::pair<Level, std::string>> seen;
  set_sink([&](Level level, std::string_view message) {
    seen.emplace_back(level, std::string(message));
  });
  emit(Level::kDebug, "below threshold");
  emit(Level::kWarn, "captured");
  MH_LOG_INFO << "streamed " << 7;
  set_sink({});  // restore stderr before asserting
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair{Level::kWarn, std::string("captured")}));
  EXPECT_EQ(seen[1], (std::pair{Level::kInfo, std::string("streamed 7")}));
  emit(Level::kError, "after sink removal");  // must not reach the old sink
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Log, FormatEventIsMachineParseable) {
  EXPECT_EQ(format_event("fault.crash",
                         {field("rank", 3u), field("iter", 1u), field("t", 2.5)}),
            "fault.crash rank=3 iter=1 t=2.5");
  // Values with spaces are quoted so a field never splits into two tokens.
  EXPECT_EQ(format_event("note", {field("msg", std::string("two words"))}),
            "note msg=\"two words\"");
  EXPECT_EQ(format_event("bare", {}), "bare");
}

TEST(Log, FormatEventQuotesAndEscapesHostileValues) {
  // Regression: a value containing '"' used to be emitted verbatim inside
  // quotes, and a value containing '=' was emitted unquoted — both corrupt
  // the record for any key=value consumer.
  EXPECT_EQ(format_event("note", {field("msg", std::string("say \"hi\""))}),
            "note msg=\"say \\\"hi\\\"\"");
  EXPECT_EQ(format_event("note", {field("expr", std::string("a=b"))}),
            "note expr=\"a=b\"");
  EXPECT_EQ(format_event("note", {field("path", std::string("c:\\tmp"))}),
            "note path=\"c:\\\\tmp\"");
  EXPECT_EQ(format_event("note", {field("text", std::string("line1\nline2"))}),
            "note text=\"line1\\nline2\"");
  EXPECT_EQ(format_event("note", {field("text", std::string("cr\rtab\tend"))}),
            "note text=\"cr\\rtab\\tend\"");
  EXPECT_EQ(format_event("note", {field("mix", std::string("k=\"v\\w\""))}),
            "note mix=\"k=\\\"v\\\\w\\\"\"");
  EXPECT_EQ(format_event("note", {field("empty", std::string())}), "note empty=\"\"");
}

TEST(Log, EmitEventReachesSinkStructured) {
  LogLevelGuard guard;
  set_level(Level::kInfo);
  std::vector<std::string> seen;
  set_sink([&](Level, std::string_view message) { seen.emplace_back(message); });
  emit_event(Level::kInfo, "fault.straggler",
             {field("rank", 2u), field("factor", 4.0)});
  emit_event(Level::kDebug, "fault.suppressed", {});
  set_sink({});
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "fault.straggler rank=2 factor=4");
}

TEST(Log, OrderingOfLevels) {
  EXPECT_LT(static_cast<int>(Level::kTrace), static_cast<int>(Level::kDebug));
  EXPECT_LT(static_cast<int>(Level::kDebug), static_cast<int>(Level::kInfo));
  EXPECT_LT(static_cast<int>(Level::kInfo), static_cast<int>(Level::kWarn));
  EXPECT_LT(static_cast<int>(Level::kWarn), static_cast<int>(Level::kError));
  EXPECT_LT(static_cast<int>(Level::kError), static_cast<int>(Level::kOff));
}

}  // namespace
}  // namespace multihit::log
