#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "cluster/distributed.hpp"
#include "data/generator.hpp"
#include "obs/bench.hpp"
#include "util/stats.hpp"

namespace multihit {
namespace {

using obs::JsonValue;

// ---------------------------------------------------------------- JSON model

TEST(ObsJson, DumpParseRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc.set("name", JsonValue("multi\"hit\n"));
  doc.set("count", JsonValue(42.0));
  doc.set("ratio", JsonValue(0.1));
  doc.set("on", JsonValue(true));
  doc.set("none", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(1.0));
  arr.push_back(JsonValue(-2.5));
  doc.set("values", std::move(arr));

  const std::string text = doc.dump();
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_EQ(parsed.dump(), text);  // dump is a fixed point
  EXPECT_EQ(parsed.find("name")->as_string(), "multi\"hit\n");
  EXPECT_DOUBLE_EQ(parsed.find("ratio")->as_number(), 0.1);
  EXPECT_TRUE(parsed.find("on")->as_bool());
  EXPECT_EQ(parsed.find("values")->size(), 2u);
}

TEST(ObsJson, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("[1 2]"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("nul"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), obs::JsonParseError);
}

TEST(ObsJson, ParseCapsNestingDepth) {
  // The parser recurses once per level: past the cap it must throw, naming
  // the byte of the first bracket too deep, instead of exhausting the stack.
  const std::size_t cap = JsonValue::kMaxParseDepth;
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "{\"k\":";
    text += "0";
    return text + std::string(depth, '}');
  };
  EXPECT_EQ(JsonValue::parse(arrays(cap)).dump(), arrays(cap));
  EXPECT_EQ(JsonValue::parse(objects(cap)).dump(), objects(cap));
  for (const std::string& deep : {arrays(cap + 1), objects(cap + 1)}) {
    try {
      (void)JsonValue::parse(deep);
      ADD_FAILURE() << "accepted " << cap + 1 << " levels";
    } catch (const obs::JsonParseError& e) {
      const std::size_t offset = deep[0] == '[' ? cap : 5 * cap;
      EXPECT_NE(std::string(e.what()).find("at byte " + std::to_string(offset) + ":"),
                std::string::npos)
          << e.what();
    }
  }
  // 200 KB of brackets: once a stack overflow, now a parse error.
  EXPECT_THROW(JsonValue::parse(arrays(100000)), obs::JsonParseError);
}

TEST(ObsJson, ObjectsPreserveInsertionOrder) {
  JsonValue doc = JsonValue::object();
  doc.set("z", JsonValue(1.0));
  doc.set("a", JsonValue(2.0));
  EXPECT_EQ(doc.dump(), "{\"z\":1,\"a\":2}");
}

// -------------------------------------------------------------- typed fields

struct FieldError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

obs::JsonFields fields_of(const JsonValue& doc) {
  return obs::JsonFields::root<FieldError>(doc, "test document");
}

/// `read()` must throw FieldError with exactly `message`.
template <typename Read>
void expect_field_error(const Read& read, const std::string& message) {
  try {
    read();
    ADD_FAILURE() << "expected: " << message;
  } catch (const FieldError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(ObsJsonFields, ReadsTypedFieldsAndNestedPaths) {
  const JsonValue doc = JsonValue::parse(
      R"({"name":"x","on":true,"ratio":0.25,"n":4294967295,"big":9007199254740992,)"
      R"("inner":{"rows":[{"k":1},{"k":2}],"counts":[0,7]},"cfg":{"a":"1","b":"2"}})");
  const obs::JsonFields root = fields_of(doc);
  EXPECT_EQ(root.string("name"), "x");
  EXPECT_TRUE(root.boolean("on"));
  EXPECT_DOUBLE_EQ(root.number("ratio"), 0.25);
  EXPECT_EQ(root.u32("n"), 4294967295u);
  EXPECT_EQ(root.u64("big"), 9007199254740992u);
  EXPECT_TRUE(root.has("inner"));
  EXPECT_FALSE(root.has("absent"));
  const std::vector<obs::JsonFields> rows = root.object("inner").array("rows").objects();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].u32("k"), 2u);
  EXPECT_EQ(root.object("inner").array("counts").u64_at(1), 7u);
  const std::vector<std::pair<std::string, std::string>> cfg = root.object("cfg").strings();
  ASSERT_EQ(cfg.size(), 2u);
  EXPECT_EQ(cfg[1], (std::pair<std::string, std::string>("b", "2")));
}

TEST(ObsJsonFields, RejectionsThrowTheCallersErrorNamingThePath) {
  const JsonValue doc = JsonValue::parse(
      R"({"s":5,"inner":{"rows":[{"k":"x"}],"mixed":[{},7]},"cfg":{"a":"1","b":2},"list":[1]})");
  const obs::JsonFields root = fields_of(doc);
  expect_field_error([&] { root.string("missing"); }, "test document: missing is missing");
  expect_field_error([&] { root.string("s"); },
                     "test document: s is a number, expected a string");
  expect_field_error([&] { root.boolean("s"); },
                     "test document: s is a number, expected a boolean");
  expect_field_error([&] { root.object("list"); },
                     "test document: list is an array, expected an object");
  expect_field_error([&] { root.array("inner"); },
                     "test document: inner is an object, expected an array");
  const obs::JsonFields rows = root.object("inner").array("rows");
  expect_field_error([&] { rows.objects()[0].u64("k"); },
                     "test document: inner.rows[0].k is a string, expected a number");
  expect_field_error([&] { root.object("inner").array("mixed").objects(); },
                     "test document: inner.mixed[1] is a number, expected an object");
  expect_field_error([&] { root.object("cfg").strings(); },
                     "test document: cfg.b is a number, expected a string");
  expect_field_error([&] { rows.fail("has a problem"); },
                     "test document: inner.rows has a problem");
  expect_field_error([&] { rows.objects()[0].fail("k", "is unknown"); },
                     "test document: inner.rows[0].k is unknown");
  expect_field_error([&] { fields_of(JsonValue::parse("[1]")); },
                     "test document is an array, expected an object");
}

TEST(ObsJsonFields, IntegersAreRangeCheckedBeforeAnyCast) {
  const auto u32_of = [](const char* number) {
    return fields_of(JsonValue::parse(std::string(R"({"v":)") + number + "}")).u32("v");
  };
  const auto u64_of = [](const char* number) {
    return fields_of(JsonValue::parse(std::string(R"({"v":)") + number + "}")).u64("v");
  };
  EXPECT_EQ(u32_of("0"), 0u);
  EXPECT_EQ(u32_of("4294967295"), 4294967295u);
  expect_field_error([&] { u32_of("4294967296"); },
                     "test document: v is 4294967296, expected a non-negative integer below 2^32");
  expect_field_error([&] { u32_of("4294967297"); },
                     "test document: v is 4294967297, expected a non-negative integer below 2^32");
  expect_field_error([&] { u32_of("-1"); },
                     "test document: v is -1, expected a non-negative integer below 2^32");
  expect_field_error([&] { u32_of("0.5"); },
                     "test document: v is 0.5, expected a non-negative integer below 2^32");
  EXPECT_EQ(u64_of("4294967297"), 4294967297u);
  expect_field_error([&] { u64_of("1e30"); },
                     "test document: v is 1e+30, expected a non-negative integer below 2^64");
  expect_field_error([&] { u64_of("18446744073709551616"); },
                     "test document: v is 1.8446744073709552e+19, expected a non-negative "
                     "integer below 2^64");
  expect_field_error([&] { u64_of("1e999"); }, "test document: v is not a finite number");
  const JsonValue counts = JsonValue::parse(R"({"c":[3,-2]})");
  expect_field_error([&] { fields_of(counts).array("c").u64_at(1); },
                     "test document: c[1] is -2, expected a non-negative integer below 2^64");
  expect_field_error([&] { fields_of(JsonValue::parse(R"({"x":-1e999})")).number("x"); },
                     "test document: x is not a finite number");
}

// ------------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterIsMonotone) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("events");
  c.add(2.0);
  c.add();
  EXPECT_DOUBLE_EQ(c.value(), 3.0);
  EXPECT_THROW(c.add(-1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(c.value(), 3.0);
}

TEST(ObsMetrics, LabeledSeriesAreSeparateAndOrderInsensitive) {
  obs::MetricsRegistry registry;
  registry.counter("ops", {{"op", "reduce"}}).add(1.0);
  registry.counter("ops", {{"op", "broadcast"}}).add(5.0);
  EXPECT_DOUBLE_EQ(registry.counter("ops", {{"op", "reduce"}}).value(), 1.0);
  // Label order never creates a new series: labels are canonicalized.
  registry.counter("multi", {{"a", "1"}, {"b", "2"}}).add(1.0);
  registry.counter("multi", {{"b", "2"}, {"a", "1"}}).add(1.0);
  EXPECT_DOUBLE_EQ(registry.counter("multi", {{"a", "1"}, {"b", "2"}}).value(), 2.0);
}

TEST(ObsMetrics, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x").add(1.0);
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x"), std::invalid_argument);
}

TEST(ObsMetrics, HistogramPercentileMatchesStats) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("lat");
  std::vector<double> samples;
  for (int i = 0; i < 37; ++i) {
    const double v = (i * 7919 % 101) * 0.25;
    samples.push_back(v);
    h.observe(v);
  }
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), stats::percentile(samples, p)) << p;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_THROW(h.observe(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
}

TEST(ObsMetrics, HistogramCacheStaysCorrectAcrossInterleavedObserves) {
  // percentile() serves from a lazily sorted cache; observing after a read
  // must invalidate it, and repeated reads between observes must reuse it
  // without changing any answer.
  obs::Histogram h;
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 11; ++i) {
      const double v = ((round * 11 + i) * 6271 % 89) * 0.5;
      samples.push_back(v);
      h.observe(v);
    }
    for (const double p : {50.0, 90.0, 99.0}) {
      const double expected = stats::percentile(samples, p);
      EXPECT_DOUBLE_EQ(h.percentile(p), expected) << "round " << round << " p" << p;
      // Second read hits the cache and must agree with the first.
      EXPECT_DOUBLE_EQ(h.percentile(p), expected) << "cached, round " << round;
    }
  }
}

TEST(ObsMetrics, SnapshotSchemaRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("comm.messages", {{"op", "reduce"}}).add(4.0);
  registry.gauge("alive").set(7.0);
  registry.histogram("secs").observe(1.5);
  registry.histogram("secs").observe(2.5);

  const JsonValue parsed = JsonValue::parse(registry.to_json());
  EXPECT_EQ(parsed.find("schema")->as_string(), obs::kMetricsSchema);
  const JsonValue* counters = parsed.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->size(), 1u);
  EXPECT_EQ(counters->at(0).find("name")->as_string(), "comm.messages");
  EXPECT_EQ(counters->at(0).find("labels")->find("op")->as_string(), "reduce");
  EXPECT_DOUBLE_EQ(counters->at(0).find("value")->as_number(), 4.0);
  const JsonValue* hists = parsed.find("histograms");
  ASSERT_NE(hists, nullptr);
  EXPECT_DOUBLE_EQ(hists->at(0).find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hists->at(0).find("sum")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(hists->at(0).find("p50")->as_number(), 2.0);
}

// -------------------------------------------------------------------- tracer

TEST(ObsTrace, RejectsBackwardsSpans) {
  obs::Tracer tracer;
  EXPECT_THROW(tracer.complete(0, "bad", "test", 2.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(tracer.complete(0, "ok", "test", 1.0, 1.0));
}

TEST(ObsTrace, RejectsNonFiniteTimestamps) {
  // Regression guard: a NaN timestamp must be rejected at the recording API,
  // not discovered later as a corrupt ts in the exported trace. NaN defeats
  // ordinary `end >= begin` comparisons, so the guards test finiteness
  // explicitly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  obs::Tracer tracer;
  EXPECT_THROW(tracer.complete(0, "s", "t", nan, 1.0), std::invalid_argument);
  EXPECT_THROW(tracer.complete(0, "s", "t", 0.0, nan), std::invalid_argument);
  EXPECT_THROW(tracer.complete(0, "s", "t", nan, nan), std::invalid_argument);
  EXPECT_THROW(tracer.complete(0, "s", "t", 0.0, inf), std::invalid_argument);
  EXPECT_THROW(tracer.complete(0, "s", "t", -inf, 0.0), std::invalid_argument);
  EXPECT_THROW(tracer.instant(0, "i", "t", nan), std::invalid_argument);
  EXPECT_THROW(tracer.instant(0, "i", "t", inf), std::invalid_argument);
  EXPECT_TRUE(tracer.empty());  // nothing was recorded by the rejected calls
}

TEST(ObsTrace, FlowValidationAndChromeExport) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  obs::Tracer tracer;
  EXPECT_THROW(tracer.flow(0, nan, 1, 1.0, "m", "comm", true), std::invalid_argument);
  EXPECT_THROW(tracer.flow(0, 0.0, 1, nan, "m", "comm", true), std::invalid_argument);
  EXPECT_THROW(tracer.flow(0, 2.0, 1, 1.0, "m", "comm", true),
               std::invalid_argument);  // arrival before departure
  ASSERT_TRUE(tracer.flows().empty());

  tracer.complete(0, "send", "comm", 0.0, 1.0);
  tracer.complete(1, "recv", "comm", 0.0, 2.0);
  tracer.flow(0, 1.0, 1, 2.0, "p2p", "comm", true, {{"bytes", "8"}});

  // Chrome export: each flow is an "s"/"f" pair, paired by id, finishing
  // with bp:"e" so the arrow attaches to the enclosing slice's end.
  const JsonValue doc = JsonValue::parse(tracer.to_chrome_json());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const JsonValue* start = nullptr;
  const JsonValue* finish = nullptr;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "s") start = &e;
    if (ph == "f") finish = &e;
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(start->find("id")->as_number(), finish->find("id")->as_number());
  EXPECT_DOUBLE_EQ(start->find("ts")->as_number(), 1.0e6);
  EXPECT_DOUBLE_EQ(start->find("tid")->as_number(), 0.0);
  EXPECT_EQ(start->find("args")->find("bytes")->as_string(), "8");
  EXPECT_EQ(start->find("args")->find("binding")->as_string(), "true");
  EXPECT_DOUBLE_EQ(finish->find("ts")->as_number(), 2.0e6);
  EXPECT_DOUBLE_EQ(finish->find("tid")->as_number(), 1.0);
  EXPECT_EQ(finish->find("bp")->as_string(), "e");
}

TEST(ObsTrace, PerLaneMonotoneDetectsViolations) {
  obs::Tracer ok;
  ok.complete(0, "a", "t", 0.0, 2.0);
  ok.complete(0, "b", "t", 1.0, 3.0);
  ok.complete(1, "c", "t", 0.5, 0.75);  // other lanes are independent
  EXPECT_TRUE(ok.per_lane_monotone());

  obs::Tracer bad;
  bad.complete(0, "a", "t", 1.0, 2.0);
  bad.complete(0, "b", "t", 0.5, 3.0);
  EXPECT_FALSE(bad.per_lane_monotone());
}

TEST(ObsTrace, ChromeTraceShapeAndMicroseconds) {
  obs::Tracer tracer;
  tracer.set_lane_name(3, "rank 3");
  tracer.complete(3, "compute", "compute", 0.5, 1.5, {{"iteration", "0"}});
  tracer.instant(3, "fault.crash", "fault", 1.25);

  const JsonValue doc = JsonValue::parse(tracer.to_chrome_json());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_meta = false, saw_span = false, saw_instant = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M" && e.find("name")->as_string() == "thread_name") {
      saw_meta = e.find("args")->find("name")->as_string() == "rank 3";
    } else if (ph == "X") {
      saw_span = true;
      EXPECT_DOUBLE_EQ(e.find("ts")->as_number(), 0.5e6);   // microseconds
      EXPECT_DOUBLE_EQ(e.find("dur")->as_number(), 1.0e6);
      EXPECT_DOUBLE_EQ(e.find("tid")->as_number(), 3.0);
      EXPECT_EQ(e.find("args")->find("iteration")->as_string(), "0");
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_DOUBLE_EQ(e.find("ts")->as_number(), 1.25e6);
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(ObsTrace, CounterTracksExportAsChromeCEvents) {
  obs::Tracer tracer;
  tracer.complete(2, "compute", "compute", 0.0, 1.0);
  tracer.counter(2, "occupancy", 0.25, 0.875);
  tracer.counter(2, "occupancy", 1.0, 0.0);

  ASSERT_EQ(tracer.counters().size(), 2u);
  EXPECT_EQ(tracer.counters()[0].name, "occupancy");
  EXPECT_EQ(tracer.counters()[0].lane, 2u);
  EXPECT_DOUBLE_EQ(tracer.counters()[0].at, 0.25);
  EXPECT_DOUBLE_EQ(tracer.counters()[0].value, 0.875);
  // Counters sit outside the span stream, so they never break the per-lane
  // monotone append invariant even when sampled between spans.
  EXPECT_TRUE(tracer.per_lane_monotone());

  const JsonValue doc = JsonValue::parse(tracer.to_chrome_json());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t seen = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    if (e.find("ph")->as_string() != "C") continue;
    if (seen == 0) {
      EXPECT_EQ(e.find("name")->as_string(), "occupancy");
      EXPECT_DOUBLE_EQ(e.find("tid")->as_number(), 2.0);
      EXPECT_DOUBLE_EQ(e.find("ts")->as_number(), 0.25e6);  // microseconds
      EXPECT_DOUBLE_EQ(e.find("args")->find("value")->as_number(), 0.875);
    }
    ++seen;
  }
  EXPECT_EQ(seen, 2u);
}

TEST(ObsTrace, CounterRejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  obs::Tracer tracer;
  EXPECT_THROW(tracer.counter(0, "c", nan, 1.0), std::invalid_argument);
  EXPECT_THROW(tracer.counter(0, "c", 0.0, nan), std::invalid_argument);
  EXPECT_THROW(tracer.counter(0, "c", inf, 1.0), std::invalid_argument);
  EXPECT_THROW(tracer.counter(0, "c", 0.0, -inf), std::invalid_argument);
  EXPECT_TRUE(tracer.counters().empty());
}

// ------------------------------------------------------------ bench reporter

TEST(ObsBench, RecordSchemaAndEnvOutputDir) {
  obs::BenchReporter reporter("unit_test");
  reporter.series("total_time", 12.5, "s");
  reporter.series("efficiency", 0.9);
  reporter.metrics().counter("work").add(3.0);

  const JsonValue record = reporter.record();
  EXPECT_EQ(record.find("schema")->as_string(), obs::kBenchSchema);
  EXPECT_EQ(record.find("bench")->as_string(), "unit_test");
  const JsonValue* series = record.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ(series->at(0).find("name")->as_string(), "total_time");
  EXPECT_DOUBLE_EQ(series->at(0).find("value")->as_number(), 12.5);
  EXPECT_EQ(series->at(0).find("unit")->as_string(), "s");
  EXPECT_EQ(record.find("metrics")->find("schema")->as_string(), obs::kMetricsSchema);

  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  ::setenv("MULTIHIT_BENCH_DIR", dir.c_str(), 1);
  EXPECT_EQ(reporter.path(), dir + "/BENCH_unit_test.json");
  ASSERT_TRUE(reporter.write());
  ::unsetenv("MULTIHIT_BENCH_DIR");

  std::ifstream in(dir + "/BENCH_unit_test.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue reread = JsonValue::parse(buffer.str());
  EXPECT_EQ(reread.dump(), record.dump());
}

// --------------------------------------------------- end-to-end differential

Dataset obs_dataset(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.015;
  spec.seed = seed;
  return generate_dataset(spec);
}

TEST(ObsDifferential, TracingLeavesRunBitIdentical) {
  // The acceptance invariant: a null recorder and an attached recorder yield
  // the same selections and the same modeled clocks — instrumentation reads
  // simulated time, it never advances it.
  const Dataset data = obs_dataset(901);
  SummitConfig config;
  config.nodes = 5;

  DistributedOptions plain;
  DistributedOptions observed;
  obs::Recorder rec;
  observed.recorder = &rec;
  // Exercise the fault paths too (crash recovery + drops + checkpoints).
  FaultPlan plan;
  plan.events.push_back({FaultKind::kRankCrash, 2, 1, 0.5, 1});
  plan.events.push_back({FaultKind::kMessageDrop, 1, 0, 0.5, 2});
  plain.faults = plan;
  observed.faults = plan;
  plain.checkpoint_every = 2;
  observed.checkpoint_every = 2;

  const ClusterRunner runner(config);
  const ClusterRunResult a = runner.run(data, plain);
  const ClusterRunResult b = runner.run(data, observed);

  ASSERT_EQ(a.greedy.iterations.size(), b.greedy.iterations.size());
  for (std::size_t i = 0; i < a.greedy.iterations.size(); ++i) {
    EXPECT_EQ(a.greedy.iterations[i].genes, b.greedy.iterations[i].genes) << i;
  }
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_DOUBLE_EQ(a.schedule_time, b.schedule_time);
  EXPECT_DOUBLE_EQ(a.recovery_time, b.recovery_time);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iterations[i].iteration_time, b.iterations[i].iteration_time) << i;
  }

  // The recorder actually observed the run, and its trace is well-formed.
  EXPECT_FALSE(rec.trace.empty());
  EXPECT_TRUE(rec.trace.per_lane_monotone());
  EXPECT_FALSE(rec.trace.counters().empty());  // per-rank occupancy/DRAM tracks
  EXPECT_GT(rec.metrics.counter("cluster.iterations").value(), 0.0);
  EXPECT_GT(rec.metrics.counter("engine.iterations").value(), 0.0);
  EXPECT_GT(rec.metrics.counter("gpu.kernel_launches").value(), 0.0);
  EXPECT_GT(rec.metrics.counter("comm.collectives", {{"op", "reduce"}}).value(), 0.0);
  EXPECT_DOUBLE_EQ(rec.metrics.counter("cluster.ranks_lost").value(), 1.0);
  EXPECT_DOUBLE_EQ(rec.metrics.counter("fault.events", {{"kind", "crash"}}).value(), 1.0);
  EXPECT_NO_THROW(JsonValue::parse(rec.trace.to_chrome_json()));
  EXPECT_NO_THROW(JsonValue::parse(rec.metrics.to_json()));
}

TEST(ObsDifferential, RepeatedInstrumentedRunsAreByteIdentical) {
  // Determinism end-to-end: the exported artifacts of two identical runs are
  // byte-identical (simulated clocks only, ordered registry, ordered JSON).
  const Dataset data = obs_dataset(902);
  SummitConfig config;
  config.nodes = 3;
  const ClusterRunner runner(config);

  const auto artifacts = [&] {
    obs::Recorder rec;
    DistributedOptions options;
    options.recorder = &rec;
    options.max_iterations = 3;
    runner.run(data, options);
    return std::pair{rec.metrics.to_json(), rec.trace.to_chrome_json()};
  };
  const auto [metrics_a, trace_a] = artifacts();
  const auto [metrics_b, trace_b] = artifacts();
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_EQ(trace_a, trace_b);
}

}  // namespace
}  // namespace multihit
