#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "obs/analyze.hpp"
#include "obs/metrics.hpp"
#include "obs/schema.hpp"

namespace multihit::obs {
namespace {

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DiffError(std::string("diff: cannot read ") + what + " \"" + path + "\"");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

const char* delta_class_name(DeltaClass cls) noexcept {
  switch (cls) {
    case DeltaClass::kIdentical: return "identical";
    case DeltaClass::kImproved: return "improved";
    case DeltaClass::kRegressed: return "regressed";
    case DeltaClass::kAdded: return "added";
    case DeltaClass::kRemoved: return "removed";
  }
  return "?";
}

bool lower_is_better(std::string_view series) {
  // A count of violations is lower-is-better whatever its labels carry:
  // slo.violated{kind=admission,...} must not read the kind as a direction.
  if (series.substr(0, series.find('{')).find("violated") != std::string_view::npos) {
    return true;
  }
  // Names where *more* is better; everything else (seconds, bytes, stalls,
  // rejections, burn rates, incident counts) defaults to lower-is-better.
  // Labels count: slo.observed{kind=admission,...} is an admission rate.
  static constexpr std::string_view kHigherBetter[] = {
      "attainment", "admission",  "occupancy",    "efficiency",
      "throughput", "per_sec",    "speedup",      "cache_hit",
      "completed",  "busy_fraction", "headroom",
  };
  for (std::string_view token : kHigherBetter) {
    if (series.find(token) != std::string_view::npos) return false;
  }
  return true;
}

// --- series flattening -----------------------------------------------------

namespace {

using SeriesMap = std::map<std::string, double>;

std::string labels_suffix(const JsonFields& entry) {
  const std::vector<std::pair<std::string, std::string>> labels =
      entry.object("labels").strings();
  if (labels.empty()) return {};
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    if (out.size() > 1) out += ',';
    out += key + '=' + value;
  }
  return out + '}';
}

/// A metrics snapshot flattens to `<role>.<kind>.<name>{labels}` series
/// (histograms one per stat), read strictly: every section, name, label
/// and value must have its snapshot shape, and no (name, labels) may
/// repeat; a violation throws DiffError naming `<role>: <path>`.
void flatten_metrics(const std::string& role, const JsonValue& doc, SeriesMap& out) {
  const JsonFields root = require_schema<DiffError>(doc, kMetricsSchema, role);
  for (const auto& [section, kind] :
       {std::pair<const char*, const char*>{"counters", "counter"},
        {"gauges", "gauge"},
        {"histograms", "histogram"}}) {
    for (const JsonFields& entry : root.array(section).objects()) {
      const std::string series =
          role + "." + kind + "." + entry.string("name") + labels_suffix(entry);
      const auto add = [&](const std::string& key, double value) {
        if (!out.emplace(key, value).second) entry.fail("repeats the series " + series);
      };
      if (std::string_view(kind) != "histogram") {
        add(series, entry.number("value"));
        continue;
      }
      for (const char* stat : {"count", "sum", "min", "max", "p50", "p90", "p99"}) {
        add(series + "." + stat, entry.number(stat));
      }
    }
  }
}

const JsonValue* find_doc(const RunInput& run, std::string_view role) {
  for (const auto& [key, doc] : run.docs) {
    if (key == role) return &doc;
  }
  return nullptr;
}

void insert_doc(RunInput& run, std::string role, JsonValue doc) {
  while (find_doc(run, role)) role += "+";
  auto pos = std::lower_bound(
      run.docs.begin(), run.docs.end(), role,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  run.docs.insert(pos, {std::move(role), std::move(doc)});
}

void insert_digest(RunInput& run, std::string name, std::string digest) {
  auto pos = std::lower_bound(
      run.digests.begin(), run.digests.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  run.digests.insert(pos, {std::move(name), std::move(digest)});
}

}  // namespace

// --- run loading -----------------------------------------------------------

void add_doc(RunInput& run, std::string role, JsonValue doc) {
  insert_digest(run, role, content_digest(doc.dump() + "\n"));
  insert_doc(run, std::move(role), std::move(doc));
}

RunInput load_run(const std::string& path) {
  RunInput run;
  run.label = path;
  const std::string text = read_file(path, "run");
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const JsonParseError& error) {
    throw DiffError("diff: " + path + ": " + error.what());
  }
  const std::string_view tag = document_schema(doc);
  if (tag != kRunSchema) {
    const std::string_view kind = schema_kind(tag);
    // A lone non-diffable artifact (a Chrome trace, another diff report)
    // would compare zero series and "pass" vacuously — refuse it instead.
    if (kind != "metrics") {
      throw DiffError("diff: \"" + path + "\" is not a run manifest or a " +
                      "comparable artifact (schema \"" + std::string(tag) + "\")");
    }
    insert_digest(run, std::string(kind), content_digest(text));
    insert_doc(run, std::string(kind), std::move(doc));
    return run;
  }

  run.has_manifest = true;
  try {
    run.manifest = manifest_from_json(doc);
  } catch (const RuninfoError& error) {
    throw DiffError("diff: " + path + ": " + error.what());
  }
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  for (const RunArtifact& artifact : run.manifest.artifacts) {
    std::filesystem::path artifact_path(artifact.path);
    if (!artifact_path.is_absolute()) artifact_path = dir / artifact_path;
    const std::string bytes = read_file(artifact_path.string(), "artifact");
    const std::string digest = content_digest(bytes);
    if (digest != artifact.digest) {
      throw DiffError("diff: digest mismatch for artifact \"" + artifact.name +
                      "\": manifest says " + artifact.digest + ", file has " + digest);
    }
    insert_digest(run, artifact.name, digest);
    const std::string_view kind = schema_kind(artifact.schema);
    if (kind.empty()) {
      throw DiffError("diff: artifact \"" + artifact.name +
                      "\" carries unknown schema \"" + artifact.schema + "\"");
    }
    if (kind != "metrics" && kind != "trace") continue;
    JsonValue parsed;
    try {
      parsed = JsonValue::parse(bytes);
    } catch (const JsonParseError& error) {
      throw DiffError("diff: artifact \"" + artifact.name + "\" (" +
                      artifact_path.string() + "): " + error.what());
    }
    if (kind == "trace") {
      // The run's analysis is a view of its trace, derived here; a trace
      // without rank lanes (a serve run's) derives nothing.
      try {
        const TraceAnalysis analysis = analyze_trace(tracer_from_chrome(parsed));
        if (analysis.rank_lanes > 0) {
          MetricsRegistry metrics;
          record_analysis(analysis, metrics);
          insert_doc(run, "analysis", metrics.snapshot());
        }
      } catch (const std::exception& error) {
        throw DiffError("diff: artifact \"" + artifact.name + "\" (" +
                        artifact_path.string() + "): " + error.what());
      }
      continue;
    }
    if (document_schema(parsed) != artifact.schema) {
      throw DiffError("diff: artifact \"" + artifact.name +
                      "\": expected schema \"" + artifact.schema + "\", found \"" +
                      std::string(document_schema(parsed)) + "\"");
    }
    insert_doc(run, std::string(kind), std::move(parsed));
  }
  return run;
}

// --- the report ------------------------------------------------------------

namespace {

RunSummary summarize_run(const RunInput& run) {
  RunSummary out;
  out.label = run.label;
  if (run.has_manifest) {
    out.driver = run.manifest.driver;
    out.config = run.manifest.config;
  }
  return out;
}

/// The value of label `key` in a flattened series' `{k=v,...}` suffix; ""
/// when absent.
std::string label_value(const std::string& series, const std::string& key) {
  for (const char* lead : {"{", ","}) {
    const std::size_t at = series.find(lead + key + '=');
    if (at == std::string::npos) continue;
    const std::size_t begin = at + key.size() + 2;
    return series.substr(begin, series.find_first_of(",}", begin) - begin);
  }
  return {};
}

/// The analysis.makespan_seconds pair the summary reads, and its role.
struct Makespan {
  std::string role;
  double a = 0.0;
  double b = 0.0;
};

/// The counts, then the makespan clause when both runs carry an analysis:
/// its relative change, and the share of it that the moved
/// `<role>.gauge.analysis.critical_seconds` cell with the largest |b - a|
/// explains ("attributed to <phase> on rank <lane>").
std::string summary_sentence(const DiffReport& report, const std::optional<Makespan>& makespan) {
  const DiffCounts& c = report.counts;
  std::string out = fmt("series %u: %u identical, %u improved, %u regressed, %u added, %u removed",
                        c.compared, c.identical, c.improved, c.regressed, c.added, c.removed);
  if (makespan) {
    const double delta = makespan->b - makespan->a;
    if (delta != 0.0) {
      out += "; makespan ";
      if (makespan->a > 0.0) {
        out += fmt("%+.2f%%", delta / makespan->a * 100.0);
      } else {
        out += fmt("%+g s", delta);
      }
      out += " (" + json_number(makespan->a) + " s -> " + json_number(makespan->b) + " s)";
      const std::string cells = makespan->role + ".gauge.analysis.critical_seconds{";
      const SeriesDelta* top = nullptr;
      double top_delta = 0.0;
      for (const SeriesDelta& cell : report.series) {
        if (!cell.series.starts_with(cells)) continue;
        const double d = cell.b - cell.a;  // an absent side holds 0
        if (!top || std::abs(d) > std::abs(top_delta)) {
          top = &cell;
          top_delta = d;
        }
      }
      if (top && top_delta != 0.0) {
        out += fmt(", %.0f%% attributed to ", top_delta / delta * 100.0);
        out += label_value(top->series, "phase") + " on rank " + label_value(top->series, "lane");
      }
    } else {
      out += "; makespan unchanged";
    }
  }
  out += diff_regression(report) ? "; verdict: REGRESSION" : "; verdict: ok";
  return out;
}

}  // namespace

bool diff_regression(const DiffReport& report) noexcept {
  return report.counts.regressed > 0 || report.counts.removed > 0;
}

DiffReport diff_runs(const RunInput& a, const RunInput& b) {
  DiffReport report;
  report.run_a = summarize_run(a);
  report.run_b = summarize_run(b);

  // Config drift: informational — comparing two *different* configurations
  // is the tool's purpose, but the reader must see which knobs moved.
  if (a.has_manifest && b.has_manifest) {
    std::map<std::string, std::pair<std::string, std::string>> merged;
    for (const auto& [key, value] : a.manifest.config) merged[key].first = value;
    for (const auto& [key, value] : b.manifest.config) merged[key].second = value;
    for (const auto& [key, values] : merged) {
      if (values.first != values.second) report.config_changes.push_back({key, values});
    }
  }

  {
    std::map<std::string, ArtifactDelta> merged;
    const auto collect = [&merged](const RunInput& run, bool side_b) {
      for (const auto& [name, digest] : run.digests) {
        ArtifactDelta& entry = merged[name];
        entry.name = name;
        (side_b ? entry.in_b : entry.in_a) = true;
        if (entry.schema.empty()) {
          if (run.has_manifest) {
            for (const RunArtifact& artifact : run.manifest.artifacts) {
              if (artifact.name == name) entry.schema = artifact.schema;
            }
          } else {
            entry.schema = std::string(schema_for_kind(name));
          }
        }
        // Stash the digest in `identical` later; compare via the maps below.
      }
    };
    collect(a, false);
    collect(b, true);
    for (auto& [name, entry] : merged) {
      if (entry.in_a && entry.in_b) {
        std::string da, db;
        for (const auto& [n, d] : a.digests) {
          if (n == name) da = d;
        }
        for (const auto& [n, d] : b.digests) {
          if (n == name) db = d;
        }
        entry.identical = da == db;
      }
      report.artifacts.push_back(std::move(entry));
    }
  }

  // Generic series pass over artifact kinds present on BOTH sides (coverage
  // asymmetry is reported in the artifact table, not turned into thousands
  // of added/removed series).
  SeriesMap series_a, series_b;
  for (const auto& [role, doc] : a.docs) {
    if (find_doc(b, role)) flatten_metrics(role, doc, series_a);
  }
  for (const auto& [role, doc] : b.docs) {
    if (find_doc(a, role)) flatten_metrics(role, doc, series_b);
  }
  auto it_a = series_a.begin();
  auto it_b = series_b.begin();
  std::optional<Makespan> makespan;
  const auto classify = [&report, &makespan](const std::string& name, bool has_a, double va,
                                             bool has_b, double vb) {
    ++report.counts.compared;
    // Series arrive in name order, so the first makespan pair is the first
    // role's: a manifest's derived "analysis" before a bare "metrics".
    constexpr std::string_view kMakespan = ".gauge.analysis.makespan_seconds";
    if (!makespan && has_a && has_b && name.ends_with(kMakespan)) {
      makespan = Makespan{name.substr(0, name.size() - kMakespan.size()), va, vb};
    }
    SeriesDelta delta;
    delta.series = name;
    delta.has_a = has_a;
    delta.has_b = has_b;
    delta.a = va;
    delta.b = vb;
    if (has_a && has_b && va == vb) {
      ++report.counts.identical;
      return;
    }
    if (!has_a) {
      delta.cls = DeltaClass::kAdded;
      ++report.counts.added;
    } else if (!has_b) {
      delta.cls = DeltaClass::kRemoved;
      ++report.counts.removed;
    } else if ((vb < va) == lower_is_better(name)) {
      delta.cls = DeltaClass::kImproved;
      ++report.counts.improved;
    } else {
      delta.cls = DeltaClass::kRegressed;
      ++report.counts.regressed;
    }
    report.series.push_back(std::move(delta));
  };
  while (it_a != series_a.end() || it_b != series_b.end()) {
    if (it_b == series_b.end() || (it_a != series_a.end() && it_a->first < it_b->first)) {
      classify(it_a->first, true, it_a->second, false, 0.0);
      ++it_a;
    } else if (it_a == series_a.end() || it_b->first < it_a->first) {
      classify(it_b->first, false, 0.0, true, it_b->second);
      ++it_b;
    } else {
      classify(it_a->first, true, it_a->second, true, it_b->second);
      ++it_a, ++it_b;
    }
  }

  report.summary = summary_sentence(report, makespan);
  return report;
}

// --- JSON rendering --------------------------------------------------------

namespace {

JsonValue run_side_json(const RunSummary& side) {
  JsonValue out = JsonValue::object();
  out.set("label", side.label);
  out.set("driver", side.driver);
  JsonValue config = JsonValue::object();
  for (const auto& [key, value] : side.config) config.set(key, value);
  out.set("config", std::move(config));
  return out;
}

}  // namespace

JsonValue diff_report_json(const DiffReport& report) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kDiffSchema);

  JsonValue runs = JsonValue::object();
  runs.set("a", run_side_json(report.run_a));
  runs.set("b", run_side_json(report.run_b));
  doc.set("runs", std::move(runs));

  JsonValue config_changes = JsonValue::array();
  for (const auto& [key, values] : report.config_changes) {
    JsonValue entry = JsonValue::object();
    entry.set("key", key);
    entry.set("a", values.first);
    entry.set("b", values.second);
    config_changes.push_back(std::move(entry));
  }
  doc.set("config_changes", std::move(config_changes));

  JsonValue artifacts = JsonValue::array();
  for (const ArtifactDelta& artifact : report.artifacts) {
    JsonValue entry = JsonValue::object();
    entry.set("name", artifact.name);
    entry.set("schema", artifact.schema);
    entry.set("in_a", artifact.in_a);
    entry.set("in_b", artifact.in_b);
    entry.set("identical", artifact.identical);
    artifacts.push_back(std::move(entry));
  }
  doc.set("artifacts", std::move(artifacts));

  JsonValue counts = JsonValue::object();
  counts.set("compared", static_cast<std::uint64_t>(report.counts.compared));
  counts.set("identical", static_cast<std::uint64_t>(report.counts.identical));
  counts.set("improved", static_cast<std::uint64_t>(report.counts.improved));
  counts.set("regressed", static_cast<std::uint64_t>(report.counts.regressed));
  counts.set("added", static_cast<std::uint64_t>(report.counts.added));
  counts.set("removed", static_cast<std::uint64_t>(report.counts.removed));
  doc.set("counts", std::move(counts));

  JsonValue series = JsonValue::array();
  for (const SeriesDelta& delta : report.series) {
    JsonValue entry = JsonValue::object();
    entry.set("series", delta.series);
    entry.set("class", delta_class_name(delta.cls));
    if (delta.has_a) entry.set("a", delta.a);
    if (delta.has_b) entry.set("b", delta.b);
    if (delta.has_a && delta.has_b) {
      entry.set("delta", delta.b - delta.a);
      if (delta.a != 0.0) entry.set("rel", (delta.b - delta.a) / std::abs(delta.a));
    }
    series.push_back(std::move(entry));
  }
  doc.set("series", std::move(series));

  JsonValue verdict = JsonValue::object();
  verdict.set("regression", diff_regression(report));
  verdict.set("regressed_series", static_cast<std::uint64_t>(report.counts.regressed));
  verdict.set("removed_series", static_cast<std::uint64_t>(report.counts.removed));
  doc.set("verdict", std::move(verdict));
  doc.set("summary", report.summary);
  return doc;
}

// --- human rendering -------------------------------------------------------

std::string diff_text(const DiffReport& report, bool summary_only) {
  std::string out = "multihit run diff (" + std::string(kDiffSchema) + ")\n";
  out += "  A: " + report.run_a.label;
  if (!report.run_a.driver.empty()) out += " (" + report.run_a.driver + ")";
  out += "\n  B: " + report.run_b.label;
  if (!report.run_b.driver.empty()) out += " (" + report.run_b.driver + ")";
  out += "\n  " + report.summary + "\n";
  if (summary_only) return out;

  if (!report.config_changes.empty()) {
    out += "  config changes:\n";
    for (const auto& [key, values] : report.config_changes) {
      out += "    " + key + ": \"" + values.first + "\" -> \"" + values.second + "\"\n";
    }
  }
  for (const ArtifactDelta& artifact : report.artifacts) {
    if (artifact.in_a && artifact.in_b) continue;
    out += std::string("  artifact only in ") + (artifact.in_a ? "A" : "B") + ": " +
           artifact.name + "\n";
  }

  constexpr std::size_t kMaxSeriesLines = 40;
  std::size_t listed = 0;
  for (const SeriesDelta& delta : report.series) {
    if (listed == kMaxSeriesLines) {
      out += fmt("    ... and %zu more\n", report.series.size() - listed);
      break;
    }
    ++listed;
    out += "    " + std::string(delta_class_name(delta.cls)) + " " + delta.series;
    if (delta.has_a && delta.has_b) {
      out += ": " + json_number(delta.a) + " -> " + json_number(delta.b);
      if (delta.a != 0.0) out += fmt(" (%+.2f%%)", (delta.b - delta.a) / std::abs(delta.a) * 100.0);
    } else {
      out += ": " + json_number(delta.has_a ? delta.a : delta.b);
    }
    out += "\n";
  }

  return out;
}

}  // namespace multihit::obs
