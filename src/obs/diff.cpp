#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

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

double number_or(const JsonValue& obj, std::string_view key, double fallback) {
  const JsonValue* value = obj.find(key);
  return value && value->is_number() ? value->as_number() : fallback;
}

/// `obj[key]` as a u32 id, 0 when absent. A present id that is not an
/// integer in [0, 2^32) throws, naming its path: `array`[`index`].`key`.
std::uint32_t id_or_zero(const JsonValue& obj, std::string_view key, std::string_view array,
                         std::size_t index) {
  const JsonValue* value = obj.find(key);
  if (!value) return 0;
  const double id = value->is_number() ? value->as_number() : -1.0;
  if (!(id >= 0.0 && id < 4294967296.0 && id == std::floor(id))) {
    throw DiffError("diff: " + std::string(array) + "[" + std::to_string(index) + "]." +
                    std::string(key) + " is not an integer in [0, 2^32)");
  }
  return static_cast<std::uint32_t>(id);
}

}  // namespace

// --- tolerance grammar -----------------------------------------------------

std::vector<ToleranceRule> parse_tolerances(std::string_view text) {
  std::vector<ToleranceRule> rules;
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const auto fail = [&](const std::string& why) {
      throw DiffError("tol line " + std::to_string(line_no) + ": " + why);
    };
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream words(line);
    std::string word;
    std::vector<std::string> tokens;
    while (words >> word) tokens.push_back(word);
    if (tokens.empty()) continue;
    if (tokens[0] != "tol") fail("expected \"tol\", got \"" + tokens[0] + "\"");
    if (tokens.size() != 4) {
      fail("expected \"tol <series-glob> rel|abs <bound>\" (" +
           std::to_string(tokens.size()) + " words)");
    }
    ToleranceRule rule;
    rule.glob = tokens[1];
    if (tokens[2] == "rel") {
      rule.relative = true;
    } else if (tokens[2] == "abs") {
      rule.relative = false;
    } else {
      fail("expected rel|abs, got \"" + tokens[2] + "\"");
    }
    char* end = nullptr;
    rule.bound = std::strtod(tokens[3].c_str(), &end);
    if (end == tokens[3].c_str() || *end != '\0' || !(rule.bound >= 0.0)) {
      fail("bound must be a non-negative number, got \"" + tokens[3] + "\"");
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

bool glob_match(std::string_view glob, std::string_view name) {
  std::size_t g = 0, n = 0;
  std::size_t star_g = std::string_view::npos, star_n = 0;
  while (n < name.size()) {
    if (g < glob.size() && (glob[g] == '?' || glob[g] == name[n])) {
      ++g, ++n;
    } else if (g < glob.size() && glob[g] == '*') {
      star_g = g++;
      star_n = n;
    } else if (star_g != std::string_view::npos) {
      g = star_g + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (g < glob.size() && glob[g] == '*') ++g;
  return g == glob.size();
}

const char* delta_class_name(DeltaClass cls) noexcept {
  switch (cls) {
    case DeltaClass::kIdentical: return "identical";
    case DeltaClass::kWithinTolerance: return "within_tolerance";
    case DeltaClass::kImproved: return "improved";
    case DeltaClass::kRegressed: return "regressed";
    case DeltaClass::kAdded: return "added";
    case DeltaClass::kRemoved: return "removed";
  }
  return "?";
}

bool lower_is_better(std::string_view series) {
  // Names where *more* is better; everything else (seconds, bytes, stalls,
  // rejections, burn rates, incident counts) defaults to lower-is-better.
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

/// Identity fields used to key array elements, tried in this order; every
/// one present contributes to the element key.
constexpr std::string_view kIdentityFields[] = {
    "name", "phase",  "rule", "series", "tenant", "op",        "cancer",
    "worker", "client", "id",  "gpu",    "rank",   "lane",      "iteration",
    "index", "kind",
};

std::string element_key(const JsonValue& element) {
  if (!element.is_object()) return {};
  std::string key;
  for (std::string_view field : kIdentityFields) {
    const JsonValue* value = element.find(field);
    if (!value) continue;
    if (!key.empty()) key += ',';
    key += field;
    key += '=';
    if (value->is_string()) {
      key += value->as_string();
    } else if (value->is_number()) {
      key += json_number(value->as_number());
    } else if (value->is_bool()) {
      key += value->as_bool() ? "true" : "false";
    }
  }
  return key;
}

using SeriesMap = std::map<std::string, double>;

struct Flattener {
  SeriesMap& out;
  const std::vector<std::string_view>& skip;

  void add_leaf(const std::string& path, double value) {
    if (out.emplace(path, value).second) return;
    for (int n = 2;; ++n) {
      if (out.emplace(path + "#" + std::to_string(n), value).second) return;
    }
  }

  bool skipped(const std::string& path) const {
    for (std::string_view glob : skip) {
      if (glob_match(glob, path)) return true;
    }
    return false;
  }

  void walk(const std::string& path, const JsonValue& value) {
    if (skipped(path)) return;
    switch (value.kind()) {
      case JsonValue::Kind::kNumber:
        add_leaf(path, value.as_number());
        return;
      case JsonValue::Kind::kBool:
        add_leaf(path, value.as_bool() ? 1.0 : 0.0);
        return;
      case JsonValue::Kind::kObject:
        for (const auto& [key, child] : value.as_object()) {
          walk(path + "." + key, child);
        }
        return;
      case JsonValue::Kind::kArray: {
        const JsonValue::Array& elements = value.as_array();
        for (std::size_t i = 0; i < elements.size(); ++i) {
          std::string key = element_key(elements[i]);
          if (key.empty()) key = std::to_string(i);
          walk(path + "[" + key + "]", elements[i]);
        }
        return;
      }
      default:
        return;  // strings and nulls are identity/config, not series
    }
  }
};

std::string labels_suffix(const JsonValue& entry) {
  const JsonValue* labels = entry.find("labels");
  if (!labels || !labels->is_object() || labels->as_object().empty()) return {};
  std::string out = "{";
  for (const auto& [key, value] : labels->as_object()) {
    if (out.size() > 1) out += ',';
    out += key;
    out += '=';
    if (value.is_string()) out += value.as_string();
  }
  out += '}';
  return out;
}

/// Metrics get a curated flattening — `metrics.counter.<name>{labels}` — so
/// labeled variants never rely on positional collision suffixes.
void flatten_metrics(const JsonValue& doc, SeriesMap& out) {
  static const std::vector<std::string_view> kNoSkip;
  Flattener flat{out, kNoSkip};
  for (const auto& [section, kind] :
       {std::pair<const char*, const char*>{"counters", "counter"},
        {"gauges", "gauge"}}) {
    const JsonValue* entries = doc.find(section);
    if (!entries || !entries->is_array()) continue;
    for (const JsonValue& entry : entries->as_array()) {
      const JsonValue* name = entry.find("name");
      const JsonValue* value = entry.find("value");
      if (!name || !name->is_string() || !value || !value->is_number()) continue;
      flat.add_leaf("metrics." + std::string(kind) + "." + name->as_string() +
                        labels_suffix(entry),
                    value->as_number());
    }
  }
  if (const JsonValue* entries = doc.find("histograms");
      entries && entries->is_array()) {
    for (const JsonValue& entry : entries->as_array()) {
      const JsonValue* name = entry.find("name");
      if (!name || !name->is_string()) continue;
      const std::string base =
          "metrics.histogram." + name->as_string() + labels_suffix(entry);
      for (const char* stat : {"count", "sum", "min", "max", "p50", "p90", "p99"}) {
        if (const JsonValue* value = entry.find(stat); value && value->is_number()) {
          flat.add_leaf(base + "." + stat, value->as_number());
        }
      }
    }
  }
}

/// Flattens one artifact document into role-prefixed series. Sections with
/// specialized diff semantics (critical-path segments, per-launch kernels,
/// incidents, sampler rings) are excluded here; hostprof keeps only its
/// deterministic projection so wall-clock noise cannot trip the exact gate.
void flatten_role(const std::string& role, const JsonValue& doc, SeriesMap& out) {
  if (role == "metrics") {
    flatten_metrics(doc, out);
    return;
  }
  static const std::vector<std::string_view> kAnalysisSkip = {
      "analysis.critical_path.segments"};
  static const std::vector<std::string_view> kProfileSkip = {"profile.kernels"};
  static const std::vector<std::string_view> kHealthSkip = {
      "health.incidents", "health.series[*].window"};
  static const std::vector<std::string_view> kHostprofSkip = {
      "hostprof.wallclock", "hostprof.imbalance", "hostprof.claim_latency",
      "hostprof.workers",   "hostprof.sweeps"};
  static const std::vector<std::string_view> kNoSkip;
  const std::vector<std::string_view>* skip = &kNoSkip;
  if (role == "analysis") skip = &kAnalysisSkip;
  if (role == "profile") skip = &kProfileSkip;
  if (role == "health") skip = &kHealthSkip;
  if (role == "hostprof") skip = &kHostprofSkip;
  Flattener{out, *skip}.walk(role, doc);
}

bool diffable_kind(std::string_view kind) {
  return kind == "metrics" || kind == "analysis" || kind == "profile" ||
         kind == "health" || kind == "serve" || kind == "slo" ||
         kind == "hostprof" || kind == "truth" || kind == "bench";
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
    if (kind.empty() || !diffable_kind(kind)) {
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
    if (!diffable_kind(kind)) continue;
    JsonValue parsed;
    try {
      parsed = JsonValue::parse(bytes);
    } catch (const JsonParseError& error) {
      throw DiffError("diff: artifact \"" + artifact.name + "\" (" +
                      artifact_path.string() + "): " + error.what());
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

// --- specialized sections --------------------------------------------------

namespace {

CriticalPathDiff diff_critical_path(const JsonValue* a, const JsonValue* b) {
  CriticalPathDiff out;
  if (!a || !b) return out;
  out.present = true;
  out.makespan_a = number_or(*a, "makespan_seconds", 0.0);
  out.makespan_b = number_or(*b, "makespan_seconds", 0.0);
  std::map<std::pair<std::string, std::uint32_t>, std::pair<double, double>> cells;
  const auto accumulate = [&cells](const JsonValue& doc, bool side_b) {
    const JsonValue* critical = doc.find("critical_path");
    const JsonValue* segments = critical ? critical->find("segments") : nullptr;
    if (!segments || !segments->is_array()) return;
    const auto& segs = segments->as_array();
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const JsonValue& seg = segs[i];
      const JsonValue* phase = seg.find("phase");
      if (!phase || !phase->is_string()) continue;
      const std::uint32_t lane = id_or_zero(seg, "lane", "analysis: critical_path.segments", i);
      const double seconds =
          number_or(seg, "end_seconds", 0.0) - number_or(seg, "begin_seconds", 0.0);
      auto& cell = cells[{phase->as_string(), lane}];
      (side_b ? cell.second : cell.first) += seconds;
    }
  };
  accumulate(*a, false);
  accumulate(*b, true);
  for (const auto& [key, seconds] : cells) {
    AttributionCell cell;
    cell.phase = key.first;
    cell.lane = key.second;
    cell.a_seconds = seconds.first;
    cell.b_seconds = seconds.second;
    out.cells.push_back(std::move(cell));
  }
  return out;
}

struct KernelAggregate {
  double launches = 0, seconds = 0, dram_bytes = 0;
  double occupancy = 0, intensity = 0, memory_bound = 0;
};

KernelDiff diff_kernels(const JsonValue* a, const JsonValue* b) {
  KernelDiff out;
  if (!a || !b) return out;
  out.present = true;
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  std::map<Key, std::pair<KernelAggregate, KernelAggregate>> rows;
  std::pair<KernelAggregate, KernelAggregate> totals;
  const auto accumulate = [&](const JsonValue& doc, bool side_b) {
    const JsonValue* kernels = doc.find("kernels");
    if (!kernels || !kernels->is_array()) return;
    const auto& launches = kernels->as_array();
    for (std::size_t i = 0; i < launches.size(); ++i) {
      const JsonValue& k = launches[i];
      constexpr std::string_view kPath = "profile: kernels";
      const Key key{id_or_zero(k, "rank", kPath, i), id_or_zero(k, "gpu", kPath, i),
                    id_or_zero(k, "iteration", kPath, i)};
      auto& pair = rows[key];
      for (KernelAggregate* agg : {side_b ? &pair.second : &pair.first,
                                   side_b ? &totals.second : &totals.first}) {
        agg->launches += 1;
        agg->seconds += number_or(k, "sim_seconds", 0.0);
        agg->dram_bytes += number_or(k, "dram_bytes", 0.0);
        agg->occupancy += number_or(k, "occupancy", 0.0);
        agg->intensity += number_or(k, "arithmetic_intensity", 0.0);
        const JsonValue* bound = k.find("memory_bound");
        if (bound && bound->is_bool() && bound->as_bool()) agg->memory_bound += 1;
      }
    }
  };
  accumulate(*a, false);
  accumulate(*b, true);
  const auto mean = [](double sum, double count) { return count > 0 ? sum / count : 0.0; };
  for (const auto& [key, pair] : rows) {
    const KernelAggregate& ka = pair.first;
    const KernelAggregate& kb = pair.second;
    KernelRowDiff row;
    row.rank = std::get<0>(key);
    row.gpu = std::get<1>(key);
    row.iteration = std::get<2>(key);
    row.launches_a = ka.launches;
    row.launches_b = kb.launches;
    row.seconds_a = ka.seconds;
    row.seconds_b = kb.seconds;
    row.dram_bytes_a = ka.dram_bytes;
    row.dram_bytes_b = kb.dram_bytes;
    row.occupancy_a = mean(ka.occupancy, ka.launches);
    row.occupancy_b = mean(kb.occupancy, kb.launches);
    row.intensity_a = mean(ka.intensity, ka.launches);
    row.intensity_b = mean(kb.intensity, kb.launches);
    row.memory_bound_a = ka.memory_bound;
    row.memory_bound_b = kb.memory_bound;
    const bool moved = row.launches_a != row.launches_b ||
                       row.seconds_a != row.seconds_b ||
                       row.dram_bytes_a != row.dram_bytes_b ||
                       row.occupancy_a != row.occupancy_b ||
                       row.intensity_a != row.intensity_b ||
                       row.memory_bound_a != row.memory_bound_b;
    if (moved) out.rows.push_back(std::move(row));
  }
  out.launches_a = totals.first.launches;
  out.launches_b = totals.second.launches;
  out.seconds_a = totals.first.seconds;
  out.seconds_b = totals.second.seconds;
  out.dram_bytes_a = totals.first.dram_bytes;
  out.dram_bytes_b = totals.second.dram_bytes;
  out.memory_bound_fraction_a = mean(totals.first.memory_bound, totals.first.launches);
  out.memory_bound_fraction_b = mean(totals.second.memory_bound, totals.second.launches);
  return out;
}

std::vector<IncidentKey> incident_keys(const JsonValue& doc) {
  std::vector<IncidentKey> out;
  const JsonValue* incidents = doc.find("incidents");
  if (!incidents || !incidents->is_array()) return out;
  const auto& entries = incidents->as_array();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const JsonValue& inc = entries[i];
    IncidentKey key;
    if (const JsonValue* v = inc.find("rule"); v && v->is_string()) key.rule = v->as_string();
    if (const JsonValue* v = inc.find("kind"); v && v->is_string()) key.kind = v->as_string();
    if (const JsonValue* v = inc.find("tenant"); v && v->is_string()) key.tenant = v->as_string();
    key.lane = id_or_zero(inc, "lane", "health: incidents", i);
    key.fired = number_or(inc, "fired", 0.0);
    key.cleared = number_or(inc, "cleared", 0.0);
    key.value = number_or(inc, "value", 0.0);
    out.push_back(std::move(key));
  }
  return out;
}

IncidentDiff diff_incidents(const JsonValue* a, const JsonValue* b) {
  IncidentDiff out;
  if (!a || !b) return out;
  out.present = true;
  std::vector<IncidentKey> in_a = incident_keys(*a);
  std::vector<IncidentKey> in_b = incident_keys(*b);
  std::vector<bool> used(in_b.size(), false);
  for (const IncidentKey& ka : in_a) {
    bool matched = false;
    for (std::size_t i = 0; i < in_b.size(); ++i) {
      if (used[i]) continue;
      const IncidentKey& kb = in_b[i];
      if (ka.rule != kb.rule || ka.kind != kb.kind || ka.lane != kb.lane ||
          ka.tenant != kb.tenant) {
        continue;
      }
      if (ka.fired > kb.cleared || kb.fired > ka.cleared) continue;  // windows disjoint
      used[i] = true;
      matched = true;
      ++out.matched;
      break;
    }
    if (!matched) out.removed.push_back(ka);
  }
  for (std::size_t i = 0; i < in_b.size(); ++i) {
    if (!used[i]) out.added.push_back(in_b[i]);
  }
  return out;
}

SloDiff diff_slo(const JsonValue* a, const JsonValue* b) {
  SloDiff out;
  if (!a || !b) return out;
  out.present = true;
  struct Entry {
    double observed = 0, attainment = 0, burn = 0;
    bool violated = false;
  };
  std::map<std::tuple<std::string, std::string, double>, std::pair<const JsonValue*, const JsonValue*>> matched;
  const auto collect = [&matched](const JsonValue& doc, bool side_b) {
    const JsonValue* tenants = doc.find("tenants");
    if (!tenants || !tenants->is_array()) return;
    for (const JsonValue& tenant : tenants->as_array()) {
      const JsonValue* name = tenant.find("tenant");
      const JsonValue* objectives = tenant.find("objectives");
      if (!name || !name->is_string() || !objectives || !objectives->is_array()) continue;
      for (const JsonValue& objective : objectives->as_array()) {
        const JsonValue* kind = objective.find("kind");
        if (!kind || !kind->is_string()) continue;
        auto& slot = matched[{name->as_string(), kind->as_string(),
                              number_or(objective, "percentile", 0.0)}];
        // First unclaimed slot per key side; duplicate objectives of the same
        // shape pair up through the generic series diff instead.
        if (!side_b && !slot.first) slot.first = &objective;
        if (side_b && !slot.second) slot.second = &objective;
      }
    }
  };
  collect(*a, false);
  collect(*b, true);
  for (const auto& [key, sides] : matched) {
    if (!sides.first || !sides.second) continue;
    SloObjectiveDiff diff;
    diff.tenant = std::get<0>(key);
    diff.kind = std::get<1>(key);
    diff.percentile = std::get<2>(key);
    const auto fill = [](const JsonValue& objective, double& observed,
                         double& attainment, double& burn, bool& violated) {
      observed = number_or(objective, "observed", 0.0);
      attainment = number_or(objective, "attainment", 0.0);
      burn = number_or(objective, "max_slow_burn", 0.0);
      const JsonValue* v = objective.find("violated");
      violated = v && v->is_bool() && v->as_bool();
    };
    fill(*sides.first, diff.observed_a, diff.attainment_a, diff.burn_a, diff.violated_a);
    fill(*sides.second, diff.observed_b, diff.attainment_b, diff.burn_b, diff.violated_b);
    out.objectives.push_back(std::move(diff));
  }
  return out;
}

HostprofDiff diff_hostprof(const JsonValue* a, const JsonValue* b) {
  HostprofDiff out;
  if (!a || !b) return out;
  const JsonValue* wall_a = a->find("wallclock");
  const JsonValue* wall_b = b->find("wallclock");
  if (!wall_a || !wall_b) return out;  // deterministic projections carry none
  out.present = true;
  out.wall_a = number_or(*wall_a, "wall_seconds", 0.0);
  out.wall_b = number_or(*wall_b, "wall_seconds", 0.0);
  out.eval_a = number_or(*wall_a, "eval_seconds", 0.0);
  out.eval_b = number_or(*wall_b, "eval_seconds", 0.0);
  out.tail_idle_a = number_or(*wall_a, "tail_idle_seconds", 0.0);
  out.tail_idle_b = number_or(*wall_b, "tail_idle_seconds", 0.0);
  out.combos_per_sec_a = number_or(*wall_a, "combos_per_sec", 0.0);
  out.combos_per_sec_b = number_or(*wall_b, "combos_per_sec", 0.0);
  std::map<std::string, std::pair<const JsonValue*, const JsonValue*>> phases;
  const auto collect = [&phases](const JsonValue& doc, bool side_b) {
    const JsonValue* imbalance = doc.find("imbalance");
    if (!imbalance || !imbalance->is_array()) return;
    for (const JsonValue& entry : imbalance->as_array()) {
      const JsonValue* phase = entry.find("phase");
      if (!phase || !phase->is_string()) continue;
      auto& slot = phases[phase->as_string()];
      (side_b ? slot.second : slot.first) = &entry;
    }
  };
  collect(*a, false);
  collect(*b, true);
  for (const auto& [phase, sides] : phases) {
    HostprofPhaseDiff diff;
    diff.phase = phase;
    if (sides.first) {
      diff.max_over_mean_a = number_or(*sides.first, "max_over_mean", 0.0);
      diff.straggler_lane_a = number_or(*sides.first, "straggler_lane", 0.0);
    }
    if (sides.second) {
      diff.max_over_mean_b = number_or(*sides.second, "max_over_mean", 0.0);
      diff.straggler_lane_b = number_or(*sides.second, "straggler_lane", 0.0);
    }
    out.phases.push_back(std::move(diff));
  }
  return out;
}

RunSummary summarize_run(const RunInput& run) {
  RunSummary out;
  out.label = run.label;
  if (run.has_manifest) {
    out.driver = run.manifest.driver;
    out.config = run.manifest.config;
  }
  return out;
}

std::string summary_sentence(const DiffReport& report) {
  const DiffCounts& c = report.counts;
  std::string out = fmt("series %u: %u identical, %u within tolerance, %u improved, "
                        "%u regressed, %u added, %u removed",
                        c.compared, c.identical, c.within_tolerance, c.improved,
                        c.regressed, c.added, c.removed);
  if (report.critical_path.present) {
    const double delta = report.critical_path.makespan_b - report.critical_path.makespan_a;
    if (delta != 0.0) {
      out += "; makespan ";
      if (report.critical_path.makespan_a > 0.0) {
        out += fmt("%+.2f%%", delta / report.critical_path.makespan_a * 100.0);
      } else {
        out += fmt("%+g s", delta);
      }
      out += " (" + json_number(report.critical_path.makespan_a) + " s -> " +
             json_number(report.critical_path.makespan_b) + " s)";
      const AttributionCell* top = nullptr;
      for (const AttributionCell& cell : report.critical_path.cells) {
        const double d = cell.b_seconds - cell.a_seconds;
        if (!top || std::abs(d) > std::abs(top->b_seconds - top->a_seconds)) top = &cell;
      }
      if (top && top->b_seconds != top->a_seconds) {
        out += fmt(", %.0f%% attributed to %s on rank %u",
                   (top->b_seconds - top->a_seconds) / delta * 100.0,
                   top->phase.c_str(), top->lane);
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
  return report.counts.regressed > 0 || report.counts.removed > 0 ||
         !report.incidents.added.empty() || report.slo_newly_violated > 0;
}

DiffReport diff_runs(const RunInput& a, const RunInput& b, const DiffOptions& options) {
  DiffReport report;
  report.run_a = summarize_run(a);
  report.run_b = summarize_run(b);
  report.tolerances = options.tolerances;

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
    if (find_doc(b, role)) flatten_role(role, doc, series_a);
  }
  for (const auto& [role, doc] : b.docs) {
    if (find_doc(a, role)) flatten_role(role, doc, series_b);
  }
  auto it_a = series_a.begin();
  auto it_b = series_b.begin();
  const auto classify = [&report, &options](const std::string& name, bool has_a,
                                            double va, bool has_b, double vb) {
    ++report.counts.compared;
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
    } else {
      const ToleranceRule* covering = nullptr;
      for (const ToleranceRule& rule : options.tolerances) {
        if (glob_match(rule.glob, name)) covering = &rule;  // last match wins
      }
      const double gap = std::abs(vb - va);
      if (covering &&
          (covering->relative
               ? gap <= covering->bound * std::max(std::abs(va), std::abs(vb))
               : gap <= covering->bound)) {
        delta.cls = DeltaClass::kWithinTolerance;
        delta.tolerance = covering->glob;
        ++report.counts.within_tolerance;
      } else if ((vb < va) == lower_is_better(name)) {
        delta.cls = DeltaClass::kImproved;
        ++report.counts.improved;
      } else {
        delta.cls = DeltaClass::kRegressed;
        ++report.counts.regressed;
      }
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

  report.critical_path = diff_critical_path(find_doc(a, "analysis"), find_doc(b, "analysis"));
  report.kernels = diff_kernels(find_doc(a, "profile"), find_doc(b, "profile"));
  report.incidents = diff_incidents(find_doc(a, "health"), find_doc(b, "health"));
  report.slo = diff_slo(find_doc(a, "slo"), find_doc(b, "slo"));
  report.hostprof = diff_hostprof(find_doc(a, "hostprof"), find_doc(b, "hostprof"));
  for (const SloObjectiveDiff& objective : report.slo.objectives) {
    if (!objective.violated_a && objective.violated_b) ++report.slo_newly_violated;
  }
  report.summary = summary_sentence(report);
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

JsonValue incident_json(const IncidentKey& incident) {
  JsonValue out = JsonValue::object();
  out.set("rule", incident.rule);
  out.set("kind", incident.kind);
  out.set("lane", static_cast<double>(incident.lane));
  out.set("tenant", incident.tenant);
  out.set("fired", incident.fired);
  out.set("cleared", incident.cleared);
  out.set("value", incident.value);
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

  JsonValue tolerances = JsonValue::array();
  for (const ToleranceRule& rule : report.tolerances) {
    JsonValue entry = JsonValue::object();
    entry.set("glob", rule.glob);
    entry.set("mode", rule.relative ? "rel" : "abs");
    entry.set("bound", rule.bound);
    tolerances.push_back(std::move(entry));
  }
  doc.set("tolerances", std::move(tolerances));

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
  counts.set("within_tolerance", static_cast<std::uint64_t>(report.counts.within_tolerance));
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
    if (!delta.tolerance.empty()) entry.set("tolerance", delta.tolerance);
    series.push_back(std::move(entry));
  }
  doc.set("series", std::move(series));

  if (report.critical_path.present) {
    const CriticalPathDiff& cp = report.critical_path;
    const double makespan_delta = cp.makespan_b - cp.makespan_a;
    JsonValue section = JsonValue::object();
    section.set("makespan_a", cp.makespan_a);
    section.set("makespan_b", cp.makespan_b);
    section.set("delta", makespan_delta);
    JsonValue cells = JsonValue::array();
    double attributed = 0.0;
    for (const AttributionCell& cell : cp.cells) {
      const double cell_delta = cell.b_seconds - cell.a_seconds;
      attributed += cell_delta;
      JsonValue entry = JsonValue::object();
      entry.set("phase", cell.phase);
      entry.set("lane", static_cast<double>(cell.lane));
      entry.set("a_seconds", cell.a_seconds);
      entry.set("b_seconds", cell.b_seconds);
      entry.set("delta", cell_delta);
      entry.set("share", makespan_delta != 0.0 ? cell_delta / makespan_delta : 0.0);
      cells.push_back(std::move(entry));
    }
    section.set("cells", std::move(cells));
    // cells + residual == makespan delta, *exactly*: the residual is defined
    // as whatever the tiles do not explain (floating-point dust included).
    section.set("residual", makespan_delta - attributed);
    doc.set("critical_path", std::move(section));
  }

  if (report.kernels.present) {
    const KernelDiff& k = report.kernels;
    JsonValue section = JsonValue::object();
    section.set("launches_a", k.launches_a);
    section.set("launches_b", k.launches_b);
    section.set("seconds_a", k.seconds_a);
    section.set("seconds_b", k.seconds_b);
    section.set("dram_bytes_a", k.dram_bytes_a);
    section.set("dram_bytes_b", k.dram_bytes_b);
    section.set("memory_bound_fraction_a", k.memory_bound_fraction_a);
    section.set("memory_bound_fraction_b", k.memory_bound_fraction_b);
    JsonValue rows = JsonValue::array();
    for (const KernelRowDiff& row : k.rows) {
      JsonValue entry = JsonValue::object();
      entry.set("rank", static_cast<double>(row.rank));
      entry.set("gpu", static_cast<double>(row.gpu));
      entry.set("iteration", static_cast<double>(row.iteration));
      entry.set("launches_a", row.launches_a);
      entry.set("launches_b", row.launches_b);
      entry.set("seconds_a", row.seconds_a);
      entry.set("seconds_b", row.seconds_b);
      entry.set("dram_bytes_a", row.dram_bytes_a);
      entry.set("dram_bytes_b", row.dram_bytes_b);
      entry.set("occupancy_a", row.occupancy_a);
      entry.set("occupancy_b", row.occupancy_b);
      entry.set("intensity_a", row.intensity_a);
      entry.set("intensity_b", row.intensity_b);
      entry.set("memory_bound_a", row.memory_bound_a);
      entry.set("memory_bound_b", row.memory_bound_b);
      rows.push_back(std::move(entry));
    }
    section.set("rows", std::move(rows));
    doc.set("kernels", std::move(section));
  }

  if (report.incidents.present) {
    JsonValue section = JsonValue::object();
    section.set("matched", static_cast<std::uint64_t>(report.incidents.matched));
    JsonValue added = JsonValue::array();
    for (const IncidentKey& incident : report.incidents.added) {
      added.push_back(incident_json(incident));
    }
    section.set("added", std::move(added));
    JsonValue removed = JsonValue::array();
    for (const IncidentKey& incident : report.incidents.removed) {
      removed.push_back(incident_json(incident));
    }
    section.set("removed", std::move(removed));
    doc.set("incidents", std::move(section));
  }

  if (report.slo.present) {
    JsonValue section = JsonValue::object();
    section.set("newly_violated", static_cast<std::uint64_t>(report.slo_newly_violated));
    JsonValue objectives = JsonValue::array();
    for (const SloObjectiveDiff& objective : report.slo.objectives) {
      JsonValue entry = JsonValue::object();
      entry.set("tenant", objective.tenant);
      entry.set("kind", objective.kind);
      entry.set("percentile", objective.percentile);
      entry.set("observed_a", objective.observed_a);
      entry.set("observed_b", objective.observed_b);
      entry.set("attainment_a", objective.attainment_a);
      entry.set("attainment_b", objective.attainment_b);
      entry.set("burn_a", objective.burn_a);
      entry.set("burn_b", objective.burn_b);
      entry.set("violated_a", objective.violated_a);
      entry.set("violated_b", objective.violated_b);
      objectives.push_back(std::move(entry));
    }
    section.set("objectives", std::move(objectives));
    doc.set("slo", std::move(section));
  }

  if (report.hostprof.present) {
    const HostprofDiff& h = report.hostprof;
    JsonValue section = JsonValue::object();
    section.set("wall_a", h.wall_a);
    section.set("wall_b", h.wall_b);
    section.set("eval_a", h.eval_a);
    section.set("eval_b", h.eval_b);
    section.set("tail_idle_a", h.tail_idle_a);
    section.set("tail_idle_b", h.tail_idle_b);
    section.set("combos_per_sec_a", h.combos_per_sec_a);
    section.set("combos_per_sec_b", h.combos_per_sec_b);
    JsonValue phases = JsonValue::array();
    for (const HostprofPhaseDiff& phase : h.phases) {
      JsonValue entry = JsonValue::object();
      entry.set("phase", phase.phase);
      entry.set("max_over_mean_a", phase.max_over_mean_a);
      entry.set("max_over_mean_b", phase.max_over_mean_b);
      entry.set("straggler_lane_a", phase.straggler_lane_a);
      entry.set("straggler_lane_b", phase.straggler_lane_b);
      phases.push_back(std::move(entry));
    }
    section.set("phases", std::move(phases));
    doc.set("hostprof", std::move(section));
  }

  JsonValue verdict = JsonValue::object();
  verdict.set("regression", diff_regression(report));
  verdict.set("regressed_series", static_cast<std::uint64_t>(report.counts.regressed));
  verdict.set("removed_series", static_cast<std::uint64_t>(report.counts.removed));
  verdict.set("incidents_added",
              static_cast<std::uint64_t>(report.incidents.added.size()));
  verdict.set("slo_newly_violated",
              static_cast<std::uint64_t>(report.slo_newly_violated));
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

  if (report.critical_path.present) {
    const CriticalPathDiff& cp = report.critical_path;
    const double delta = cp.makespan_b - cp.makespan_a;
    out += "  critical path: makespan " + json_number(cp.makespan_a) + " s -> " +
           json_number(cp.makespan_b) + " s\n";
    std::vector<const AttributionCell*> moved;
    for (const AttributionCell& cell : cp.cells) {
      if (cell.a_seconds != cell.b_seconds) moved.push_back(&cell);
    }
    std::sort(moved.begin(), moved.end(), [](const AttributionCell* x, const AttributionCell* y) {
      const double dx = std::abs(x->b_seconds - x->a_seconds);
      const double dy = std::abs(y->b_seconds - y->a_seconds);
      if (dx != dy) return dx > dy;
      if (x->phase != y->phase) return x->phase < y->phase;
      return x->lane < y->lane;
    });
    constexpr std::size_t kMaxCells = 5;
    for (std::size_t i = 0; i < moved.size() && i < kMaxCells; ++i) {
      const AttributionCell& cell = *moved[i];
      const double cell_delta = cell.b_seconds - cell.a_seconds;
      out += fmt("    %s rank %u: %+g s", cell.phase.c_str(), cell.lane, cell_delta);
      if (delta != 0.0) out += fmt(" (%.0f%% of makespan delta)", cell_delta / delta * 100.0);
      out += "\n";
    }
  }

  if (report.kernels.present &&
      (report.kernels.seconds_a != report.kernels.seconds_b ||
       !report.kernels.rows.empty())) {
    out += fmt("  kernels: %g launches, %s s -> %s s, %zu row(s) moved\n",
               report.kernels.launches_b, json_number(report.kernels.seconds_a).c_str(),
               json_number(report.kernels.seconds_b).c_str(), report.kernels.rows.size());
  }
  if (report.incidents.present) {
    out += fmt("  incidents: %u matched, %zu added, %zu removed\n",
               report.incidents.matched, report.incidents.added.size(),
               report.incidents.removed.size());
    for (const IncidentKey& incident : report.incidents.added) {
      out += fmt("    added %s (%s) lane %u at %s s\n", incident.rule.c_str(),
                 incident.kind.c_str(), incident.lane, json_number(incident.fired).c_str());
    }
  }
  if (report.slo.present) {
    out += fmt("  slo: %zu objective(s) compared, %u newly violated\n",
               report.slo.objectives.size(), report.slo_newly_violated);
  }
  if (report.hostprof.present) {
    out += "  hostprof wall: " + json_number(report.hostprof.wall_a) + " s -> " +
           json_number(report.hostprof.wall_b) + " s (informational)\n";
  }
  return out;
}

}  // namespace multihit::obs
