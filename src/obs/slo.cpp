#include "obs/slo.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"

namespace multihit::obs {

const char* slo_kind_name(SloKind kind) noexcept {
  switch (kind) {
    case SloKind::kLatency:
      return "latency";
    case SloKind::kAdmission:
      return "admission";
    case SloKind::kBudget:
      return "budget";
  }
  return "?";
}

std::vector<SloObjective> parse_slo(std::string_view text) {
  std::vector<SloObjective> spec;
  std::istringstream lines{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const auto fail = [&](const std::string& what) {
      throw SloError("slo line " + std::to_string(line_no) + ": " + what);
    };
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::vector<std::string> tok;
    for (std::string w; words >> w;) tok.push_back(w);
    if (tok.empty()) continue;
    if (tok[0] != "slo" || tok.size() < 4) {
      fail("expected: slo TENANT latency|admission|budget ...");
    }
    const auto parse_num = [&](const std::string& word) {
      char* end = nullptr;
      const double v = std::strtod(word.c_str(), &end);
      if (end != word.c_str() + word.size() || !std::isfinite(v)) {
        fail("expected a number, got '" + word + "'");
      }
      return v;
    };
    SloObjective o;
    o.tenant = tok[1];
    const std::string& kind = tok[2];
    if (kind == "latency") {
      if (tok.size() != 6 || tok[4] != "below") {
        fail("expected: slo TENANT latency pP below SECONDS");
      }
      o.kind = SloKind::kLatency;
      if (tok[3].size() < 2 || tok[3][0] != 'p') {
        fail("expected a percentile like p99, got '" + tok[3] + "'");
      }
      o.percentile = parse_num(tok[3].substr(1));
      if (!(o.percentile > 0.0) || o.percentile > 100.0) {
        fail("percentile must be in (0, 100]");
      }
      o.target = parse_num(tok[5]);
      if (!(o.target > 0.0)) fail("latency target must be positive");
    } else if (kind == "admission") {
      if (tok.size() != 5 || tok[3] != "above") {
        fail("expected: slo TENANT admission above FRACTION");
      }
      o.kind = SloKind::kAdmission;
      o.target = parse_num(tok[4]);
      if (!(o.target > 0.0) || o.target > 1.0) fail("admission target must be in (0, 1]");
    } else if (kind == "budget") {
      if ((tok.size() != 6 && tok.size() != 8) || tok[4] != "window") {
        fail("expected: slo TENANT budget FRACTION window SECONDS [fast SECONDS]");
      }
      o.kind = SloKind::kBudget;
      o.target = parse_num(tok[3]);
      if (!(o.target > 0.0) || o.target >= 1.0) fail("budget must be in (0, 1)");
      o.window = parse_num(tok[5]);
      if (!(o.window > 0.0)) fail("window must be positive");
      if (tok.size() == 8) {
        if (tok[6] != "fast") fail("expected 'fast', got '" + tok[6] + "'");
        o.fast_window = parse_num(tok[7]);
        if (!(o.fast_window > 0.0) || o.fast_window >= o.window) {
          fail("fast window must be positive and below the slow window");
        }
      } else {
        o.fast_window = o.window / 12.0;  // the SRE 1h/5m ratio
      }
    } else {
      fail("unknown objective kind '" + kind + "'");
    }
    spec.push_back(std::move(o));
  }
  return spec;
}

double latency_target(const std::vector<SloObjective>& spec, std::string_view tenant) {
  double target = std::numeric_limits<double>::infinity();
  for (const SloObjective& o : spec) {
    if (o.kind != SloKind::kLatency) continue;
    if (o.tenant != "*" && o.tenant != tenant) continue;
    target = std::min(target, o.target);
  }
  return target;
}

std::string series_with_labels(std::string_view base, SeriesLabels labels) {
  const auto bad = [&](const std::string& what) {
    throw SloError("series '" + std::string(base) + "': " + what);
  };
  if (base.empty()) bad("empty base name");
  if (base.find_first_of("{},=") != std::string_view::npos) {
    bad("base name may not contain '{', '}', ',' or '='");
  }
  if (labels.empty()) return std::string(base);
  std::sort(labels.begin(), labels.end());
  std::string out{base};
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto& [key, value] = labels[i];
    if (key.empty() || value.empty()) bad("labels need nonempty keys and values");
    if ((key + value).find_first_of("{},=") != std::string::npos) {
      bad("label keys and values may not contain '{', '}', ',' or '='");
    }
    if (i > 0) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  out += '}';
  return out;
}

std::pair<std::string, SeriesLabels> split_series_labels(std::string_view name) {
  const auto bad = [&](const std::string& what) {
    throw SloError("malformed series selector '" + std::string(name) + "': " + what);
  };
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    if (name.empty()) bad("empty series name");
    if (name.find_first_of("},=") != std::string_view::npos) {
      bad("unlabeled series may not contain '}', ',' or '='");
    }
    return {std::string(name), {}};
  }
  if (brace == 0) bad("empty base name before '{'");
  if (name.back() != '}') bad("missing closing '}'");
  const std::string base{name.substr(0, brace)};
  if (base.find_first_of("},=") != std::string::npos) bad("stray '}', ',' or '=' in base");
  SeriesLabels labels;
  std::string_view body = name.substr(brace + 1, name.size() - brace - 2);
  if (body.empty()) bad("empty label list");
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    const std::string_view pair =
        comma == std::string_view::npos ? body : body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{} : body.substr(comma + 1);
    if (comma != std::string_view::npos && body.empty()) bad("trailing ','");
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) bad("label '" + std::string(pair) + "' needs key=value");
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (key.empty() || value.empty()) {
      bad("label '" + std::string(pair) + "' needs a nonempty key and value");
    }
    if (value.find('=') != std::string_view::npos) {
      bad("label '" + std::string(pair) + "' has a stray '='");
    }
    labels.emplace_back(std::string(key), std::string(value));
  }
  std::sort(labels.begin(), labels.end());
  return {base, std::move(labels)};
}

std::string series_tenant(std::string_view name) {
  if (name.find('{') == std::string_view::npos) return {};
  const auto [base, labels] = split_series_labels(name);
  (void)base;
  for (const auto& [key, value] : labels) {
    if (key == "tenant") return value;
  }
  return {};
}

namespace {

[[noreturn]] void job_error(const TraceEvent& ev, const std::string& what) {
  throw SloError(event_label(ev) + ": " + what);
}

const std::string& job_arg(const TraceEvent& ev, const char* key) {
  const std::string* value = find_arg(ev, key);
  if (!value) job_error(ev, std::string("no ") + key + " arg");
  return *value;
}

/// A time arg: the whole text one finite number.
double job_seconds(const TraceEvent& ev, const char* key) {
  const std::string& text = job_arg(ev, key);
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) {
    job_error(ev, std::string(key) + " '" + text + "' is not a finite number");
  }
  return value;
}

}  // namespace

SloInput slo_input_from_trace(const Tracer& trace) {
  std::vector<std::pair<std::uint32_t, const TraceEvent*>> by_id;
  for (const TraceEvent& ev : trace.events()) {
    if (!ev.instant || ev.category != "serve" || ev.name != "job") continue;
    const std::optional<std::uint32_t> id = u32_arg<SloError>(ev, "id");
    if (!id) job_error(ev, "no id arg");
    by_id.emplace_back(*id, &ev);
  }
  if (by_id.empty()) throw SloError("trace holds no serve job instants");
  std::stable_sort(by_id.begin(), by_id.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  SloInput input;
  input.jobs.reserve(by_id.size());
  for (std::uint32_t index = 0; index < by_id.size(); ++index) {
    const auto [id, ev] = by_id[index];
    if (id < index) job_error(*ev, "repeats job id " + std::to_string(id));
    if (id > index) throw SloError("trace has no job instant with id " + std::to_string(index));
    SloJob job;
    job.tenant = job_arg(*ev, "tenant");
    const std::string& outcome = job_arg(*ev, "outcome");
    if (outcome != "completed" && outcome != "rejected_queue_full" &&
        outcome != "rejected_quota") {
      job_error(*ev, "outcome '" + outcome +
                         "' is not completed, rejected_queue_full or rejected_quota");
    }
    job.rejected = outcome != "completed";
    const std::string& cache_hit = job_arg(*ev, "cache_hit");
    if (cache_hit != "true" && cache_hit != "false") {
      job_error(*ev, "cache_hit '" + cache_hit + "' is not true or false");
    }
    job.cache_hit = cache_hit == "true";
    job.arrival = job_seconds(*ev, "arrival");
    job.finish = job_seconds(*ev, "finish");
    if (!job.rejected) job.latency = job.finish - job.arrival;
    input.jobs.push_back(std::move(job));
  }
  return input;
}

namespace {

/// One resolved request on the budget timeline: rejected requests resolve at
/// arrival (the shed decision), completed ones at finish.
struct BudgetEvent {
  double at = 0.0;
  bool bad = false;
};

/// Worst trailing-window bad fraction over budget, across every event time.
/// `events` must be sorted by time.
double max_burn(const std::vector<BudgetEvent>& events, double window, double budget) {
  double worst = 0.0;
  std::size_t lo = 0;
  std::uint32_t bad = 0;
  for (std::size_t hi = 0; hi < events.size(); ++hi) {
    if (events[hi].bad) ++bad;
    while (events[lo].at < events[hi].at - window) {
      if (events[lo].bad) --bad;
      ++lo;
    }
    const double frac = static_cast<double>(bad) / static_cast<double>(hi - lo + 1);
    worst = std::max(worst, frac / budget);
  }
  return worst;
}

}  // namespace

SloReport evaluate_slo(const SloInput& input, const std::vector<SloObjective>& spec) {
  SloReport report;

  std::set<std::string> tenant_names;
  for (const SloJob& job : input.jobs) tenant_names.insert(job.tenant);
  for (const SloObjective& o : spec) {
    if (o.tenant != "*") tenant_names.insert(o.tenant);
  }

  for (const std::string& name : tenant_names) {
    SloTenantReport tenant;
    tenant.tenant = name;
    const double target = latency_target(spec, name);
    Histogram latencies;
    std::vector<BudgetEvent> events;
    for (const SloJob& job : input.jobs) {
      if (job.tenant != name) continue;
      BudgetEvent ev;
      if (job.rejected) {
        ++tenant.rejected;
        ev.at = job.arrival;
        ev.bad = true;
      } else {
        ++tenant.completed;
        if (job.cache_hit) ++tenant.cache_hits;
        latencies.observe(job.latency);
        ev.at = job.finish;
        ev.bad = job.latency > target;
      }
      if (ev.bad) ++tenant.bad;
      events.push_back(ev);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const BudgetEvent& a, const BudgetEvent& b) { return a.at < b.at; });
    const auto total = static_cast<std::uint32_t>(events.size());

    for (std::uint32_t index = 0; index < spec.size(); ++index) {
      const SloObjective& o = spec[index];
      if (o.tenant != "*" && o.tenant != name) continue;
      SloObjectiveResult res;
      res.objective = o;
      res.objective.tenant = name;
      res.index = index;
      switch (o.kind) {
        case SloKind::kLatency: {
          res.observed = latencies.percentile(o.percentile);
          std::uint32_t met = 0;
          for (const SloJob& job : input.jobs) {
            if (job.tenant == name && !job.rejected && job.latency <= o.target) ++met;
          }
          res.attainment = tenant.completed > 0
                               ? static_cast<double>(met) / static_cast<double>(tenant.completed)
                               : 1.0;
          res.violated = tenant.completed > 0 && res.observed > o.target;
          break;
        }
        case SloKind::kAdmission: {
          res.observed = total > 0 ? static_cast<double>(tenant.completed) /
                                         static_cast<double>(total)
                                   : 1.0;
          res.attainment = res.observed;
          res.violated = res.observed < o.target;
          break;
        }
        case SloKind::kBudget: {
          res.observed = total > 0 ? (static_cast<double>(tenant.bad) /
                                      static_cast<double>(total)) /
                                         o.target
                                   : 0.0;
          res.attainment = std::clamp(1.0 - res.observed, 0.0, 1.0);
          res.max_slow_burn = max_burn(events, o.window, o.target);
          res.max_fast_burn = max_burn(events, o.fast_window, o.target);
          res.violated = res.observed > 1.0;
          report.worst_burn =
              std::max({report.worst_burn, res.max_fast_burn, res.max_slow_burn});
          break;
        }
      }
      if (o.kind == SloKind::kLatency && o.percentile == 99.0) {
        report.worst_p99_attainment = std::min(report.worst_p99_attainment, res.attainment);
      }
      ++report.objectives;
      if (res.violated) ++report.violated;
      tenant.objectives.push_back(std::move(res));
    }
    report.tenants.push_back(std::move(tenant));
  }
  return report;
}

void record_slo(const SloReport& report, MetricsRegistry& metrics) {
  metrics.counter("slo.objectives").add(report.objectives);
  Counter& total = metrics.counter("slo.violated");
  for (const SloTenantReport& tenant : report.tenants) {
    for (const SloObjectiveResult& res : tenant.objectives) {
      const Labels labels{{"objective", std::to_string(res.index)},
                          {"kind", slo_kind_name(res.objective.kind)},
                          {"tenant", tenant.tenant}};
      metrics.gauge("slo.observed", labels).set(res.observed);
      metrics.gauge("slo.attainment", labels).set(res.attainment);
      metrics.counter("slo.violated", labels).add(res.violated ? 1.0 : 0.0);
      if (res.objective.kind == SloKind::kBudget) {
        metrics.gauge("slo.fast_burn", labels).set(res.max_fast_burn);
        metrics.gauge("slo.slow_burn", labels).set(res.max_slow_burn);
      }
      if (res.violated) total.add();
    }
  }
}

std::string slo_text(const SloReport& report, bool summary_only) {
  std::string out = "multihit serve SLO\n";
  out += "  tenants " + std::to_string(report.tenants.size()) + ", objectives " +
         std::to_string(report.objectives) + " (" + std::to_string(report.violated) +
         " violated)\n";
  out += "  worst burn " + json_number(report.worst_burn) + "x budget, worst p99 attainment " +
         json_number(report.worst_p99_attainment) + "\n";
  if (summary_only) return out;
  for (const SloTenantReport& tenant : report.tenants) {
    out += "  tenant " + tenant.tenant + ": completed " + std::to_string(tenant.completed) +
           ", rejected " + std::to_string(tenant.rejected) + ", cache hits " +
           std::to_string(tenant.cache_hits) + ", bad " + std::to_string(tenant.bad) + "\n";
    for (const SloObjectiveResult& res : tenant.objectives) {
      const SloObjective& o = res.objective;
      out += res.violated ? "    [VIOLATED] " : "    [ok] ";
      switch (o.kind) {
        case SloKind::kLatency:
          out += "latency p" + json_number(o.percentile) + " below " + json_number(o.target) +
                 " s: observed " + json_number(res.observed) + " s, attainment " +
                 json_number(res.attainment);
          break;
        case SloKind::kAdmission:
          out += "admission above " + json_number(o.target) + ": observed " +
                 json_number(res.observed);
          break;
        case SloKind::kBudget:
          out += "budget " + json_number(o.target) + " over " + json_number(o.window) +
                 " s (fast " + json_number(o.fast_window) + " s): consumed " +
                 json_number(res.observed) + "x, burn fast " + json_number(res.max_fast_burn) +
                 "x / slow " + json_number(res.max_slow_burn) + "x";
          break;
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace multihit::obs
