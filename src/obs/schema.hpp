#pragma once
// One registry for every artifact schema tag the observability layer emits.
//
// Every JSON artifact written by this project carries a top-level
// `"schema": "multihit.<kind>.v1"` tag so offline tools can refuse the wrong
// file with a useful message instead of mis-parsing it. The constants are
// collected here so the full artifact surface is visible in one place and
// parsers share one mismatch-error shape that names both the expected and
// the found schema. Every numeric artifact without a format of its own (the
// trace analysis, the bench records, a served run's numbers) is a
// multihit.metrics.v1 snapshot, and every per-event record (a served job, an
// injected fault) an instant in the Chrome trace.

#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace multihit::obs {

/// MetricsRegistry::snapshot() documents: --metrics-out, the trace analysis
/// (obstool analyze --report-out) and the bench records (BENCH_*.json).
inline constexpr std::string_view kMetricsSchema = "multihit.metrics.v1";
/// Per-invocation run manifests (--manifest-out / --artifacts-dir): the
/// driver's configuration plus a digest inventory of every emitted artifact.
inline constexpr std::string_view kRunSchema = "multihit.run.v1";
/// Cross-run regression reports (obstool diff --report-out).
inline constexpr std::string_view kDiffSchema = "multihit.diff.v1";

/// Chrome trace-event files (--trace-out) carry no top-level "schema" key —
/// the format is Chrome's, not ours — so run manifests inventory them under
/// this pseudo-tag. Never appears inside a document.
inline constexpr std::string_view kChromeTraceTag = "chrome.trace";

/// One row of the schema registry: the tag and the short artifact kind the
/// diff engine keys its loaders and series prefixes on.
struct SchemaEntry {
  std::string_view tag;
  std::string_view kind;
};

/// Every artifact schema this repository emits, in one table. The diff
/// engine resolves loaders through this registry; adding an artifact kind
/// means adding a row here, not teaching another tool a new string.
inline constexpr SchemaEntry kSchemaRegistry[] = {
    {kMetricsSchema, "metrics"},
    {kRunSchema, "run"},
    {kDiffSchema, "diff"},
    {kChromeTraceTag, "trace"},
};

/// Short kind for a schema tag ("" when the tag is not in the registry).
constexpr std::string_view schema_kind(std::string_view tag) noexcept {
  for (const SchemaEntry& entry : kSchemaRegistry) {
    if (entry.tag == tag) return entry.kind;
  }
  return {};
}

/// Schema tag for a registered artifact kind ("" when unknown).
constexpr std::string_view schema_for_kind(std::string_view kind) noexcept {
  for (const SchemaEntry& entry : kSchemaRegistry) {
    if (entry.kind == kind) return entry.tag;
  }
  return {};
}

/// The top-level "schema" tag of a parsed document; Chrome trace files
/// (top-level "traceEvents", no tag) report kChromeTraceTag, anything else
/// without a string tag reports "".
inline std::string_view document_schema(const JsonValue& doc) {
  if (!doc.is_object()) return {};
  if (const JsonValue* schema = doc.find("schema");
      schema && schema->is_string()) {
    return schema->as_string();
  }
  if (doc.find("traceEvents")) return kChromeTraceTag;
  return {};
}

/// Validates `doc`'s top-level "schema" tag and throws `Error` on mismatch
/// with a message naming both the expected and the found schema — the found
/// half is what turns "is not a trace" into "you handed me the metrics
/// file". Returns the typed field view the reader takes every other field
/// through, failing with the same `Error` and `what` prefix.
template <typename Error>
JsonFields require_schema(const JsonValue& doc, std::string_view expected,
                          std::string_view what) {
  const JsonValue* schema = doc.is_object() ? doc.find("schema") : nullptr;
  if (schema && schema->is_string() && schema->as_string() == expected) {
    return JsonFields::root<Error>(doc, what);
  }
  std::string found = "(missing)";
  if (schema) found = schema->is_string() ? "\"" + schema->as_string() + "\"" : "(non-string)";
  throw Error(std::string(what) + ": expected schema \"" + std::string(expected) +
              "\", found " + found);
}

}  // namespace multihit::obs
