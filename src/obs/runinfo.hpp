#pragma once
// Per-invocation run manifests (multihit.run.v1).
//
// The paper's scaling claims are statements about *differences between
// runs* — more GPUs, a different scheduler, MemOpt on or off — so a run
// needs an identity before two of them can be compared. A manifest is that
// identity: which driver ran, under what configuration (gpus, scheme,
// scheduler, seeds, bitops backend, host threads, fault plan), and an
// inventory of every artifact the invocation emitted, each carrying its
// schema tag and a deterministic content digest. `brca_scaleout` and
// `multihit-serve` write one alongside their existing `--*-out` artifacts
// (--manifest-out, or implicitly via --artifacts-dir), and `obstool diff`
// consumes a pair of them to build a multihit.diff.v1 regression report. A
// manifest inventories only what the run wrote, its metrics snapshot and its
// Chrome trace; the trace analysis is a view the diff derives from the trace
// on load, not an artifact of its own.
//
// Determinism contract: config values are strings (no double formatting to
// drift), artifacts are sorted by name, digests are FNV-1a over the exact
// bytes on disk, and manifest_json/manifest_from_json round-trip
// byte-identically like every other obs artifact.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace multihit::obs {

/// Raised on malformed manifests and unreadable artifact files.
class RuninfoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// 64-bit FNV-1a over `bytes`, rendered as 16 lowercase hex digits. Not
/// cryptographic — it only has to make "these two files differ" cheap and
/// deterministic across platforms.
std::string content_digest(std::string_view bytes);

/// One emitted artifact: its role name ("metrics", "trace"), the
/// path it was written to (relative paths resolve against the manifest's
/// own directory, which keeps --artifacts-dir run directories relocatable),
/// its schema tag, and the digest/size of the bytes on disk.
struct RunArtifact {
  std::string name;
  std::string path;
  std::string schema;
  std::string digest;
  std::uint64_t bytes = 0;
};

/// A driver invocation: who ran, with what knobs, emitting which files.
struct RunManifest {
  std::string driver;
  /// Sorted key/value configuration pairs; values are pre-rendered strings.
  std::vector<std::pair<std::string, std::string>> config;
  /// Sorted by artifact name.
  std::vector<RunArtifact> artifacts;
};

/// Appends a config entry, keeping `config` sorted by key.
void set_config(RunManifest& manifest, std::string key, std::string value);

/// Reads `path` back, digests it, and appends an inventory entry under
/// `name`/`schema`, keeping `artifacts` sorted by name. Throws RuninfoError
/// when the file cannot be read — an artifact the driver claims to have
/// written but cannot re-open is a bug worth failing on.
void add_artifact_from_file(RunManifest& manifest, std::string name,
                            std::string schema, const std::string& path);

/// Renders the multihit.run.v1 document (stable field order; identical
/// manifests produce byte-identical documents).
JsonValue manifest_json(const RunManifest& manifest);

/// Parses a multihit.run.v1 document back; throws RuninfoError on the wrong
/// schema (naming expected and found) or ill-shaped entries. Round-trip
/// through manifest_json is byte-identical.
RunManifest manifest_from_json(const JsonValue& doc);

/// Serializes manifest_json to `path` (trailing newline, like every other
/// artifact writer). Returns false when the file cannot be opened.
bool write_manifest(const RunManifest& manifest, const std::string& path);

/// The path to record in a manifest at `manifest_path` for an artifact at
/// `artifact_path`: relative when the artifact lives under the manifest's
/// directory (so --artifacts-dir run directories stay relocatable),
/// absolute otherwise (so stray cwd-relative --*-out paths still resolve).
std::string manifest_artifact_path(const std::string& artifact_path,
                                   const std::string& manifest_path);

}  // namespace multihit::obs
