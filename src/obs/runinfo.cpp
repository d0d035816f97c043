#include "obs/runinfo.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/schema.hpp"

namespace multihit::obs {

std::string content_digest(std::string_view bytes) {
  // FNV-1a, 64-bit: deterministic, endian-free, and cheap enough to run on
  // every artifact at manifest-write time.
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

void set_config(RunManifest& manifest, std::string key, std::string value) {
  auto pos = std::lower_bound(
      manifest.config.begin(), manifest.config.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (pos != manifest.config.end() && pos->first == key) {
    pos->second = std::move(value);
    return;
  }
  manifest.config.insert(pos, {std::move(key), std::move(value)});
}

void add_artifact_from_file(RunManifest& manifest, std::string name,
                            std::string schema, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw RuninfoError("runinfo: cannot read artifact \"" + path + "\"");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  RunArtifact artifact;
  artifact.name = std::move(name);
  artifact.path = path;
  artifact.schema = std::move(schema);
  artifact.digest = content_digest(bytes);
  artifact.bytes = bytes.size();
  auto pos = std::lower_bound(
      manifest.artifacts.begin(), manifest.artifacts.end(), artifact.name,
      [](const RunArtifact& a, const std::string& n) { return a.name < n; });
  manifest.artifacts.insert(pos, std::move(artifact));
}

JsonValue manifest_json(const RunManifest& manifest) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kRunSchema);
  doc.set("driver", manifest.driver);
  JsonValue config = JsonValue::object();
  for (const auto& [key, value] : manifest.config) config.set(key, value);
  doc.set("config", std::move(config));
  JsonValue artifacts = JsonValue::array();
  for (const RunArtifact& artifact : manifest.artifacts) {
    JsonValue entry = JsonValue::object();
    entry.set("name", artifact.name);
    entry.set("schema", artifact.schema);
    entry.set("path", artifact.path);
    entry.set("bytes", artifact.bytes);
    entry.set("digest", artifact.digest);
    artifacts.push_back(std::move(entry));
  }
  doc.set("artifacts", std::move(artifacts));
  return doc;
}

RunManifest manifest_from_json(const JsonValue& doc) {
  const JsonFields root = require_schema<RuninfoError>(doc, kRunSchema, "run manifest");
  RunManifest manifest;
  manifest.driver = root.string("driver");
  manifest.config = root.object("config").strings();
  for (const JsonFields& entry : root.array("artifacts").objects()) {
    RunArtifact artifact;
    artifact.name = entry.string("name");
    artifact.schema = entry.string("schema");
    artifact.path = entry.string("path");
    artifact.bytes = entry.u64("bytes");
    artifact.digest = entry.string("digest");
    manifest.artifacts.push_back(std::move(artifact));
  }
  return manifest;
}

std::string manifest_artifact_path(const std::string& artifact_path,
                                   const std::string& manifest_path) {
  namespace fs = std::filesystem;
  const fs::path artifact = fs::absolute(artifact_path).lexically_normal();
  const fs::path dir = fs::absolute(manifest_path).lexically_normal().parent_path();
  const fs::path relative = artifact.lexically_relative(dir);
  if (!relative.empty() && relative.native().rfind("..", 0) != 0) {
    return relative.string();
  }
  return artifact.string();
}

bool write_manifest(const RunManifest& manifest, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << manifest_json(manifest).dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace multihit::obs
