#include "core/checkpoint.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace multihit {

namespace {

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("malformed checkpoint: " + why);
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

// Like kMaxGenes/kMaxSamples (bitmat/bitmatrix.hpp), a cap a corrupted
// header cannot exceed before the checksum check would catch it.
constexpr std::uint32_t kMaxHits = 64;

}  // namespace

void write_checkpoint(std::ostream& out, const CheckpointState& state) {
  // F values must survive the round trip bit-exactly (resume comparisons and
  // the deterministic tie-break depend on them).
  std::ostringstream payload;
  payload << std::setprecision(17);
  payload << "hits " << state.hits << '\n';
  payload << "bit-splicing " << (state.bit_splicing ? 1 : 0) << '\n';
  payload << "uncovered " << state.progress.uncovered_tumor << '\n';
  payload << "iterations " << state.progress.iterations.size() << '\n';
  for (const IterationRecord& it : state.progress.iterations) {
    payload << "iter " << it.f << ' ' << it.tp << ' ' << it.tn << ' '
            << it.tumor_remaining_before << ' ' << it.tumor_remaining_after;
    for (const std::uint32_t g : it.genes) payload << ' ' << g;
    payload << '\n';
  }
  payload << "tumor " << state.tumor.genes() << ' ' << state.tumor.samples() << '\n';
  for (std::uint32_t g = 0; g < state.tumor.genes(); ++g) {
    for (std::uint32_t s = 0; s < state.tumor.samples(); ++s) {
      if (state.tumor.get(g, s)) payload << "b " << g << ' ' << s << '\n';
    }
  }
  const std::string body = payload.str();
  out << "multihit-checkpoint v2\n" << body;
  out << "checksum " << std::hex << fnv1a(kFnvOffset, body) << std::dec << '\n';
  out << "end\n";
  if (!out) throw std::ios_base::failure("error writing checkpoint");
}

CheckpointState read_checkpoint(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) fail("empty stream");
  if (line != "multihit-checkpoint v2") {
    if (line.rfind("multihit-checkpoint", 0) == 0) {
      fail("unsupported checkpoint version: '" + line + "'");
    }
    fail("bad magic line");
  }

  // Every payload line feeds the running checksum; the `checksum` trailer
  // closes the payload, so truncation and any byte corruption are caught.
  std::uint64_t hash = kFnvOffset;
  bool saw_checksum = false;
  auto next_payload_line = [&](const char* context) {
    if (!std::getline(in, line)) fail(std::string("truncated ") + context);
    if (line.rfind("checksum ", 0) == 0) {
      saw_checksum = true;
      return false;
    }
    hash = fnv1a(hash, line);
    hash = fnv1a(hash, "\n");
    return true;
  };
  auto expect = [&](const std::string& key) -> std::istringstream {
    if (!next_payload_line("header")) fail("header cut short at '" + key + "'");
    if (line.rfind(key + " ", 0) != 0) fail("expected '" + key + "', got '" + line + "'");
    return std::istringstream(line.substr(key.size() + 1));
  };
  auto expect_value = [&](const std::string& key, auto& value) {
    std::istringstream tokens = expect(key);
    if (!(tokens >> value)) fail("unreadable value for '" + key + "'");
    std::string junk;
    if (tokens >> junk) fail("trailing junk after '" + key + "'");
  };

  CheckpointState state;
  expect_value("hits", state.hits);
  if (state.hits == 0 || state.hits > kMaxHits) fail("hits out of range");
  int splice = 1;
  expect_value("bit-splicing", splice);
  if (splice != 0 && splice != 1) fail("bit-splicing must be 0 or 1");
  state.bit_splicing = splice != 0;
  expect_value("uncovered", state.progress.uncovered_tumor);
  std::uint64_t iteration_count = 0;
  expect_value("iterations", iteration_count);
  if (iteration_count > kMaxSamples) fail("iteration count out of range");

  for (std::uint64_t i = 0; i < iteration_count; ++i) {
    if (!next_payload_line("iteration list")) fail("iteration list cut short");
    std::istringstream tokens(line);
    std::string tag;
    IterationRecord record;
    if (!(tokens >> tag >> record.f >> record.tp >> record.tn >>
          record.tumor_remaining_before >> record.tumor_remaining_after) ||
        tag != "iter") {
      fail("bad iteration line: " + line);
    }
    std::uint32_t gene = 0;
    while (tokens >> gene) record.genes.push_back(gene);
    if (!tokens.eof()) fail("non-numeric gene id in: " + line);
    if (record.genes.size() != state.hits) fail("iteration gene count mismatch");
    state.progress.iterations.push_back(std::move(record));
  }

  std::uint32_t genes = 0, samples = 0;
  {
    std::istringstream tokens = expect("tumor");
    if (!(tokens >> genes >> samples)) fail("unreadable tumor dimensions");
    std::string junk;
    if (tokens >> junk) fail("trailing junk after 'tumor'");
  }
  if (genes > kMaxGenes || samples > kMaxSamples) fail("tumor dimensions out of range");
  if (matrix_words(genes, samples) > kMaxMatrixWords) fail("tumor matrix too large");
  state.tumor = BitMatrix(genes, samples);
  while (next_payload_line("bit list")) {
    if (line.empty()) continue;
    std::istringstream tokens(line);
    char tag = 0;
    std::uint32_t g = 0, s = 0;
    if (!(tokens >> tag >> g >> s) || tag != 'b') fail("bad bit line: " + line);
    std::string junk;
    if (tokens >> junk) fail("trailing junk in bit line: " + line);
    if (g >= genes || s >= samples) fail("bit out of range");
    state.tumor.set(g, s);
  }

  if (!saw_checksum) fail("missing checksum");
  std::uint64_t recorded = 0;
  {
    std::istringstream tokens(line.substr(std::string("checksum ").size()));
    if (!(tokens >> std::hex >> recorded)) fail("unreadable checksum");
  }
  if (recorded != hash) fail("checksum mismatch (corrupted or truncated stream)");
  if (!std::getline(in, line) || line != "end") fail("missing 'end' marker");
  // getline sets eofbit when the stream ran out before the delimiter: an
  // "end" with no trailing newline is a truncated final line, not a clean
  // close.
  if (in.eof()) fail("missing newline after 'end' marker");
  return state;
}

void save_checkpoint(const std::string& path, const CheckpointState& state) {
  std::ofstream out(path);
  if (!out) throw std::ios_base::failure("cannot open for write: " + path);
  write_checkpoint(out, state);
}

CheckpointState load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::ios_base::failure("cannot open for read: " + path);
  return read_checkpoint(in);
}

}  // namespace multihit
