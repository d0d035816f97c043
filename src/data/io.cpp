#include "data/io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace multihit {

void write_dataset(std::ostream& out, const Dataset& data) {
  out << "multihit-dataset v1\n";
  out << "name " << data.name << '\n';
  out << "genes " << data.genes() << '\n';
  out << "tumor-samples " << data.tumor_samples() << '\n';
  out << "normal-samples " << data.normal_samples() << '\n';
  out << "planted " << data.planted.size() << '\n';
  for (const auto& combo : data.planted) {
    out << "combo";
    for (std::uint32_t g : combo) out << ' ' << g;
    out << '\n';
  }
  for (std::uint32_t g = 0; g < data.genes(); ++g) {
    for (std::uint32_t s = 0; s < data.tumor_samples(); ++s) {
      if (data.tumor.get(g, s)) out << "t " << g << ' ' << s << '\n';
    }
  }
  for (std::uint32_t g = 0; g < data.genes(); ++g) {
    for (std::uint32_t s = 0; s < data.normal_samples(); ++s) {
      if (data.normal.get(g, s)) out << "n " << g << ' ' << s << '\n';
    }
  }
  out << "end\n";
  if (!out) throw std::ios_base::failure("error writing dataset");
}

Dataset read_dataset(std::istream& in) {
  auto fail = [](const std::string& why) -> Dataset {
    throw std::runtime_error("malformed dataset: " + why);
  };

  std::string line;
  if (!std::getline(in, line) || line != "multihit-dataset v1") {
    return fail("bad magic line");
  }

  Dataset data;
  std::uint32_t genes = 0, tumor_samples = 0, normal_samples = 0;
  std::size_t planted_count = 0;

  auto expect_kv = [&](const std::string& key) -> std::string {
    if (!std::getline(in, line)) fail("truncated header");
    if (line.rfind(key + " ", 0) != 0) fail("expected '" + key + "', got '" + line + "'");
    return line.substr(key.size() + 1);
  };

  // Decimal digits only, in u32 range: stoul would throw its own exception
  // types, accept "-1" as 2^64 - 1 and let a cast wrap 2^32 + 1 to 1.
  auto expect_u32 = [&](const std::string& key) -> std::uint32_t {
    const std::string text = expect_kv(key);
    const char* const end = text.data() + text.size();
    std::uint32_t value = 0;
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end) fail("'" + key + "' is not a u32: '" + text + "'");
    return value;
  };

  data.name = expect_kv("name");
  genes = expect_u32("genes");
  tumor_samples = expect_u32("tumor-samples");
  normal_samples = expect_u32("normal-samples");
  planted_count = expect_u32("planted");
  if (genes > kMaxGenes) fail("genes " + std::to_string(genes) + " out of range");
  if (tumor_samples > kMaxSamples || normal_samples > kMaxSamples) {
    fail("sample count out of range");
  }

  data.tumor = BitMatrix(genes, tumor_samples);
  data.normal = BitMatrix(genes, normal_samples);

  for (std::size_t c = 0; c < planted_count; ++c) {
    if (!std::getline(in, line)) fail("truncated planted section");
    std::istringstream tokens(line);
    std::string tag;
    tokens >> tag;
    if (tag != "combo") fail("expected combo line");
    std::vector<std::uint32_t> combo;
    std::uint32_t gene;
    while (tokens >> gene) {
      if (gene >= genes) fail("planted gene out of range");
      combo.push_back(gene);
    }
    data.planted.push_back(std::move(combo));
  }

  while (std::getline(in, line)) {
    if (line == "end") return data;
    if (line.empty()) continue;
    std::istringstream tokens(line);
    char tag = 0;
    std::uint32_t gene = 0, sample = 0;
    if (!(tokens >> tag >> gene >> sample)) fail("bad sparse line: " + line);
    if (gene >= genes) fail("gene out of range in sparse line");
    if (tag == 't') {
      if (sample >= tumor_samples) fail("tumor sample out of range");
      data.tumor.set(gene, sample);
    } else if (tag == 'n') {
      if (sample >= normal_samples) fail("normal sample out of range");
      data.normal.set(gene, sample);
    } else {
      fail("unknown sparse tag");
    }
  }
  return fail("missing 'end' marker");
}

void save_dataset(const std::string& path, const Dataset& data) {
  std::ofstream out(path);
  if (!out) throw std::ios_base::failure("cannot open for write: " + path);
  write_dataset(out, data);
}

Dataset load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::ios_base::failure("cannot open for read: " + path);
  return read_dataset(in);
}

}  // namespace multihit
