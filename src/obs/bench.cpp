#include "obs/bench.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/log.hpp"

namespace multihit::obs {

BenchReporter::BenchReporter(std::string_view bench_name) : name_(bench_name) {
  if (name_.empty()) throw std::invalid_argument("bench name must be non-empty");
}

void BenchReporter::series(std::string_view key, double value, std::string_view unit) {
  metrics_.gauge("bench." + std::string(key),
                 unit.empty() ? Labels{} : Labels{{"unit", std::string(unit)}})
      .set(value);
}

std::string BenchReporter::path() const {
  const char* dir = std::getenv("MULTIHIT_BENCH_DIR");
  std::string out = (dir && *dir) ? dir : ".";
  if (out.back() != '/') out += '/';
  return out + "BENCH_" + name_ + ".json";
}

bool BenchReporter::write() const {
  const std::string file = path();
  std::ofstream out(file);
  if (out) out << record().dump() << '\n';
  if (!out) {
    MH_LOG_WARN << "bench record not written: " << file;
    return false;
  }
  log::emit_event(log::Level::kDebug, "bench.record",
                  {log::field("bench", name_), log::field("path", file)});
  return true;
}

}  // namespace multihit::obs
