#pragma once
// Machine-readable benchmark records: the repo's perf trajectory.
//
// Each bench target builds a BenchReporter, records its headline series
// (modeled times, efficiencies, overheads) as `bench.<key>{unit}` gauges of
// the embedded metrics registry, and writes BENCH_<name>.json next to the
// binary (or into $MULTIHIT_BENCH_DIR). The record is the registry's
// multihit.metrics.v1 snapshot, nothing more: scripts/bench_compare.py
// takes the bench name from the file name and diffs the `bench.*` gauges
// against the committed baselines in bench/baselines/ — every future perf
// PR gets its before/after numbers from this file, not from eyeballing
// ASCII tables. Other series in the registry (raw wall clock, say) ride
// along for drill-down and are not gated.

#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace multihit::obs {

class BenchReporter {
 public:
  explicit BenchReporter(std::string_view bench_name);

  /// The registry backing this record; instrument freely, everything lands
  /// in the written file.
  MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Records one headline series point as gauge `bench.<key>`, labelled
  /// {unit} when a unit is given.
  void series(std::string_view key, double value, std::string_view unit = "");

  /// The complete record document: the registry's snapshot.
  JsonValue record() const { return metrics_.snapshot(); }

  /// Output path: $MULTIHIT_BENCH_DIR/BENCH_<name>.json (directory defaults
  /// to the current working directory).
  std::string path() const;

  /// Writes record() to path(); returns false (and logs a warning) on I/O
  /// failure — bench binaries still print their tables either way.
  bool write() const;

 private:
  std::string name_;
  MetricsRegistry metrics_;
};

}  // namespace multihit::obs
