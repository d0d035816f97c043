#pragma once
// The observability context threaded through a run.
//
// One Recorder bundles the metrics registry and the span tracer for a single
// run. Layers accept a nullable `Recorder*`: a null pointer means
// observability is off and instrumented code must behave bit-identically to
// uninstrumented code (the differential test in tests/test_obs.cpp enforces
// it) — instrumentation reads simulated clocks, it never advances them.

#include <fstream>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace multihit::obs {

struct Recorder {
  MetricsRegistry metrics;
  Tracer trace;

  /// Writes the metrics snapshot JSON; returns false on I/O failure.
  bool write_metrics(std::string_view path) const {
    std::ofstream out{std::string(path)};
    if (!out) return false;
    out << metrics.to_json() << '\n';
    return static_cast<bool>(out);
  }

  /// Writes the Chrome trace-event JSON; returns false on I/O failure.
  bool write_trace(std::string_view path) const {
    std::ofstream out{std::string(path)};
    if (!out) return false;
    out << trace.to_chrome_json() << '\n';
    return static_cast<bool>(out);
  }
};

}  // namespace multihit::obs
