// Bit-kernel microbenchmark: combinations/sec per bitops backend.
//
// Times the two dispatched kernels the enumeration runs (and_popcount over
// two rows, and_rows) for every *supported* backend at paper-relevant row
// lengths:
//
//   w=4    (256 samples  — small cohorts)
//   w=15   (911 tumor samples = the paper's BRCA row, 960 bits)
//   w=64   (4096 samples — one full Harley-Seal block)
//   w=257  (16448 samples — block + vector tail + word tail)
//
// Timing is hand-rolled steady_clock over a calibrated repetition count: no
// google-benchmark, so the binary stays dependency-light and the BENCH
// record schema stays ours. Wall-clock throughput is machine-dependent and
// therefore lands ONLY in the metrics section (gauges) for drill-down; the
// strict-gated `series` list carries deterministic booleans:
//
//   identity_all_backends   every backend × op × length bit-identical to
//                           scalar on adversarial + random patterns
//   avx2_supported          CPU has AVX2+BMI2 (informational, committed as 1
//                           because CI runs on AVX2 hosts)
//   speedup_and2_w15_ge2    AVX2 ≥ 2x scalar on 2-row AND+popcount, w=15
//   speedup_and2_w64_ge2    same at w=64
//
// A checksum accumulator feeds every timed call so the optimizer cannot
// dead-code the kernels.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bitmat/bitops.hpp"
#include "obs/bench.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using multihit::BitopsBackend;
using Clock = std::chrono::steady_clock;

std::vector<std::uint64_t> random_row(std::size_t words, std::uint64_t seed) {
  multihit::Rng rng(seed);
  std::vector<std::uint64_t> row(words);
  for (auto& w : row) {
    w = (static_cast<std::uint64_t>(rng.uniform(1u << 16)) << 48) ^
        (static_cast<std::uint64_t>(rng.uniform(1u << 16)) << 32) ^
        (static_cast<std::uint64_t>(rng.uniform(1u << 16)) << 16) ^
        static_cast<std::uint64_t>(rng.uniform(1u << 16));
  }
  return row;
}

struct Op {
  const char* name;
  // Runs the op once through the backend's *direct* entry points — the
  // per-call dispatch cost (one relaxed atomic load) is identical for both
  // backends, so excluding it measures kernel throughput, not harness
  // overhead. Returns a value to fold into the checksum.
  std::uint64_t (*run)(bool avx2, const std::vector<std::uint64_t>& a,
                       const std::vector<std::uint64_t>& b, std::vector<std::uint64_t>& out);
};

namespace sc = multihit::bitops_scalar;
namespace av = multihit::bitops_avx2;

const Op kOps[] = {
    {"and2", [](bool avx2, const auto& a, const auto& b, auto&) {
       return avx2 ? av::and_popcount2(a, b) : sc::and_popcount2(a, b);
     }},
    {"and_rows", [](bool avx2, const auto& a, const auto& b, auto& out) {
       if (avx2) {
         av::and_rows(out, a, b);
       } else {
         sc::and_rows(out, a, b);
       }
       return out.empty() ? std::uint64_t{0} : out[0];
     }},
};

/// Calls/sec for scalar ([0]) and AVX2 ([1]) at one row length. The two
/// backends are timed in alternation (5 interleaved rounds, best rate kept
/// per backend) so slow drift — frequency scaling, a noisy neighbour on the
/// core — hits both sides rather than biasing the ratio.
void measure(const Op& op, std::size_t words, bool avx2_ok, std::uint64_t* checksum,
             double rates[2]) {
  const auto a = random_row(words, 101 + words);
  const auto b = random_row(words, 211 + words);
  std::vector<std::uint64_t> out(words);

  const auto timed = [&](bool avx2, std::uint64_t reps) {
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) *checksum += op.run(avx2, a, b, out) + r;
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Calibrate on the scalar side: grow reps until the timed region clears
  // ~10 ms, then reuse the same rep count for both backends.
  std::uint64_t reps = 256;
  while (timed(false, reps) < 0.01 && reps < (1ull << 30)) reps *= 4;

  rates[0] = rates[1] = 0.0;
  for (int round = 0; round < 5; ++round) {
    for (int bi = 0; bi < 2; ++bi) {
      if (bi == 1 && !avx2_ok) continue;
      const double sec = timed(bi == 1, reps);
      if (sec > 0.0) rates[bi] = std::max(rates[bi], static_cast<double>(reps) / sec);
    }
  }
}

bool identity_check(std::size_t words, std::uint64_t seed) {
  const auto a = random_row(words, seed);
  const auto b = random_row(words, seed + 1);
  std::vector<std::uint64_t> out_s(words), out_v(words);
  sc::and_rows(out_s, a, b);
  av::and_rows(out_v, a, b);
  return sc::and_popcount2(a, b) == av::and_popcount2(a, b) && out_s == out_v;
}

}  // namespace

int main() {
  using namespace multihit;
  std::cout << "Bit-kernel throughput by backend (dispatched via MULTIHIT_BITOPS).\n";

  obs::BenchReporter bench("bench_bitops");
  const bool avx2_ok = backend_supported(BitopsBackend::kAvx2);
  bench.series("avx2_supported", avx2_ok ? 1.0 : 0.0);

  // Differential identity across lengths covering every tail path.
  bool identical = true;
  for (const std::size_t words : {0, 1, 3, 4, 15, 63, 64, 65, 128, 256, 257}) {
    identical = identical && identity_check(words, 9000 + words);
  }
  bench.series("identity_all_backends", identical ? 1.0 : 0.0);
  std::cout << "  differential identity (all ops, 11 lengths): "
            << (identical ? "PASS" : "FAIL") << "\n"
            << "  avx2+bmi2 supported: " << (avx2_ok ? "yes" : "no") << "\n\n";

  const std::size_t kLengths[] = {4, 15, 64, 257};

  Table table({"op", "words", "scalar calls/s", "avx2 calls/s", "speedup"});
  table.set_precision(3);
  std::uint64_t checksum = 0;
  double speedup_and2_w15 = 0.0, speedup_and2_w64 = 0.0;

  for (const Op& op : kOps) {
    for (const std::size_t words : kLengths) {
      double rates[2] = {0.0, 0.0};
      measure(op, words, avx2_ok, &checksum, rates);
      for (int bi = 0; bi < 2; ++bi) {
        const std::string key = std::string(op.name) + ".w" + std::to_string(words) + "." +
                                (bi == 0 ? "scalar" : "avx2");
        bench.metrics().gauge("bitops.calls_per_sec", {{"series", key}}).set(rates[bi]);
      }
      const double speedup = rates[0] > 0.0 && rates[1] > 0.0 ? rates[1] / rates[0] : 0.0;
      if (std::string(op.name) == "and2" && words == 15) speedup_and2_w15 = speedup;
      if (std::string(op.name) == "and2" && words == 64) speedup_and2_w64 = speedup;
      table.add_row({std::string(op.name), static_cast<long long>(words), rates[0], rates[1],
                     speedup});
    }
  }
  table.print(std::cout);

  bench.series("speedup_and2_w15_ge2", (!avx2_ok || speedup_and2_w15 >= 2.0) ? 1.0 : 0.0);
  bench.series("speedup_and2_w64_ge2", (!avx2_ok || speedup_and2_w64 >= 2.0) ? 1.0 : 0.0);
  bench.metrics().gauge("bitops.speedup_and2_w15").set(speedup_and2_w15);
  bench.metrics().gauge("bitops.speedup_and2_w64").set(speedup_and2_w64);
  bench.write();

  std::cout << "\nand2 speedup: " << speedup_and2_w15 << "x at w=15 (paper BRCA row), "
            << speedup_and2_w64 << "x at w=64 (gate: >= 2x when AVX2 is available)\n"
            << "[checksum " << (checksum & 0xff) << "]\n";

  const bool gates =
      identical && (!avx2_ok || (speedup_and2_w15 >= 2.0 && speedup_and2_w64 >= 2.0));
  if (!gates) std::cout << "GATE FAILURE: identity or speedup threshold not met.\n";
  return gates ? 0 : 1;
}
