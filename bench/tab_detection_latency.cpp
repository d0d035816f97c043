// Detection-latency table (no paper analogue — operational extension).
//
// For each injected fault class, run the functional cluster pipeline with a
// recorder attached, replay the Chrome trace through the health monitor
// (src/obs/monitor.hpp), score the incidents against the injected ground
// truth, and tabulate per-class detection latency in simulated seconds.
// Everything runs on the simulated clock, so the series are deterministic
// and the committed baseline in bench/baselines/ is a hard regression gate:
// a detector that silently loses recall or gains latency shows up as a
// series diff, not as a flaky wall-clock number.
//
// The monitor itself is a pure replay of the trace — it adds zero modeled
// seconds to the run (the differential test in tests/test_monitor.cpp pins
// this), which the `monitor_overhead_s` series records explicitly.

#include <iostream>
#include <string>
#include <vector>

#include "cluster/distributed.hpp"
#include "core/engine.hpp"
#include "data/generator.hpp"
#include "fault/injector.hpp"
#include "obs/analyze.hpp"
#include "obs/bench.hpp"
#include "obs/monitor.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main() {
  using namespace multihit;
  log::set_level(log::Level::kWarn);
  std::cout << "Health-monitor detection latency (obs layer, src/obs/monitor).\n";

  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = 4;
  spec.num_combinations = 3;
  spec.background_rate = 0.015;
  spec.seed = 4242;
  const Dataset data = generate_dataset(spec);

  SummitConfig summit;
  summit.nodes = 3;
  const ClusterRunner runner(summit);

  struct Case {
    std::string name;
    std::string key;    ///< stable BENCH series suffix
    std::string truth;  ///< truth-event kind this case injects
    FaultPlan plan;
    std::uint32_t checkpoint_every = 0;
  };
  std::vector<Case> cases;
  cases.push_back({"rank crash (r1@i1, 50%)", "crash", "crash",
                   {{{FaultKind::kRankCrash, 1, 1, 0.5, 1}}}, 0});
  cases.push_back({"straggler x3 (r2@i1, 2 iters)", "straggler", "straggler",
                   {{{FaultKind::kStraggler, 2, 1, 3.0, 2}}}, 0});
  cases.push_back({"message drops (r2@i1, 2 lost)", "drop", "drop",
                   {{{FaultKind::kMessageDrop, 2, 1, 0.0, 2}}}, 0});
  cases.push_back({"job abort (@i2, ckpt every iter)", "abort", "abort",
                   {{{FaultKind::kJobAbort, 0, 2, 0.0, 1}}}, 1});

  constexpr double kDetectionWindow = 0.25;  ///< scoring window (sim s)

  Table table({"fault class", "injected", "detected", "latency mean s",
               "latency max s", "false pos", "verdict"});
  table.set_precision(4);

  obs::BenchReporter bench("tab_detection_latency");
  bool all_perfect = true;
  for (const Case& c : cases) {
    DistributedOptions options;
    options.faults = c.plan;
    options.checkpoint_every = c.checkpoint_every;
    obs::Recorder recorder;
    options.recorder = &recorder;
    runner.run(data, options);

    // Monitor the microsecond-rounded Chrome replay — exactly what an
    // offline `multihit-obstool monitor` invocation would see.
    const obs::Tracer replay = obs::tracer_from_chrome(
        obs::JsonValue::parse(recorder.trace.to_chrome_json()));
    const obs::HealthReport health = obs::monitor_trace(replay);
    // Ground truth: the injector's fault instants in the in-memory trace,
    // at their exact simulated times.
    const std::vector<obs::TruthEvent> truth = obs::truth_from_trace(recorder.trace);
    const obs::HealthScore score =
        obs::score_incidents(health, truth, kDetectionWindow);

    const obs::ClassScore& cls = score.by_class.at(c.truth);
    const bool perfect = score.perfect();
    all_perfect = all_perfect && perfect;

    bench.series("latency_mean_s." + c.key, cls.latency_mean, "s");
    bench.series("latency_max_s." + c.key, cls.latency_max, "s");
    bench.series("detected." + c.key, static_cast<double>(cls.detected));
    bench.series("injected." + c.key, static_cast<double>(cls.injected));
    bench.series("false_positives." + c.key,
                 static_cast<double>(score.false_positives));
    bench.series("incidents." + c.key,
                 static_cast<double>(health.incidents.size()));

    table.add_row({c.name, static_cast<long long>(cls.injected),
                   static_cast<long long>(cls.detected), cls.latency_mean,
                   cls.latency_max, static_cast<long long>(score.false_positives),
                   std::string(perfect ? "perfect" : "IMPERFECT")});
  }

  // Fault-free control: the monitor must stay silent, and because it is a
  // pure replay its modeled-time overhead is zero by construction.
  {
    obs::Recorder recorder;
    DistributedOptions options;
    options.recorder = &recorder;
    const ClusterRunResult with = runner.run(data, options);
    const ClusterRunResult without = runner.run(data, {});
    const obs::Tracer replay = obs::tracer_from_chrome(
        obs::JsonValue::parse(recorder.trace.to_chrome_json()));
    const obs::HealthReport health = obs::monitor_trace(replay);
    bench.series("fault_free_incidents", static_cast<double>(health.incidents.size()));
    bench.series("monitor_overhead_s", with.total_time - without.total_time, "s");
    all_perfect = all_perfect && health.incidents.empty() &&
                  with.total_time == without.total_time;
    table.add_row({"fault-free control", 0LL, 0LL, 0.0, 0.0,
                   static_cast<long long>(health.incidents.size()),
                   std::string(health.incidents.empty() ? "silent" : "NOISY")});
  }
  bench.series("all_perfect", all_perfect ? 1.0 : 0.0);
  bench.write();

  table.print(std::cout);
  std::cout << (all_perfect
                    ? "Every class detected within the window, zero false "
                      "positives, zero overhead.\n"
                    : "DETECTION GATE FAILED: see verdict column.\n")
            << "Latencies are simulated seconds from injection instant to "
               "incident fire;\nthe monitor samples every 5 ms of simulated "
               "time, so sub-15 ms latency means\ndetection within three "
               "sample boundaries of the fault landing.\n";
  return all_perfect ? 0 : 1;
}
