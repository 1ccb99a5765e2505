// Interference study: find the hidden terminals hurting your WLAN.
//
// The paper's Section 7.2 argument in miniature: only a *global* viewpoint
// can correlate "this transmission died" with "someone else was talking at
// the same instant".  This example runs a congested scenario, estimates the
// conditional interference probability P_i per (sender, receiver) pair, and
// prints the worst-suffering links — the output a network operator would
// act on (relocate an AP, change a channel).
//
// Usage: ./build/examples/interference_study [seconds]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/pipeline.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace jig;
  const Micros duration = Seconds(argc > 1 ? std::atol(argv[1]) : 45);

  ScenarioConfig config;
  config.seed = 3;
  config.duration = duration;
  config.clients = 48;
  config.workload.web_per_min = 4.0;   // busy network: contention everywhere
  config.workload.scp_per_min = 0.4;
  Scenario scenario(config);
  scenario.Run();
  auto traces = scenario.TakeTraces();

  // Single pass: parallel channel-sharded merge feeding the analysis bus.
  // The estimator rides the windowed link reconstructor — overlap flags and
  // pair counters update incrementally, so no jframe vector is ever
  // buffered (peak memory is bounded by the 500 ms exchange timeout).
  InterferenceConfig icfg;
  icfg.min_packets = 25;
  AnalysisBus bus;
  auto& link = bus.Emplace<LinkConsumer>();
  auto& interference = bus.Emplace<InterferenceConsumer>(link, icfg);
  MergeConfig mcfg;
  mcfg.threads = 0;  // auto: one worker per channel shard
  MergeTracesStreaming(traces, mcfg, bus.Sink());
  bus.Finish();
  const InterferenceReport& report = interference.report();

  std::printf("analyzed %zu (s,r) pairs with >=%u transmissions "
              "(peak window: %zu of %llu jframes)\n",
              report.pairs.size(), icfg.min_packets,
              bus.peak_retained_jframes(),
              static_cast<unsigned long long>(bus.jframes_seen()));
  std::printf("background loss rate (no contention): %.3f\n",
              report.mean_background_loss);
  std::printf("pairs with measurable interference:  %.1f%%\n\n",
              100.0 * report.fraction_pairs_interfered);

  // The pairs an operator should look at first: highest interference loss.
  auto pairs = report.pairs;
  std::sort(pairs.begin(), pairs.end(),
            [](const PairInterference& a, const PairInterference& b) {
              return a.X() > b.X();
            });
  std::printf("worst links by interference loss rate X:\n");
  std::printf("  %-20s %-20s %6s %6s %7s %7s %7s\n", "sender", "receiver",
              "n", "nx", "bg", "Pi", "X");
  for (std::size_t i = 0; i < pairs.size() && i < 10; ++i) {
    const auto& p = pairs[i];
    std::printf("  %-20s %-20s %6u %6u %7.3f %7.3f %7.3f%s\n",
                p.sender.ToString().c_str(), p.receiver.ToString().c_str(),
                p.n, p.nx, p.BackgroundLossRate(), p.Pi(), p.X(),
                p.sender.IsApTag() ? "  (AP sender)" : "");
  }

  // Cross-check against simulator ground truth: of the transmissions the
  // medium flagged as interfered, how many died?
  std::uint64_t interfered = 0, interfered_lost = 0;
  for (const auto& e : scenario.truth().entries()) {
    if (e.type != FrameType::kData || !e.receiver.IsUnicast()) continue;
    if (e.interfered) {
      ++interfered;
      if (!e.delivered_ok) ++interfered_lost;
    }
  }
  std::printf("\nground truth: %llu DATA transmissions overlapped another; "
              "%.1f%% of those were lost\n",
              static_cast<unsigned long long>(interfered),
              interfered ? 100.0 * interfered_lost / interfered : 0.0);
  return 0;
}
