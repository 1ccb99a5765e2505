// Shared scaffolding for the figure/table reproduction harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation on a simulated deployment.  Absolute counts are smaller (the
// paper's trace is 24 hours of a production building; benches default to
// tens of simulated seconds so the suite runs in seconds) — the *shape* of
// each result is the reproduction target, and EXPERIMENTS.md records the
// paper-vs-measured comparison.  Pass `--seconds N` / `--clients N` /
// `--seed N` to scale any bench up.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "jigsaw/link.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/tcp_reconstruct.h"
#include "sim/scenario.h"

namespace jig::bench {

struct BenchArgs {
  Micros seconds = Seconds(30);
  int clients = 48;
  std::uint64_t seed = 2006;  // SIGCOMM 2006

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const auto next_val = [&]() -> long {
        return i + 1 < argc ? std::atol(argv[++i]) : 0;
      };
      if (std::strcmp(argv[i], "--seconds") == 0) {
        args.seconds = Seconds(next_val());
      } else if (std::strcmp(argv[i], "--clients") == 0) {
        args.clients = static_cast<int>(next_val());
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        args.seed = static_cast<std::uint64_t>(next_val());
      }
    }
    return args;
  }

  ScenarioConfig ToConfig() const {
    ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.duration = seconds;
    cfg.clients = clients;
    return cfg;
  }
};

struct MergedRun {
  MergeResult merge;
  LinkReconstruction link;
  TransportReconstruction transport;
  std::size_t radio_count = 0;
};

// Runs the scenario and the full reconstruction pipeline.  The figure
// harnesses re-render the whole jframe vector, so this is the batch path:
// MergeTraces collects the stream, then link and transport reconstruction
// run over it (byte-identical to the bus's streaming LinkConsumer, pinned
// by tests/bus_test.cc).
inline MergedRun RunAndReconstruct(Scenario& scenario) {
  scenario.Run();
  auto traces = scenario.TakeTraces();
  MergedRun run;
  run.radio_count = traces.size();
  run.merge = MergeTraces(traces);
  run.link = ReconstructLink(run.merge.jframes);
  run.transport = ReconstructTransport(run.merge.jframes, run.link);
  return run;
}

inline void PrintHeader(const char* figure, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("  paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

inline void PrintCdf(const Distribution& d, const char* x_label,
                     int points = 20) {
  std::printf("  %-14s  CDF\n", x_label);
  for (const auto& [x, q] : d.CdfSeries(points)) {
    std::printf("  %12.4f  %5.1f%%\n", x, q * 100.0);
  }
}

}  // namespace jig::bench
