// jigbench: the end-to-end benchmark of record (bench/e2e/README.md).
//
// It measures the whole path a capture takes through the library — .jigt
// bytes on disk or on the wire → decode → bootstrap → unify + k-way merge
// → analysis bus → durable output log — over four workloads, and checks
// every output against a reference computed when the inputs were made.
//
//   bench_e2e gen --seed S --cache DIR [--only main|fleet]
//       Simulates the inputs for seed S into DIR (skipped when present).
//   bench_e2e run WORKLOAD --cache DIR --work DIR --seconds R [--trace FILE]
//       One repetition in a fresh process; prints one JSON object.
//
// bench/e2e/run.py drives this binary.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "jigbench.h"

namespace {

using jigbench::fs::path;

std::string Arg(const std::vector<std::string>& args, const std::string& flag,
                const std::string& fallback = "") {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e gen --seed S --cache DIR [--only main|fleet]\n"
               "       bench_e2e run offline|live|fleet|distributed --cache DIR"
               " --work DIR --seconds R [--trace FILE]\n");
  return 2;
}

int Run(const std::string& workload, const path& cache, const path& work,
        double seconds, const path& trace_path) {
  using namespace jigbench;
  if (seconds <= 0) return Usage();
  if (workload != "offline" && workload != "live" && workload != "fleet" &&
      workload != "distributed") {
    return Usage();
  }
  Tracer tracer(!trace_path.empty());
  Report report;
  fs::remove_all(work);
  fs::create_directories(work);
  {
    Span run(tracer, "run", 0);
    if (workload == "fleet") {
      std::vector<Capture> fleet;
      for (int k = 0; k < kFleetCaptures; ++k) {
        fleet.push_back(LoadCapture(cache / "fleet" / FleetName(k),
                                    "fleet-" + FleetName(k)));
      }
      Captures caps;
      for (const Capture& c : fleet) caps.push_back(&c);
      RunService(caps, /*live=*/false, seconds, work, tracer, run.id(),
                 report);
    } else if (workload == "live") {
      const Capture live = LoadCapture(cache / "main" / "live", "live");
      RunService({&live}, /*live=*/true, seconds, work, tracer, run.id(),
                 report);
    } else {
      const Capture main = LoadCapture(cache / "main", "main");
      if (workload == "offline") {
        RunOffline(main, seconds, work, tracer, run.id(), report);
      } else {
        RunDistributed(main, seconds, work, tracer, run.id(), report);
      }
    }
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  if (tracer.on()) {
    tracer.Write(trace_path, workload + "-" + std::to_string(getpid()));
  }
  std::printf("%s\n", report.Json(workload, tracer).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  try {
    if (args[0] == "gen") {
      const std::string seed = Arg(args, "--seed");
      const std::string cache = Arg(args, "--cache");
      if (seed.empty() || cache.empty()) return Usage();
      jigbench::Generate(std::stoull(seed), cache, Arg(args, "--only"));
      return 0;
    }
    if (args[0] == "run" && args.size() >= 2) {
      const std::string cache = Arg(args, "--cache");
      const std::string work = Arg(args, "--work");
      if (cache.empty() || work.empty()) return Usage();
      return Run(args[1], cache, work, std::stod(Arg(args, "--seconds", "10")),
                 Arg(args, "--trace"));
    }
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 3;
  }
}
