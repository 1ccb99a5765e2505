// jigbench gen: simulates the inputs with Scenario, writes them as .jigt
// files and records the reference from a threads=1 batch merge of those
// files.  Untimed, and cached per seed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "jigbench.h"
#include "jigsaw/pipeline.h"
#include "sim/scenario.h"
#include "trace/trace_file.h"

namespace jigbench {
namespace {

// Bump when gen's output changes, so stale caches are rebuilt.
constexpr char kGenVersion[] = "jigbench-gen-4";

// The main capture: the paper's full deployment shape (39 pods, 156
// radios), simulated for kMainDuration and cut at one instant of NTP time
// so that it keeps kMainRecords records.  Every seed then carries the same
// amount of work, and run-to-run spread measures the system, not the seed.
constexpr jig::Micros kMainDuration = jig::Seconds(300);
constexpr int kMainClients = 60;
constexpr std::size_t kMainRecords = 1'800'000;
// The fleet: many small deployments (kFleetCaptures of them).
constexpr int kFleetPods = 4;
constexpr int kFleetClients = 12;
constexpr jig::Micros kFleetDuration = jig::Seconds(80);

// The live workload replays the main simulation with one change of
// schedule.  The main capture simulates one near-silent radio on every
// seed (radio 2: no AP on its channel in range), and an open loop cannot
// emit past a radio's published frontier, so that radio's gaps alone set
// live freshness.  On seeds 1-10 it recorded 6-406 records with longest
// gaps of 21-77 s, and the wait it imposed on a replay (for each 100 ms of
// capture: time until every radio had published past it) had a p50 of
// 2.4-22.5 s, median over the seeds 8.9 s.  Replayed as simulated, live
// freshness would differ fivefold between seeds and measure where the
// seed put the silences.  So the live capture leaves out every radio with
// a gap over kSilentGap (gen logs each one) and holds the watermark with
// one *regular* sparse radio instead: the first dense radio, complete for
// its first kSparseFull (so bootstrap syncs it), then thinned to one
// record per kSparseGap.  A regular gap G gives a p50 wait of G/2, so
// G = 2 x 8.9 s reproduces the measured median wait on every seed.  Its
// hold also engages the spill tier.  The batch workloads and the fleet
// keep every radio as simulated.
constexpr jig::Micros kSilentGap = jig::Seconds(5);
constexpr jig::Micros kSparseFull = jig::Seconds(2);
constexpr jig::Micros kSparseGap = jig::Seconds(18);
// Cold starts (setup_s) run over this much of every radio's capture.
constexpr jig::Micros kPrefix = jig::Seconds(4);

jig::Micros LongestGap(const std::vector<jig::CaptureRecord>& recs) {
  jig::Micros gap = recs.size() < 2 ? kSilentGap + 1 : 0;
  for (std::size_t i = 1; i < recs.size(); ++i) {
    gap = std::max(gap, recs[i].timestamp - recs[i - 1].timestamp);
  }
  return gap;
}

// The records a radio contributes: all of them, or the sparse schedule.
std::vector<const jig::CaptureRecord*> Select(
    const std::vector<jig::CaptureRecord>& recs, bool sparse) {
  std::vector<const jig::CaptureRecord*> out;
  if (recs.empty()) return out;
  const jig::LocalMicros first = recs.front().timestamp;
  jig::LocalMicros next_sparse = first + kSparseFull;
  for (const jig::CaptureRecord& rec : recs) {
    if (sparse && rec.timestamp >= first + kSparseFull) {
      if (rec.timestamp < next_sparse) continue;
      next_sparse = first + kSparseFull +
                    ((rec.timestamp - first - kSparseFull) / kSparseGap + 1) *
                        kSparseGap;
    }
    out.push_back(&rec);
  }
  return out;
}

// Writes simulated traces as r<radio>.jigt files, plus the kPrefix-long
// cold-start copy: every radio as simulated, or (`live`) on the live
// workload's schedule.  With `keep` set, every radio is cut at the NTP
// instant before which the capture holds `keep` records.
void WriteCapture(const jig::TraceSet& raw, std::uint64_t seed, bool live,
                  std::size_t keep, const fs::path& out) {
  struct Radio {
    const jig::MemoryTrace* trace;
    std::vector<const jig::CaptureRecord*> records;
  };
  std::vector<Radio> radios;
  bool need_sparse = live;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto& mem = dynamic_cast<const jig::MemoryTrace&>(raw.at(i));
    const jig::Micros gap = LongestGap(mem.records());
    if (live && gap > kSilentGap) {
      std::fprintf(stderr,
                   "gen: seed %llu: live capture leaves out near-silent "
                   "radio %u (%zu records, longest gap %.1f s)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned>(mem.header().radio),
                   mem.records().size(), static_cast<double>(gap) * 1e-6);
      continue;
    }
    radios.push_back({&mem, Select(mem.records(), need_sparse)});
    need_sparse = false;
  }
  std::int64_t cut = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> utc;
  for (const Radio& r : radios) {
    for (const jig::CaptureRecord* rec : r.records) {
      utc.push_back(rec->timestamp +
                    r.trace->header().ntp_utc_of_local_zero_us);
    }
  }
  if (utc.size() > keep) {
    const auto nth = utc.begin() + static_cast<std::ptrdiff_t>(keep);
    std::nth_element(utc.begin(), nth, utc.end());
    cut = utc[keep];
  }
  fs::create_directories(out / "traces");
  fs::create_directories(out / "prefix");
  for (const Radio& r : radios) {
    const jig::TraceHeader& header = r.trace->header();
    // += rather than a "literal" + to_string chain: gcc 12 -Wrestrict.
    std::string name = "r";
    name += std::to_string(header.radio);
    name += ".jigt";
    jig::TraceFileWriter full(out / "traces" / name, header);
    jig::TraceFileWriter prefix(out / "prefix" / name, header);
    const jig::LocalMicros first =
        r.records.empty() ? 0 : r.records.front()->timestamp;
    for (const jig::CaptureRecord* rec : r.records) {
      if (rec->timestamp + header.ntp_utc_of_local_zero_us >= cut) break;
      full.Append(*rec);
      if (rec->timestamp < first + kPrefix) prefix.Append(*rec);
    }
    full.Finish();
    prefix.Finish();
  }
}

// Pacing offsets: bootstrap's for synced traces; an unsynced trace is
// paced on its NTP estimate, moved onto the universal epoch by the median
// (offset - NTP) of the synced ones.
std::vector<std::int64_t> PacingOffsets(const jig::BootstrapResult& boot,
                                        const std::vector<std::int64_t>& ntp) {
  std::vector<double> shift;
  for (std::size_t i = 0; i < ntp.size(); ++i) {
    if (boot.synced[i]) {
      shift.push_back(boot.offset_us[i] - static_cast<double>(ntp[i]));
    }
  }
  const double c = Median(shift);
  std::vector<std::int64_t> out(ntp.size());
  for (std::size_t i = 0; i < ntp.size(); ++i) {
    out[i] = std::llround(boot.synced[i] ? boot.offset_us[i]
                                         : static_cast<double>(ntp[i]) + c);
  }
  return out;
}

Reference ComputeReference(const fs::path& traces_dir) {
  jig::TraceSet traces = jig::TraceSet::OpenDirectory(traces_dir);
  std::vector<std::int64_t> ntp;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    ntp.push_back(traces.at(i).header().ntp_utc_of_local_zero_us);
  }
  AnalysisChain chain;
  Reference ref;
  Digest digest;
  jig::MergeConfig config;
  config.threads = 1;
  jig::MergeStreamStats stats;
  {
    jig::MergeSession session(traces, config, [&](JFrame&& jf) {
      ref.jframe_crc.push_back(digest.Add(jf));
      chain.bus.OnJFrame(std::move(jf));
    });
    stats = session.Drain();
  }
  chain.bus.Finish();
  ref.link = chain.link.stats();
  ref.events = stats.stats.events_in;
  ref.jframes = ref.jframe_crc.size();
  ref.stream_crc = digest.stream();
  ref.offset_us = PacingOffsets(stats.bootstrap, ntp);
  return ref;
}

// Simulates `config` and writes it as the capture `out`; with `live_out`,
// also as the live workload's capture, on a second thread.
void GenCapture(const jig::ScenarioConfig& config, std::size_t keep,
                const fs::path& out, const fs::path& live_out = {}) {
  jig::Scenario scenario(config);
  scenario.Run();
  const jig::TraceSet raw = scenario.TakeTraces();
  const auto write = [&](bool live, const fs::path& dir) {
    WriteCapture(raw, config.seed, live, keep, dir);
    SaveReference(dir, ComputeReference(dir / "traces"));
  };
  if (live_out.empty()) {
    write(/*live=*/false, out);
    return;
  }
  fs::create_directories(live_out);
  std::exception_ptr live_error;
  {
    std::jthread live([&] {
      try {
        write(/*live=*/true, live_out);
      } catch (...) {
        live_error = std::current_exception();
      }
    });
    write(/*live=*/false, out);
  }
  if (live_error) std::rethrow_exception(live_error);
}

bool CacheValid(const fs::path& dir) {
  std::ifstream in(dir / "VERSION");
  std::string version;
  return in >> version && version == kGenVersion;
}

// Builds `dir` under a temporary name and renames it into place, so an
// interrupted gen never leaves a cache that looks complete.
void GenAtomically(const fs::path& dir,
                   const std::function<void(const fs::path&)>& build) {
  if (CacheValid(dir)) return;
  const fs::path tmp = dir.string() + ".tmp-" + std::to_string(getpid());
  fs::remove_all(tmp);
  build(tmp);
  std::ofstream(tmp / "VERSION") << kGenVersion << '\n';
  fs::remove_all(dir);
  fs::rename(tmp, dir);
}

std::uint64_t FleetSeed(std::uint64_t seed, int k) {
  return seed * 1000 + 1 + static_cast<std::uint64_t>(k);
}

}  // namespace

void Generate(std::uint64_t seed, const fs::path& cache,
              const std::string& only) {
  fs::create_directories(cache);
  if (only.empty() || only == "main") {
    GenAtomically(cache / "main", [&](const fs::path& out) {
      jig::ScenarioConfig config;
      config.seed = seed;
      config.duration = kMainDuration;
      config.clients = kMainClients;
      GenCapture(config, kMainRecords, out, out / "live");
    });
  }
  if (only.empty() || only == "fleet") {
    GenAtomically(cache / "fleet", [&](const fs::path& out) {
      // Independent captures: simulate them on up to four threads.
      std::atomic<int> next{0};
      std::exception_ptr error;
      std::mutex error_mu;
      const auto worker = [&] {
        for (int k = next++; k < kFleetCaptures; k = next++) {
          try {
            jig::ScenarioConfig config;
            config.seed = FleetSeed(seed, k);
            config.duration = kFleetDuration;
            config.clients = kFleetClients;
            config.pods_enabled = kFleetPods;
            GenCapture(config, std::numeric_limits<std::size_t>::max(),
                       out / FleetName(k));
          } catch (...) {
            std::lock_guard lk(error_mu);
            if (!error) error = std::current_exception();
          }
        }
      };
      {
        std::vector<std::jthread> pool;
        for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
      }
      if (error) std::rethrow_exception(error);
    });
  }
}

}  // namespace jigbench
