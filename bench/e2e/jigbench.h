// jigbench: the end-to-end benchmark of record (bench/e2e/README.md).
//
// Shared declarations of the bench_e2e program.  Every layer is timed from
// outside, by wrapping the calls into its public API (RecordStream,
// BootstrapSynchronize, MergeSession, AnalysisBus, SpillSegmentWriter/
// Reader, MonitorService, WingSession/RootSession): nothing under src/
// knows it is being measured.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/jframe.h"
#include "obs/metrics.h"
#include "trace/trace_set.h"
#include "util/crc32.h"

namespace jigbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using jig::JFrame;

// The fleet workload's deployments, one generated capture each.
inline constexpr int kFleetCaptures = 32;

// ------------------------------------------------------------- helpers

double Elapsed(Clock::time_point a, Clock::time_point b);
double ProcessCpu();
double ThreadCpu();
double Median(std::vector<double> v);
// Nearest-rank percentile, p in (0, 100]; 0 for no samples.
double Percentile(std::vector<double> v, double p);
double PeakRssMb();
std::uint64_t CounterValue(const char* name, const std::string& labels);
jig::obs::Gauge& GaugeHandle(const char* name, const std::string& labels);
std::string Label(const char* key, const std::string& value);

// ------------------------------------------------------------- tracing

// Spans around the calls into each layer, kept in memory and written as a
// Chrome trace-event file at exit (open it in Perfetto).  Off unless
// --trace is given; then Begin/End cost a mutex and a clock read.
class Tracer {
 public:
  explicit Tracer(bool on);

  bool on() const { return on_; }
  int Begin(std::string name, int parent, int tid = 1);
  void End(int id);
  // A counter sample at a layer boundary.
  void Count(std::string name, double value);
  void Write(const fs::path& path, const std::string& run_id) const;
  // {"name": {"count", "total_s", "self_s"}}.  A span's self time is its
  // duration minus the part of it that its child spans cover.
  std::string SummaryJson() const;

 private:
  struct SpanRecord {
    std::string name;
    int id;
    int parent;
    int tid;
    double start_us;
    double end_us;
  };
  struct CounterSample {
    std::string name;
    double ts_us;
    double value;
  };

  double NowUs() const;

  bool on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterSample> counters_;
};

class Span {
 public:
  Span(Tracer& tracer, std::string name, int parent, int tid = 1)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), parent, tid)) {}
  ~Span() { tracer_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ------------------------------------------------------------- report

// The JSON object one repetition prints: end-to-end metrics, per-layer
// metrics, and the correctness check that error_rate is computed from.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  void Layer(const std::string& name, double value, const char* unit);
  void Attempt(std::uint64_t n) { attempted_ += n; }
  void Fail(std::uint64_t n, const std::string& problem);
  std::string Json(const std::string& workload, const Tracer& tracer) const;

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  static std::string Object(const std::vector<Entry>& entries);

  std::vector<Entry> metrics_;
  std::vector<Entry> layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

// Freshness is summarised per sample set (one batch pass, or one
// deployment's output log) and then across sets by the median, so one
// deployment's stall cannot stand in for the whole fleet: per-deployment
// signals are never blended.
class FreshnessSummary {
 public:
  void Add(const std::vector<double>& ms);
  void Add(double p50_ms, double p99_ms, std::size_t samples);
  double p50() const { return Median(p50s_); }
  double p99() const { return Median(p99s_); }
  double worst_p99() const;
  std::size_t samples() const { return samples_; }
  bool empty() const { return p50s_.empty(); }

 private:
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  std::size_t samples_ = 0;
};

// ------------------------------------------------------------ reference

// What gen records about a capture from a threads=1 batch merge of its
// files: the oracle every workload's output is checked against.
struct Reference {
  std::uint64_t events = 0;
  std::uint64_t jframes = 0;
  std::uint32_t stream_crc = 0;  // order-sensitive, over every jframe
  jig::LinkStats link;
  // Per trace (radio order): universal = local + offset.  The open-loop
  // generator publishes every record at its universal time.
  std::vector<std::int64_t> offset_us;
  std::vector<std::uint32_t> jframe_crc;  // per jframe, stream order
};

void SaveReference(const fs::path& dir, const Reference& ref);
Reference LoadReference(const fs::path& dir);

// CRC32 over SerializeJFrame bytes — the lossless spill encoding, so two
// jframes digest equal exactly when they are byte-identical.
class Digest {
 public:
  std::uint32_t Add(const JFrame& jf);
  std::uint32_t stream() const { return stream_.Value(); }

 private:
  jig::Bytes buf_;
  jig::Crc32Accumulator stream_;
};

// Compares a jframe stream with the reference, jframe by jframe.
class Checker {
 public:
  explicit Checker(const Reference& ref) : ref_(&ref) {}

  void Add(const JFrame& jf);
  std::uint64_t seen() const { return seen_; }
  // Counts the pass toward error_rate: missing + extra + mismatched.
  void Settle(Report& report, const std::string& what) const;

 private:
  const Reference* ref_;
  Digest digest_;
  std::uint64_t seen_ = 0;
  std::uint64_t mismatched_ = 0;
};

// The stock streaming analyses of Figures 4, 9 and 11 on one bus.
struct AnalysisChain {
  jig::AnalysisBus bus;
  jig::LinkConsumer& link = bus.Emplace<jig::LinkConsumer>();
  jig::InterferenceConsumer& interference =
      bus.Emplace<jig::InterferenceConsumer>(link);
  jig::TcpLossConsumer& tcp_loss = bus.Emplace<jig::TcpLossConsumer>(link);
  jig::DispersionConsumer& dispersion = bus.Emplace<jig::DispersionConsumer>();
};

bool SameLinkStats(const jig::LinkStats& a, const jig::LinkStats& b);

// ------------------------------------------------------------ captures

// One generated capture: traces/ (the full capture), prefix/ (the first
// seconds of every radio, for cold starts) and its reference.
struct Capture {
  std::string name;
  fs::path dir;
  Reference ref;
  // Trace order (ascending radio id) — the order OpenDirectory, the
  // reference offsets and the service's merge all use.
  std::vector<jig::RadioId> radios;
  std::vector<std::uint16_t> pods;
  std::vector<fs::path> files;
  std::vector<fs::path> prefix_files;

  fs::path traces_dir() const { return dir / "traces"; }
  fs::path prefix_dir() const { return dir / "prefix"; }
};

Capture LoadCapture(const fs::path& dir, std::string name);
std::string FleetName(int k);

// gen: simulates the inputs of `only` ("main", "fleet", or both when
// empty) for `seed` into `cache`, skipping what is already there.  "main"
// also holds the live workload's capture, in main/live.
void Generate(std::uint64_t seed, const fs::path& cache,
              const std::string& only);

// ------------------------------------------------------------ workloads

using Captures = std::vector<const Capture*>;

void RunOffline(const Capture& cap, double seconds, const fs::path& work,
                Tracer& tracer, int parent, Report& report);
void RunDistributed(const Capture& cap, double seconds, const fs::path& work,
                    Tracer& tracer, int parent, Report& report);
// live (one capture, kLiveSpeed) and fleet (many captures, kFleetSpeed).
void RunService(const Captures& caps, bool live, double seconds,
                const fs::path& work, Tracer& tracer, int parent,
                Report& report);

}  // namespace jigbench
