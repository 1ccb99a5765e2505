// jigbench's per-layer probes and the batch pass every workload shares.
#pragma once

#include <deque>
#include <optional>

#include "jigbench.h"

namespace jigbench {

// Decode time per stream, charged by the TimedStream decorator.  Each
// stream is read by one thread at a time (the merge's round barrier orders
// its workers), and totals are read only after the merge has ended.
struct StreamLedger {
  std::uint64_t ns = 0;
  std::uint64_t records = 0;
};

class DecodeLedger {
 public:
  StreamLedger& Add();
  double seconds() const;
  std::uint64_t records() const;

 private:
  std::mutex mu_;
  std::deque<StreamLedger> streams_;  // stable addresses
};

// Times calls into the trace layer (traced runs only).  Two clock reads
// per record would cost more than a cheap record does, so one call in
// kStride is timed and charged kStride times.  The stride is odd, so the
// timed calls fall evenly on the rare calls that decode a whole block.
class TimedStream final : public jig::RecordStream {
 public:
  TimedStream(jig::RecordStream& inner, StreamLedger& ledger)
      : inner_(&inner), ledger_(&ledger) {}
  TimedStream(std::unique_ptr<jig::RecordStream> owned, StreamLedger& ledger)
      : owned_(std::move(owned)), inner_(owned_.get()), ledger_(&ledger) {}

  const jig::TraceHeader& header() const override { return inner_->header(); }
  std::optional<jig::CaptureRecord> Next() override;
  const jig::CaptureRecord* NextRef() override;
  void Rewind() override;
  bool Finalized() const override { return inner_->Finalized(); }

 private:
  static constexpr std::uint64_t kStride = 7;

  // Runs call(), timing it when this call is a sampled one.
  template <typename Call>
  auto Sample(Call call) {
    if (++calls_ % kStride != 0) return call();
    const auto t0 = Clock::now();
    auto out = call();
    Charge(t0, kStride);
    return out;
  }
  void Charge(Clock::time_point t0, std::uint64_t weight);

  std::unique_ptr<jig::RecordStream> owned_;
  jig::RecordStream* inner_;
  StreamLedger* ledger_;
  std::uint64_t calls_ = 0;
};

// A trace set of TimedStreams over `inner`'s streams.
jig::TraceSet Wrap(jig::TraceSet& inner, DecodeLedger& ledger);

// Registry counters the per-layer numbers are deltas of.
struct Counters {
  std::uint64_t blocks = 0;
  std::uint64_t repolls = 0;
  std::uint64_t bus_ns = 0;
  std::uint64_t link_ns = 0;
  std::uint64_t spilled = 0;

  static Counters Read();
  Counters operator-(const Counters& o) const;
};

// Per-pass accounting, summed over a run's measured passes.
struct Ledger {
  int passes = 0;
  double wall_s = 0;    // pass entry → last output delivered
  double merge_s = 0;   // inside Drain / Run / PollOnce
  double cpu_s = 0;     // process CPU (the load generator's excluded)
  double output_s = 0;  // inside the output sink (or the bus, for the service)
  std::uint64_t jframes = 0;
  std::size_t peak_retained = 0;
};

struct DecodeOnly {
  std::uint64_t records = 0;
  double seconds = 0;
};

// Reads every record of every file once.  Untimed in the end-to-end
// numbers: it warms the page cache, and its rate is trace.ns_per_record.
DecodeOnly DecodeAll(const Captures& caps, Tracer& tracer, int parent);
// A standalone BootstrapSynchronize over each capture (bootstrap.s).
double BootstrapSeconds(const Captures& caps, Tracer& tracer, int parent);
// Median save + strict load of a .jigc shaped like one deployment of `cap`.
double CheckpointMicros(const Capture& cap, const fs::path& work);

struct SpillCost {
  double write_ns = 0;
  double read_ns = 0;
};
// One SpillSegmentWriter pass and one strict SpillSegmentReader pass over
// `jfs` (the service's output log uses the same writer).
SpillCost SpillProbe(const std::vector<JFrame>& jfs, const fs::path& work,
                     Tracer& tracer, int parent);

// The per-layer metrics every workload reports (traced runs).
void EmitLayers(Report& report, const Ledger& ledger,
                const DecodeLedger& decode, const Counters& delta,
                const DecodeOnly& decode_only, double bootstrap_s,
                const SpillCost& spill, double checkpoint_us);

// The end-to-end metrics, which every workload reports (README.md has
// their definitions).
struct EndToEnd {
  double setup_s = 0;
  double events_per_s = 0;
  FreshnessSummary freshness;
  double cpu_ns_per_event = 0;
};
void EmitEndToEnd(Report& report, const EndToEnd& e2e);

// setup_s: the median of many cold starts, each timed (by `once`) from
// the workload's entry point to its first output.  Workloads take a few
// after each measured step, so the median samples the machine over the
// whole repetition rather than at one moment, and never the process's
// one-time warm-up.
class ColdStarts {
 public:
  ColdStarts(Tracer& tracer, int parent, std::function<double()> once)
      : tracer_(tracer), parent_(parent), once_(std::move(once)) {}

  void Take(int n);
  double median() const { return Median(seconds_); }

 private:
  Tracer& tracer_;
  int parent_;
  std::function<double()> once_;
  std::vector<double> seconds_;
};

// Calls step(0), step(1), ... until about `seconds` of wall time have been
// spent: a step starts only when half of the previous one still fits.
void RepeatFor(double seconds, const std::function<void(int step)>& step);

// The consumer end of a batch pass: checks each jframe against the
// reference, feeds the analysis chain, and notes when the jframes at the
// 50th and 99th percentile ranks arrived.
class BatchSink {
 public:
  BatchSink(Report& report, bool traced) : report_(report), traced_(traced) {}

  void Begin(const Capture& cap, Clock::time_point t0);
  void operator()(JFrame&& jf);
  // Ends the pass: finishes the analyses (inside the timed pass) and
  // settles the checks.
  void Finish(const std::string& what, std::uint64_t events);

  std::uint64_t jframes() const { return checker_->seen(); }
  double output_s() const { return output_s_; }
  // Adds this pass's freshness: every input of a batch pass exists when
  // it starts, so a jframe's freshness is the wall time from pass entry to
  // its delivery.  Delivery times rise with the rank, so the percentiles
  // are the delivery times of the jframes at those ranks.
  void AddFreshness(FreshnessSummary& freshness) const;
  const std::vector<JFrame>& kept() const { return keep_; }

 private:
  Report& report_;
  bool traced_;
  const Capture* cap_ = nullptr;
  Clock::time_point t0_;
  double output_s_ = 0;
  std::unique_ptr<Checker> checker_;
  std::unique_ptr<AnalysisChain> chain_;
  std::uint64_t rank_p50_ = 0;
  std::uint64_t rank_p99_ = 0;
  double p50_s_ = -1;
  double p99_s_ = -1;
  std::vector<JFrame> keep_;
};

struct PassStats {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t events = 0;

  double rate() const { return static_cast<double>(events) / wall_s; }
  double cpu_ns_per_event() const {
    return cpu_s * 1e9 / static_cast<double>(events);
  }
};

// One OpenDirectory → MergeSession::Drain → AnalysisBus::Finish pass.
// `decode` (traced runs) wraps every stream in a TimedStream.
PassStats MergePass(const Capture& cap, unsigned threads, BatchSink& sink,
                    DecodeLedger* decode, Ledger& ledger, Tracer& tracer,
                    int parent);

// Folds one pass into the ledger.
void Account(Ledger& ledger, const PassStats& pass, double merge_s,
             const BatchSink& sink, std::size_t peak_retained);

}  // namespace jigbench
