// jigbench's per-layer probes and the batch pass every workload shares.
#include "layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "jigsaw/bootstrap.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "trace/trace_file.h"

namespace jigbench {
namespace {

constexpr const char* kConsumers[] = {"link", "interference", "tcp-loss",
                                      "dispersion"};
constexpr std::size_t kSpillProbeJFrames = 50'000;
constexpr int kCheckpointProbes = 21;

}  // namespace

// --------------------------------------------------------------- trace

StreamLedger& DecodeLedger::Add() {
  std::lock_guard lk(mu_);
  return streams_.emplace_back();
}

double DecodeLedger::seconds() const {
  std::uint64_t ns = 0;
  for (const StreamLedger& s : streams_) ns += s.ns;
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t DecodeLedger::records() const {
  std::uint64_t n = 0;
  for (const StreamLedger& s : streams_) n += s.records;
  return n;
}

std::optional<jig::CaptureRecord> TimedStream::Next() {
  auto rec = Sample([this] { return inner_->Next(); });
  if (rec) ++ledger_->records;
  return rec;
}

const jig::CaptureRecord* TimedStream::NextRef() {
  const jig::CaptureRecord* rec = Sample([this] { return inner_->NextRef(); });
  if (rec != nullptr) ++ledger_->records;
  return rec;
}

void TimedStream::Rewind() {
  const auto t0 = Clock::now();
  inner_->Rewind();
  Charge(t0, 1);
}

void TimedStream::Charge(Clock::time_point t0, std::uint64_t weight) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - t0);
  ledger_->ns += weight * static_cast<std::uint64_t>(ns.count());
}

jig::TraceSet Wrap(jig::TraceSet& inner, DecodeLedger& ledger) {
  jig::TraceSet out;
  for (std::size_t i = 0; i < inner.size(); ++i) {
    out.Add(std::make_unique<TimedStream>(inner.at(i), ledger.Add()));
  }
  return out;
}

Counters Counters::Read() {
  Counters c;
  c.blocks = CounterValue("jig_trace_blocks_decoded_total", "");
  c.repolls = CounterValue("jig_trace_repolls_total", "");
  for (const char* consumer : kConsumers) {
    c.bus_ns += CounterValue("jig_bus_consumer_busy_ns_total",
                             Label("consumer", consumer));
  }
  c.link_ns = CounterValue("jig_bus_consumer_busy_ns_total",
                           Label("consumer", "link"));
  c.spilled = CounterValue("jig_spill_jframes_spilled_total", "");
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  return {blocks - o.blocks, repolls - o.repolls, bus_ns - o.bus_ns,
          link_ns - o.link_ns, spilled - o.spilled};
}

// --------------------------------------------------------------- probes

DecodeOnly DecodeAll(const Captures& caps, Tracer& tracer, int parent) {
  Span span(tracer, "decode_only", parent);
  DecodeOnly out;
  const auto t0 = Clock::now();
  for (const Capture* cap : caps) {
    for (const fs::path& f : cap->files) {
      jig::TraceFileReader reader(f);
      while (reader.NextRef() != nullptr) ++out.records;
    }
  }
  out.seconds = Elapsed(t0, Clock::now());
  return out;
}

double BootstrapSeconds(const Captures& caps, Tracer& tracer, int parent) {
  double total = 0;
  for (const Capture* cap : caps) {
    jig::TraceSet traces = jig::TraceSet::OpenDirectory(cap->traces_dir());
    Span span(tracer, "bootstrap", parent);
    const auto t0 = Clock::now();
    jig::BootstrapSynchronize(traces);
    total += Elapsed(t0, Clock::now());
  }
  return total;
}

double CheckpointMicros(const Capture& cap, const fs::path& work) {
  jig::Checkpoint cp;
  cp.deployment = cap.name;
  cp.emitted = cap.ref.jframes;
  for (const jig::RadioId radio : cap.radios) {
    cp.frontiers.push_back({radio, cap.ref.events / cap.radios.size(), true});
  }
  const std::uint64_t segments = cap.ref.jframes / 40'000 + 1;
  for (std::uint64_t s = 0; s < segments; ++s) {
    cp.segments.push_back({s, s * 40'000, 0, 4u << 20, s + 1 < segments});
  }
  const fs::path path = work / "probe.jigc";
  std::vector<double> us;
  for (int i = 0; i < kCheckpointProbes; ++i) {
    const auto t0 = Clock::now();
    jig::SaveCheckpoint(path, cp);
    const jig::Checkpoint back = jig::LoadCheckpoint(path);
    us.push_back(Elapsed(t0, Clock::now()) * 1e6);
    if (back.frontiers.size() != cp.frontiers.size()) {
      throw std::runtime_error("checkpoint probe did not round-trip");
    }
  }
  return Median(us);
}

SpillCost SpillProbe(const std::vector<JFrame>& jfs, const fs::path& work,
                     Tracer& tracer, int parent) {
  Span span(tracer, "spill_probe", parent);
  if (jfs.empty()) throw std::runtime_error("spill probe: no jframes");
  const fs::path path = work / "probe.jigs";
  const auto t0 = Clock::now();
  {
    jig::SpillSegmentWriter writer(path, {0, 0});
    for (const JFrame& jf : jfs) writer.Append(jf);
    writer.Finish();
  }
  const auto t1 = Clock::now();
  std::size_t n = 0;
  {
    jig::SpillSegmentReader reader(path, /*strict=*/true);
    while (reader.Next()) ++n;
  }
  const auto t2 = Clock::now();
  if (n != jfs.size()) throw std::runtime_error("spill probe lost jframes");
  const double count = static_cast<double>(jfs.size());
  return {Elapsed(t0, t1) * 1e9 / count, Elapsed(t1, t2) * 1e9 / count};
}

void EmitLayers(Report& report, const Ledger& ledger,
                const DecodeLedger& decode, const Counters& delta,
                const DecodeOnly& decode_only, double bootstrap_s,
                const SpillCost& spill, double checkpoint_us) {
  const double passes = std::max(1, ledger.passes);
  const double decode_s = decode.seconds();
  report.Layer("trace.decode_s", decode_s / passes, "s");
  report.Layer("trace.records",
               static_cast<double>(decode.records()) / passes, "count");
  report.Layer("trace.ns_per_record",
               decode_only.seconds * 1e9 /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, decode_only.records)),
               "ns");
  const std::uint64_t attempts =
      std::max<std::uint64_t>(1, delta.blocks + delta.repolls);
  report.Layer("trace.tail_useful_ratio",
               static_cast<double>(delta.blocks) /
                   static_cast<double>(attempts),
               "ratio");
  report.Layer("bootstrap.s", bootstrap_s, "s");
  report.Layer("pipeline.poll_s", (ledger.merge_s - ledger.output_s) / passes,
               "s");
  report.Layer("pipeline.self_cpu_s",
               (ledger.cpu_s - decode_s - ledger.output_s) / passes, "s");
  report.Layer("pipeline.cpu_util", ledger.cpu_s / ledger.wall_s, "ratio");
  report.Layer("pipeline.peak_retained_jframes",
               static_cast<double>(ledger.peak_retained), "count");
  report.Layer("pipeline.jframes",
               static_cast<double>(ledger.jframes) / passes, "count");
  report.Layer("analysis.bus_s",
               static_cast<double>(delta.bus_ns) * 1e-9 / passes, "s");
  report.Layer("analysis.link_s",
               static_cast<double>(delta.link_ns) * 1e-9 / passes, "s");
  report.Layer("spill.write_ns_per_jframe", spill.write_ns, "ns");
  report.Layer("spill.read_ns_per_jframe", spill.read_ns, "ns");
  report.Layer("service.checkpoint_us", checkpoint_us, "us");
}

void EmitEndToEnd(Report& report, const EndToEnd& e2e) {
  report.Metric("setup_s", e2e.setup_s, "s");
  report.Metric("events_per_s", e2e.events_per_s, "events/s");
  report.Metric("freshness_p50_ms", e2e.freshness.p50(), "ms");
  report.Metric("freshness_p99_ms", e2e.freshness.p99(), "ms");
  report.Metric("cpu_ns_per_event", e2e.cpu_ns_per_event, "ns/event");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  // Printed by the report, not gated: the sample count behind the
  // freshness percentiles, and the worst sample set's p99.
  report.Metric("freshness_samples",
                static_cast<double>(e2e.freshness.samples()), "count");
  report.Metric("freshness_worst_p99_ms", e2e.freshness.worst_p99(), "ms");
  if (e2e.freshness.empty()) report.Fail(1, "no freshness samples");
}

void ColdStarts::Take(int n) {
  Span span(tracer_, "setup", parent_);
  for (int i = 0; i < n; ++i) {
    Span one(tracer_, "cold_start", span.id());
    seconds_.push_back(once_());
  }
}

void RepeatFor(double seconds, const std::function<void(int step)>& step) {
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const auto p0 = Clock::now();
    step(i);
    const double took = Elapsed(p0, Clock::now());
    if (Elapsed(start, Clock::now()) + 0.5 * took > seconds) break;
  }
}

// ----------------------------------------------------------- batch pass

void BatchSink::Begin(const Capture& cap, Clock::time_point t0) {
  cap_ = &cap;
  t0_ = t0;
  output_s_ = 0;
  // Nearest-rank percentiles of the reference's jframe count.
  const auto rank = [&](double p) {
    return static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(cap.ref.jframes)));
  };
  rank_p50_ = rank(0.50);
  rank_p99_ = rank(0.99);
  p50_s_ = p99_s_ = -1;
  checker_ = std::make_unique<Checker>(cap.ref);
  chain_ = std::make_unique<AnalysisChain>();
}

void BatchSink::operator()(JFrame&& jf) {
  const auto now = Clock::now();
  const std::uint64_t rank = checker_->seen() + 1;
  if (rank == rank_p50_) p50_s_ = Elapsed(t0_, now);
  if (rank == rank_p99_) p99_s_ = Elapsed(t0_, now);
  if (traced_ && keep_.size() < kSpillProbeJFrames) keep_.push_back(jf);
  checker_->Add(jf);
  chain_->bus.OnJFrame(std::move(jf));
  if (traced_) output_s_ += Elapsed(now, Clock::now());
}

void BatchSink::Finish(const std::string& what, std::uint64_t events) {
  chain_->bus.Finish();
  checker_->Settle(report_, what);
  if (!SameLinkStats(chain_->link.stats(), cap_->ref.link)) {
    report_.Fail(1, what + ": LinkStats differ from the reference");
  }
  if (events != cap_->ref.events) {
    report_.Fail(1, what + ": merged " + std::to_string(events) +
                        " events, reference " +
                        std::to_string(cap_->ref.events));
  }
}

void BatchSink::AddFreshness(FreshnessSummary& freshness) const {
  // A pass that fell short of a rank has already failed its check.
  if (p50_s_ < 0 || p99_s_ < 0) return;
  freshness.Add(p50_s_ * 1e3, p99_s_ * 1e3, cap_->ref.jframes);
}

void Account(Ledger& ledger, const PassStats& pass, double merge_s,
             const BatchSink& sink, std::size_t peak_retained) {
  ++ledger.passes;
  ledger.wall_s += pass.wall_s;
  ledger.merge_s += merge_s;
  ledger.cpu_s += pass.cpu_s;
  ledger.output_s += sink.output_s();
  ledger.jframes += sink.jframes();
  ledger.peak_retained = std::max(ledger.peak_retained, peak_retained);
}

PassStats MergePass(const Capture& cap, unsigned threads, BatchSink& sink,
                    DecodeLedger* decode, Ledger& ledger, Tracer& tracer,
                    int parent) {
  const std::string what =
      cap.name + (threads == 1 ? " threads=1" : " threads=auto");
  Span span(tracer, threads == 1 ? "pass_1t" : "pass", parent);
  const double cpu0 = ProcessCpu();
  const auto t0 = Clock::now();
  sink.Begin(cap, t0);
  jig::TraceSet files = [&] {
    Span open(tracer, "open", span.id());
    return jig::TraceSet::OpenDirectory(cap.traces_dir());
  }();
  jig::TraceSet wrapped;
  if (decode != nullptr) wrapped = Wrap(files, *decode);
  jig::MergeConfig config;
  config.threads = threads;
  PassStats out;
  double merge_s = 0;
  std::size_t peak = 0;
  {
    jig::MergeSession session(decode != nullptr ? wrapped : files, config,
                              [&sink](JFrame&& jf) { sink(std::move(jf)); });
    Span drain(tracer, "drain", span.id());
    const auto d0 = Clock::now();
    out.events = session.Drain().stats.events_in;
    merge_s = Elapsed(d0, Clock::now());
    peak = session.peak_retained_jframes();
  }
  {
    Span finish(tracer, "finish", span.id());
    sink.Finish(what, out.events);
  }
  out.wall_s = Elapsed(t0, Clock::now());
  out.cpu_s = ProcessCpu() - cpu0;
  Account(ledger, out, merge_s, sink, peak);
  // Per-jframe sink time is a counter, not 250k spans.
  tracer.Count("sink_s", sink.output_s());
  tracer.Count("pass_wall_s", out.wall_s);
  tracer.Count("pass_events", static_cast<double>(out.events));
  return out;
}

}  // namespace jigbench
