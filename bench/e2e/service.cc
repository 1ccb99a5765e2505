// jigbench's open-loop workloads, live and fleet: a generator thread
// publishes captures into growing .jigt files on a fixed schedule while
// one MonitorService consumes them, polled the way MonitorService::Run
// polls.
#include <algorithm>
#include <atomic>
#include <climits>
#include <exception>
#include <stdexcept>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "jigsaw/pipeline.h"
#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "layers.h"
#include "trace/trace_file.h"

namespace jigbench {
namespace {

// Open-loop replay rates (capture time per wall time).  At these rates the
// live capture and every fleet capture replay in at most kLoopS.
constexpr int kLiveSpeed = 30;
constexpr int kFleetSpeed = 8;
constexpr double kLoopS = 10.0;
constexpr auto kTick = std::chrono::milliseconds(50);  // publish period
// The live capture publishes every tick.  Each fleet capture publishes
// every kFleetPeriod ticks, the captures staggered over the ticks, as
// independent sites' writers flush on their own schedules.  In lockstep,
// every round would append to and checkpoint all 32 deployments, and on a
// shared disk the fleet's freshness would then measure the disk.
constexpr int kFleetPeriod = 4;
constexpr auto kIdleSleep = std::chrono::milliseconds(10);  // as Run()
constexpr auto kExposition = std::chrono::milliseconds(500);
// Freshness ignores the start-up transient before the pipeline is warm.
constexpr double kFreshnessWarmupS = 2.0;
// Cold starts taken after each open loop (setup_s), none before the first
// (see batch.cc).
constexpr int kColdStartsPerLoop = 8;
constexpr int kFleetColdStartsPerLoop = 5;
// Extra wall time an open-loop run may take to drain after publishing.
constexpr double kDrainTimeoutS = 60.0;

// The live capture clock: a record of trace i is captured in tick
// (local + offset_i - u0) / delta + 1, and due at the capture's first
// publish tick from there on (ticks k with k % period == phase), i.e. at
// t0 + tick * kTick.  The generator publishes by this function and
// freshness is timed from it.
struct Pacing {
  std::vector<std::int64_t> offset_us;
  std::vector<int> index_of;  // radio id → trace index
  std::int64_t u0 = 0;
  std::int64_t delta_us = 1;  // capture time per tick
  std::int64_t span_us = 0;   // capture time from first record to last
  std::int64_t period = 1;    // publishes every `period` ticks ...
  std::int64_t phase = 0;     // ... those with k % period == phase

  Pacing(const Capture& cap, std::int64_t delta, int period_ticks,
         int phase_tick)
      : offset_us(cap.ref.offset_us),
        index_of(65536, -1),
        delta_us(delta),
        period(period_ticks),
        phase(phase_tick) {
    u0 = INT64_MAX;
    std::int64_t u_end = INT64_MIN;
    for (std::size_t i = 0; i < cap.files.size(); ++i) {
      index_of[cap.radios[i]] = static_cast<int>(i);
      const jig::TraceFileReader reader(cap.files[i]);
      if (reader.index().empty()) continue;
      u0 = std::min(u0, reader.index().front().first_timestamp + offset_us[i]);
      u_end = std::max(u_end,
                       reader.index().back().last_timestamp + offset_us[i]);
    }
    if (u0 == INT64_MAX) throw std::runtime_error("empty capture " + cap.name);
    span_us = u_end - u0;
  }

  std::int64_t Tick(std::size_t trace, jig::LocalMicros ts) const {
    const std::int64_t k = (ts + offset_us[trace] - u0) / delta_us + 1;
    return k + ((phase - k) % period + period) % period;
  }
  bool Publishes(std::int64_t k) const { return k % period == phase; }
  // Scheduled publication of a record, as wall time since t0.
  Clock::duration Due(std::size_t trace, jig::LocalMicros ts) const {
    return Tick(trace, ts) * kTick;
  }
};

// Replays a capture into a directory of growing .jigt files: decodes the
// generated files incrementally with TraceFileReader and publishes them
// with TraceSetWriter Append + Sync, one tick at a time.  Stage() appends
// a tick's records ahead of their due time (the writer cuts blocks only at
// Sync, so nothing becomes visible early), so publishing costs only the
// Sync: compressing and writing the block.
class Replay {
 public:
  Replay(const Capture& cap, const Pacing& pacing, const fs::path& live_dir)
      : pacing_(pacing), writer_(live_dir) {
    for (const fs::path& file : cap.files) {
      auto reader = std::make_unique<jig::TraceFileReader>(file);
      blocks_ += reader->index().size();
      writer_.AddRadio(reader->header(), kNoAutoCut);
      heads_.push_back(reader->NextRef());
      readers_.push_back(std::move(reader));
    }
    staged_u_.assign(heads_.size(), INT64_MIN);
    published_u_ = staged_u_;
    finalized_.assign(heads_.size(), false);
    open_ = heads_.size();
    Stage(1);
  }

  // Publishes the staged records and finalizes every radio that has no
  // more.
  void Publish() {
    writer_.Sync();
    published_u_ = staged_u_;
    for (std::size_t s = 0; s < heads_.size(); ++s) {
      if (!finalized_[s] && heads_[s] == nullptr) {
        writer_.Finalize(s);
        finalized_[s] = true;
        --open_;
      }
    }
  }

  // Appends the records due by tick k, unpublished until the next Sync.
  void Stage(std::int64_t k) {
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      while (heads_[i] != nullptr &&
             pacing_.Tick(i, heads_[i]->timestamp) <= k) {
        writer_.Append(i, *heads_[i]);
        staged_u_[i] = heads_[i]->timestamp + pacing_.offset_us[i];
        heads_[i] = readers_[i]->NextRef();
      }
    }
  }

  // How far (capture us) the slowest unfinalized radio's published
  // frontier trails the schedule after tick k.
  std::int64_t WatermarkLagUs(std::int64_t k) const {
    std::int64_t lag = 0;
    const std::int64_t due = pacing_.u0 + k * pacing_.delta_us;
    for (std::size_t s = 0; s < finalized_.size(); ++s) {
      if (finalized_[s] || published_u_[s] == INT64_MIN) continue;
      lag = std::max(lag, due - published_u_[s]);
    }
    return lag;
  }

  bool done() const { return open_ == 0; }
  bool publishes(std::int64_t k) const { return pacing_.Publishes(k); }
  // Blocks this generator decodes (they share the trace-layer counters
  // with the service's tail readers).
  std::uint64_t blocks() const { return blocks_; }

 private:
  static constexpr std::size_t kNoAutoCut = std::size_t{1} << 30;

  const Pacing& pacing_;
  jig::TraceSetWriter writer_;
  std::vector<std::unique_ptr<jig::TraceFileReader>> readers_;
  std::vector<const jig::CaptureRecord*> heads_;  // next unstaged record
  std::vector<std::int64_t> staged_u_;
  std::vector<std::int64_t> published_u_;
  std::vector<bool> finalized_;
  std::size_t open_ = 0;
  std::uint64_t blocks_ = 0;
};

// The load generator: one thread that publishes every capture on a fixed
// schedule that never waits for the service (an open loop).  It shares
// the process with the service, so gen.late_p99_ms checks that each
// capture's Sync completed close to its scheduled time.
class Generator {
 public:
  Generator(const Captures& caps,
            const std::vector<std::unique_ptr<Pacing>>& pacings,
            const fs::path& dir, int speed, Tracer& tracer, int parent)
      : speed_(speed), tracer_(tracer), parent_(parent) {
    for (std::size_t c = 0; c < caps.size(); ++c) {
      replays_.push_back(std::make_unique<Replay>(*caps[c], *pacings[c],
                                                  dir / caps[c]->name));
      blocks_ += replays_.back()->blocks();
    }
  }

  void Start(Clock::time_point t0) {
    thread_ = std::jthread([this, t0] { Publish(t0); });
  }
  bool done() const { return done_; }
  bool failed() const { return done_ && error_; }
  // Joins the thread and rethrows its failure.
  void Join() {
    if (thread_.joinable()) thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

  double cpu_s() const { return cpu_s_; }
  // Per capture and tick: Sync completion minus the scheduled tick.
  const std::vector<double>& late_ms() const { return late_ms_; }
  // Per tick: wall time by which the slowest unfinalized radio's
  // published frontier trails the schedule.
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  std::uint64_t blocks() const { return blocks_; }

 private:
  void Publish(Clock::time_point t0) {
    try {
      bool all_done = false;
      for (std::int64_t k = 1; !all_done; ++k) {
        const auto due = t0 + k * kTick;
        std::this_thread::sleep_until(due);
        Span span(tracer_, "publish", parent_, 2);
        all_done = true;
        std::int64_t lag_us = 0;
        for (auto& r : replays_) {
          if (!r->done() && r->publishes(k)) {
            r->Publish();
            late_ms_.push_back(Elapsed(due, Clock::now()) * 1e3);
          }
          all_done = all_done && r->done();
          lag_us = std::max(lag_us, r->WatermarkLagUs(k));
        }
        lag_ms_.push_back(static_cast<double>(lag_us) / speed_ * 1e-3);
        // Read the next tick's records now, off the publication path.
        for (auto& r : replays_) r->Stage(k + 1);
      }
    } catch (...) {
      error_ = std::current_exception();
    }
    cpu_s_ = ThreadCpu();
    done_ = true;
  }

  std::vector<std::unique_ptr<Replay>> replays_;
  int speed_;
  Tracer& tracer_;
  int parent_;
  std::uint64_t blocks_ = 0;
  std::vector<double> late_ms_;
  std::vector<double> lag_ms_;
  double cpu_s_ = 0;
  std::exception_ptr error_;
  std::atomic<bool> done_{false};
  std::jthread thread_;  // last: joined before the members it uses die
};

jig::DeploymentConfig DeploymentFor(const std::string& name,
                                    const fs::path& trace_dir,
                                    const fs::path& state_dir,
                                    std::size_t traces, bool live) {
  jig::DeploymentConfig dc;
  dc.name = name;
  dc.trace_dir = trace_dir;
  dc.state_dir = state_dir;
  dc.expected_traces = traces;
  dc.analysis = true;
  dc.merge.threads = live ? 2 : 1;
  if (live) dc.merge.spill_dir = state_dir / "spill";
  return dc;
}

// A fresh service over the finished prefix files, timed from construction
// until every deployment has a durable jframe.
double ServiceColdStart(const Captures& caps, bool live, const fs::path& dir) {
  fs::remove_all(dir);
  double took = 0;
  {
    const auto t0 = Clock::now();
    jig::MonitorService service;
    for (const Capture* cap : caps) {
      const std::string name = "cold-" + cap->name;
      service.AddDeployment(DeploymentFor(name, cap->prefix_dir(), dir / name,
                                          cap->files.size(), live));
    }
    std::vector<bool> durable(caps.size(), false);
    std::size_t waiting = caps.size();
    while (waiting > 0) {
      const std::size_t active = service.PollOnce();
      for (std::size_t d = 0; d < caps.size(); ++d) {
        if (!durable[d] && service.monitor(d).jframes_persisted() > 0) {
          durable[d] = true;
          --waiting;
        }
      }
      if (waiting > 0 && active == 0) {
        throw std::runtime_error("service cold start: no durable output");
      }
    }
    took = Elapsed(t0, Clock::now());
  }
  fs::remove_all(dir);
  return took;
}

// Returns the free heap to the system, so every open loop starts from a
// trimmed heap as the first does in a fresh process.  Without it, memory
// that one loop's threads freed in their own malloc arenas stays resident,
// and peak_rss_mb would read how the allocator placed two services (live:
// 57-73 MB across seeds 1-10) rather than what one service uses.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// When a deployment's durable count moved: (seconds since t0, count).
using Progress = std::vector<std::pair<double, std::uint64_t>>;

// Reads a deployment's output log back with the strict reader, checks it
// against the reference, and returns its freshness samples: each jframe's
// wall time from its scheduled publish tick (the latest tick of its
// instances' records) to the end of the PollOnce that made it durable.
std::vector<double> ReadBackLog(const Capture& cap, const fs::path& state_dir,
                                const Pacing& pacing,
                                const Progress& progress, Report& report,
                                std::vector<JFrame>& keep, bool traced) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(state_dir / "out")) {
    if (entry.path().extension() == ".jigs") segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  Checker checker(cap.ref);
  std::vector<double> freshness_ms;
  const double first_durable = progress.empty() ? 0.0 : progress.front().first;
  std::size_t p = 0;
  std::uint64_t index = 0;
  for (const fs::path& seg : segments) {
    jig::SpillSegmentReader reader(seg, /*strict=*/true);
    while (std::optional<JFrame> jf = reader.Next()) {
      checker.Add(*jf);
      Clock::duration latest{};
      for (const jig::FrameInstance& inst : jf->instances) {
        const int trace = pacing.index_of[inst.radio];
        if (trace < 0) continue;
        latest = std::max(latest, pacing.Due(static_cast<std::size_t>(trace),
                                             inst.local_timestamp));
      }
      while (p < progress.size() && progress[p].second <= index) ++p;
      const double due = std::chrono::duration<double>(latest).count();
      if (p < progress.size() && due >= first_durable + kFreshnessWarmupS) {
        freshness_ms.push_back((progress[p].first - due) * 1e3);
      }
      if (traced && keep.size() < 50'000) keep.push_back(std::move(*jf));
      ++index;
    }
  }
  checker.Settle(report, cap.name + " output log");
  return freshness_ms;
}

// What one open-loop run measured.
struct LoopStats {
  double phase_s = 0;  // generator start → service quiescent
  double busy_s = 0;   // inside PollOnce
  double cpu_s = 0;    // process CPU minus the generator thread's
  std::vector<double> round_ms;
  std::vector<double> exposition_ms;
  std::vector<double> late_ms;
  std::vector<double> lag_ms;
  std::uint64_t idle_rounds = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t persisted = 0;
  std::uint64_t generator_blocks = 0;
  double peak_spill_bytes = 0;
  std::size_t peak_retained = 0;
  Counters delta;
};

// One MonitorService over replayed captures, polled the way
// MonitorService::Run polls, while the generator publishes every capture
// on its open-loop schedule.  Reads every output log back, checks it, and
// adds each deployment's freshness to `freshness`.
LoopStats OpenLoop(const Captures& caps, bool live,
                   const std::vector<std::unique_ptr<Pacing>>& pacings,
                   double replay_s, const fs::path& dir, DecodeLedger* decode,
                   FreshnessSummary& freshness, std::vector<JFrame>& keep,
                   Tracer& tracer, int parent, Report& report) {
  Span loop(tracer, "open_loop", parent);
  const int speed = live ? kLiveSpeed : kFleetSpeed;
  Generator generator(caps, pacings, dir / "traces", speed, tracer,
                      loop.id());

  jig::DeploymentMonitor::StreamWrapper wrapper;
  if (decode != nullptr) {
    wrapper = [decode](std::unique_ptr<jig::RecordStream> inner,
                       std::uint32_t) -> std::unique_ptr<jig::RecordStream> {
      return std::make_unique<TimedStream>(std::move(inner), decode->Add());
    };
  }
  jig::ServiceConfig sc;
  sc.snapshot_path = dir / "snapshot.json";
  sc.metrics_path = dir / "metrics.prom";
  sc.snapshot_interval = kExposition;
  sc.idle_sleep = kIdleSleep;
  auto service = std::make_unique<jig::MonitorService>(sc);
  std::vector<jig::obs::Gauge*> retained;
  std::vector<fs::path> state_dirs;
  for (const Capture* cap : caps) {
    state_dirs.push_back(dir / "state" / cap->name);
    service->AddDeployment(
        DeploymentFor(cap->name, dir / "traces" / cap->name,
                      state_dirs.back(), cap->files.size(), live),
        wrapper);
    retained.push_back(&GaugeHandle("jig_service_retained_jframes",
                                    Label("deployment", cap->name)));
  }
  const auto checkpoints = [&] {
    std::uint64_t n = 0;
    for (const Capture* cap : caps) {
      n += CounterValue("jig_service_checkpoints_total",
                        Label("deployment", cap->name));
    }
    return n;
  };
  jig::obs::Gauge& spill_bytes = GaugeHandle("jig_spill_bytes_on_disk", "");

  LoopStats st;
  std::vector<Progress> progress(caps.size());
  const std::uint64_t checkpoints0 = checkpoints();
  const Counters before = Counters::Read();
  const double cpu0 = ProcessCpu();
  const auto t0 = Clock::now();
  generator.Start(t0);
  auto last_exposition = t0;
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(replay_s + kDrainTimeoutS));
  bool timed_out = false;
  for (;;) {
    const auto p0 = Clock::now();
    std::size_t active = 0;
    {
      Span round(tracer, "round", loop.id());
      active = service->PollOnce();
    }
    const auto p1 = Clock::now();
    st.busy_s += Elapsed(p0, p1);
    st.round_ms.push_back(Elapsed(p0, p1) * 1e3);
    bool progressed = false;
    for (std::size_t d = 0; d < caps.size(); ++d) {
      const std::uint64_t n = service->monitor(d).jframes_persisted();
      if (n > 0 && (progress[d].empty() || progress[d].back().second != n)) {
        progress[d].emplace_back(Elapsed(t0, p1), n);
        progressed = true;
      }
      st.peak_retained = std::max(
          st.peak_retained, static_cast<std::size_t>(retained[d]->Value()));
    }
    if (!progressed) ++st.idle_rounds;
    st.peak_spill_bytes =
        std::max(st.peak_spill_bytes, static_cast<double>(spill_bytes.Value()));
    if (p1 - last_exposition >= kExposition) {
      Span expo(tracer, "exposition", loop.id());
      const auto e0 = Clock::now();
      service->WriteSnapshot();
      service->WriteMetrics();
      st.exposition_ms.push_back(Elapsed(e0, Clock::now()) * 1e3);
      last_exposition = p1;
    }
    if (generator.done() && (active == 0 || generator.failed())) break;
    if (p1 > deadline) {
      timed_out = true;
      break;
    }
    std::this_thread::sleep_for(kIdleSleep);
  }
  st.phase_s = Elapsed(t0, Clock::now());
  generator.Join();
  st.cpu_s = ProcessCpu() - cpu0 - generator.cpu_s();
  st.delta = Counters::Read() - before;
  st.checkpoints = checkpoints() - checkpoints0;
  st.late_ms = generator.late_ms();
  st.lag_ms = generator.lag_ms();
  st.generator_blocks = generator.blocks();
  if (timed_out) report.Fail(1, "service did not finish in time");
  for (std::size_t d = 0; d < caps.size(); ++d) {
    const jig::DeploymentMonitor& m = service->monitor(d);
    st.persisted += m.jframes_persisted();
    st.output_bytes += m.output_bytes_on_disk();
    if (m.state() != jig::DeploymentMonitor::State::kDone) {
      report.Fail(1, m.name() + " ended " +
                         (m.state() == jig::DeploymentMonitor::State::kFailed
                              ? "failed"
                              : "unfinished"));
    }
  }
  service->Shutdown();
  service.reset();  // seals every output log

  Span verify(tracer, "verify", loop.id());
  for (std::size_t d = 0; d < caps.size(); ++d) {
    freshness.Add(ReadBackLog(*caps[d], state_dirs[d], *pacings[d],
                              progress[d], report, keep, tracer.on()));
  }
  fs::remove_all(dir);
  return st;
}

}  // namespace

void RunService(const Captures& caps, bool live, double seconds,
                const fs::path& work, Tracer& tracer, int parent,
                Report& report) {
  const std::string kind = live ? "live" : "fleet";
  const DecodeOnly decode_only = DecodeAll(caps, tracer, parent);
  EndToEnd e2e;
  ColdStarts cold(tracer, parent,
                  [&] { return ServiceColdStart(caps, live, work / "cold"); });
  const int cold_per_loop = live ? kColdStartsPerLoop : kFleetColdStartsPerLoop;

  const int speed = live ? kLiveSpeed : kFleetSpeed;
  const auto delta_us =
      std::chrono::duration_cast<std::chrono::microseconds>(kTick).count() *
      speed;
  const int period = live ? 1 : kFleetPeriod;
  std::vector<std::unique_ptr<Pacing>> pacings;
  double replay_s = 0;
  for (const Capture* cap : caps) {
    const int phase = static_cast<int>(pacings.size()) % period;
    pacings.push_back(std::make_unique<Pacing>(*cap, delta_us, period, phase));
    replay_s = std::max(replay_s, static_cast<double>(pacings.back()->span_us) *
                                      1e-6 / speed);
  }
  // The open loop replays each capture in at most kLoopS, and runs
  // seconds / kLoopS times (a fresh service over fresh files each time),
  // at least once.  The count depends on neither the seed nor the
  // machine, so every repetition does the same number of loops.
  const int n_loops = std::max(1, static_cast<int>(seconds / kLoopS));
  DecodeLedger decode;
  std::vector<JFrame> keep;
  std::vector<LoopStats> loops;
  for (int i = 0; i < n_loops; ++i) {
    TrimHeap();
    loops.push_back(OpenLoop(caps, live, pacings, replay_s,
                             work / (kind + std::to_string(i)),
                             tracer.on() ? &decode : nullptr, e2e.freshness,
                             keep, tracer, parent, report));
    cold.Take(cold_per_loop);
  }
  e2e.setup_s = cold.median();

  std::uint64_t events = 0;
  for (const Capture* cap : caps) events += cap->ref.events;
  LoopStats sum;
  std::vector<double> late_ms;
  std::vector<double> lag_ms;
  for (const LoopStats& l : loops) {
    sum.phase_s += l.phase_s;
    sum.busy_s += l.busy_s;
    sum.cpu_s += l.cpu_s;
    sum.round_ms.insert(sum.round_ms.end(), l.round_ms.begin(),
                        l.round_ms.end());
    sum.exposition_ms.insert(sum.exposition_ms.end(), l.exposition_ms.begin(),
                             l.exposition_ms.end());
    late_ms.insert(late_ms.end(), l.late_ms.begin(), l.late_ms.end());
    lag_ms.insert(lag_ms.end(), l.lag_ms.begin(), l.lag_ms.end());
    sum.idle_rounds += l.idle_rounds;
    sum.checkpoints += l.checkpoints;
    sum.output_bytes += l.output_bytes;
    sum.persisted += l.persisted;
    sum.generator_blocks += l.generator_blocks;
    sum.peak_spill_bytes = std::max(sum.peak_spill_bytes, l.peak_spill_bytes);
    sum.peak_retained = std::max(sum.peak_retained, l.peak_retained);
    sum.delta.blocks += l.delta.blocks;
    sum.delta.repolls += l.delta.repolls;
    sum.delta.bus_ns += l.delta.bus_ns;
    sum.delta.link_ns += l.delta.link_ns;
    sum.delta.spilled += l.delta.spilled;
  }
  const double n = static_cast<double>(loops.size());
  const double total_events = static_cast<double>(events) * n;
  // Throughput at the offered rate: it holds the generator's pace while
  // the service keeps up, and falls when the service lags.  The headroom
  // left is the capacity: records per second spent inside PollOnce.
  e2e.events_per_s = total_events / sum.phase_s;
  e2e.cpu_ns_per_event = sum.cpu_s * 1e9 / total_events;
  EmitEndToEnd(report, e2e);
  report.Metric("capacity_events_per_s", total_events / sum.busy_s,
                "events/s");
  report.Metric("busy_fraction", sum.busy_s / sum.phase_s, "ratio");
  report.Metric("open_loops", n, "count");
  report.Layer("gen.late_p99_ms", Percentile(late_ms, 99), "ms");
  report.Layer("gen.watermark_lag_p50_ms", Percentile(lag_ms, 50), "ms");
  report.Layer("gen.speed_x", live ? kLiveSpeed : kFleetSpeed, "ratio");
  report.Layer("service.round_s", sum.busy_s / n, "s");
  report.Layer("service.round_p99_ms", Percentile(sum.round_ms, 99), "ms");
  report.Layer("service.rounds", static_cast<double>(sum.round_ms.size()) / n,
               "count");
  report.Layer("service.idle_rounds", static_cast<double>(sum.idle_rounds) / n,
               "count");
  report.Layer("service.checkpoints", static_cast<double>(sum.checkpoints) / n,
               "count");
  report.Layer("service.output_bytes",
               static_cast<double>(sum.output_bytes) / n, "bytes");
  report.Layer("service.exposition_ms", Median(sum.exposition_ms), "ms");
  report.Layer("spill.jframes", static_cast<double>(sum.delta.spilled) / n,
               "count");
  report.Layer("spill.peak_bytes", sum.peak_spill_bytes, "bytes");
  if (tracer.on()) {
    Counters trace_delta = sum.delta;
    trace_delta.blocks -= std::min(trace_delta.blocks, sum.generator_blocks);
    Ledger ledger;
    ledger.passes = static_cast<int>(loops.size());
    ledger.wall_s = sum.phase_s;
    ledger.merge_s = sum.busy_s;
    ledger.cpu_s = sum.cpu_s;
    ledger.output_s = static_cast<double>(sum.delta.bus_ns) * 1e-9;
    ledger.jframes = sum.persisted;
    ledger.peak_retained = sum.peak_retained;
    EmitLayers(report, ledger, decode, trace_delta, decode_only,
               BootstrapSeconds(caps, tracer, parent),
               SpillProbe(keep, work, tracer, parent),
               CheckpointMicros(*caps.front(), work));
  }
}

}  // namespace jigbench
