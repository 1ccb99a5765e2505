#include "jigsaw/pipeline.h"

#include "obs/stage_timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace jig {
namespace {

// The total order the merge emits: timestamp, then channel.  Distinct
// transmissions on one channel never tie below this key in practice, and
// when they do (identical integer microsecond), unifier emission order is
// preserved — by each shard's reorder buffer (FIFO among equal keys) and by
// the k-way merge (per-shard FIFO).
using OrderKey = std::pair<UniversalMicros, std::uint8_t>;

OrderKey KeyOf(const JFrame& jf) {
  return {jf.timestamp, static_cast<std::uint8_t>(jf.channel)};
}

// Min-buffer that releases jframes once the emit frontier passes them.
//
// A binary heap over a flat vector, not the stable multimap it used to be:
// the map spent the hot path on node allocation.  An insertion sequence
// number breaks ties so equal keys still drain in FIFO order — exactly the
// multimap's upper-bound insertion behavior, which the byte-identity
// contract depends on.
class ReorderBuffer {
 public:
  ReorderBuffer(Micros horizon, std::function<void(JFrame&&)> sink)
      : horizon_(horizon), sink_(std::move(sink)) {}

  void Push(JFrame&& jf) {
    frontier_ = std::max(frontier_, jf.timestamp);
    buffer_.push_back(Entry{KeyOf(jf), next_seq_++, std::move(jf)});
    std::push_heap(buffer_.begin(), buffer_.end(), Later);
    Drain(frontier_ - horizon_);
  }

  void Flush() { Drain(std::numeric_limits<UniversalMicros>::max()); }

  std::size_t size() const { return buffer_.size(); }

 private:
  struct Entry {
    OrderKey key;
    std::uint64_t seq;  // insertion order: FIFO among equal keys
    JFrame jf;
  };

  // Heap comparator ("comes later"): the root is the least (key, seq).
  static bool Later(const Entry& a, const Entry& b) {
    return std::tie(b.key, b.seq) < std::tie(a.key, a.seq);
  }

  void Drain(UniversalMicros up_to) {
    while (!buffer_.empty() && buffer_.front().key.first <= up_to) {
      std::pop_heap(buffer_.begin(), buffer_.end(), Later);
      sink_(std::move(buffer_.back().jf));
      buffer_.pop_back();
    }
  }

  Micros horizon_;
  std::function<void(JFrame&&)> sink_;
  std::vector<Entry> buffer_;  // min-heap under Later
  std::uint64_t next_seq_ = 0;
  UniversalMicros frontier_ = std::numeric_limits<UniversalMicros>::min();
};

Micros EffectiveHorizon(const MergeConfig& config) {
  return std::max(config.reorder_horizon, config.unifier.search_window * 2);
}

constexpr std::size_t kUnifyStep = 1024;  // groups per pooled-round slice
// Most a pooled round adds to one shard: the workers fill one half of the
// watermark while the merge drains the other.  Against the plain
// `kMergeQueueWatermark - queue` budget the cap measured about 2% faster:
// 0.989 vs 1.010 s per merge + bus pass over a 1.8M-record capture.
constexpr std::size_t kRoundBudget = kMergeQueueWatermark / 2;
// Deliveries after which the merge hands off as soon as the workers are
// done rather than draining until gated; large enough that starting a
// round stays cheap next to the work in it.
constexpr std::size_t kEarlyHandOff = kMergeQueueWatermark / 4;
// Groups per inline pull slice: small, so a cold start emits after a few
// dozen groups instead of after unifying the whole available prefix.
constexpr std::size_t kPullStep = 32;

unsigned ResolveWorkers(unsigned threads, std::size_t shard_count) {
  unsigned n = threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(n, std::max<std::size_t>(shard_count, 1)));
}

struct PipelineMetrics {
  obs::Counter& shard_events = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_events_total",
      "Capture events consumed by the shard unifiers");
  obs::Counter& shard_jframes = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_jframes_total",
      "JFrames produced by the shard unifiers");
  obs::Counter& rounds = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_rounds_total", "Sharded merge rounds executed");
  obs::Gauge& queue_peak = obs::MetricRegistry::Global().GetGauge(
      "jig_shard_queue_peak",
      "High-watermark of any single shard queue depth");
  obs::Histogram& round_wait_us = obs::MetricRegistry::Global().GetHistogram(
      "jig_shard_round_wait_us", obs::LatencyBucketsUs(),
      "Poll-thread wait to join the round in flight, nonzero only while the "
      "k-way merge is gated (pool mode only)");
  obs::Counter& emitted = obs::MetricRegistry::Global().GetCounter(
      "jig_merge_jframes_emitted_total",
      "JFrames emitted by the k-way merge");
  obs::Histogram& emit_lag_us = obs::MetricRegistry::Global().GetHistogram(
      "jig_merge_emit_lag_us", obs::LatencyBucketsUs(),
      "Capture-time distance between the newest unified jframe and each "
      "emission — the live-lag metric");
  obs::Counter& polls = obs::MetricRegistry::Global().GetCounter(
      "jig_merge_polls_total", "MergeSession::Poll calls");
};

PipelineMetrics& Metrics() {
  static PipelineMetrics* m = new PipelineMetrics();
  return *m;
}

}  // namespace

void ValidateMergeConfig(const MergeConfig& config) {
  if (config.unifier.search_window <= 0) {
    throw std::invalid_argument("MergeConfig: search_window must be > 0");
  }
  if (config.reorder_horizon <= config.unifier.search_window) {
    throw std::invalid_argument(
        "MergeConfig: reorder_horizon (" +
        std::to_string(config.reorder_horizon) +
        " us) must exceed unifier.search_window (" +
        std::to_string(config.unifier.search_window) +
        " us); a shorter horizon releases jframes before the group that "
        "precedes them can still form, producing an out-of-order stream");
  }
}

// ---------------------------------------------------------------------------
// MergeSession.
//
// The merge runs in rounds over per-channel shards.  Each shard has two
// buffers: `out`, which its reorder buffer fills while a round steps the
// unifier, and `queue`, which the Poll() thread's k-way merge drains.  The
// Poll() thread k-way merges the queues as far as every shard has either a
// head or a final end-of-stream, so the emitted order does not depend on
// how or when the shards were stepped.
//
// With one worker (threads == 1, or a single shard), a round runs inline
// on the Poll() thread, steps only the shards gating the merge, and hands
// off before the merge.  With a worker pool the rounds overlap the merge:
// the Poll() thread starts round r+1, merges and delivers round r's output
// while the workers step, and joins the round once the merge is gated (the
// only time it blocks) or once the workers are done and it has delivered
// kEarlyHandOff jframes.  Then it hands off and starts the next round.
//
// The hand-off is the memory model.  With no round in flight, the Poll()
// thread splices each `out` into its `queue`, publishes end-of-stream and
// sets the next round's budget.  Nothing else crosses between the threads,
// so the per-shard structures need no locks.  Jframes are plain values:
// the unifier builds each one fresh and the sink takes it for good.
//
// Poll() never returns, nor throws, with a round in flight: the streams
// are read only inside Poll(), and the session is resumable because
// Poll() simply stops scheduling rounds once no shard can advance.

struct MergeSession::Impl {
  struct LiveShard {
    // Stepping side: touched by the round that steps this shard.
    std::deque<JFrame> out;  // reorder output since the last hand-off
    std::unique_ptr<ReorderBuffer> reorder;
    std::unique_ptr<Unifier> unifier;
    bool flushed = false;     // unifier done and reorder flushed
    std::size_t budget = 0;   // jframes this round may add to `out`
    // Merge side: touched only by the Poll() thread.
    std::deque<JFrame> queue;     // ordered output awaiting the k-way merge
    bool exhausted = false;       // `flushed` as of the last hand-off
  };

  TraceSet& traces;
  MergeConfig config;
  std::function<void(JFrame&&)> sink;

  bool bootstrapped = false;
  bool done = false;
  bool failed = false;
  std::vector<bool> window_filled;  // per-trace bootstrap readiness cache
  // Per-trace bootstrap window end (NTP frame), latched off the first
  // record; the readiness scan keeps each stream's cursor across polls so
  // a poll only reads records that arrived since the last one.
  std::vector<std::optional<std::int64_t>> window_end;
  BootstrapResult bootstrap;
  UnifyStats final_stats;  // shard stats, latched before teardown

  std::vector<ChannelShard> shards;
  bool partitioned = false;
  std::vector<std::unique_ptr<LiveShard>> live;
  unsigned workers = 1;

  // Worker pool (only when workers > 1).  A round is in flight from
  // StartRound until FinishRound or AwaitRound sees `remaining` reach 0.
  std::vector<std::thread> pool;
  std::mutex pool_mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  // Workers still stepping the round in flight.  Written under pool_mu;
  // atomic only so the merge can read it between deliveries, as a hint:
  // FinishRound still joins under the mutex.
  std::atomic<std::size_t> remaining{0};
  bool shutdown = false;
  bool round_progress = false;
  std::vector<std::exception_ptr> round_errors;

  std::uint64_t emitted = 0;
  std::size_t peak_retained = 0;

  // Live-lag frontiers, universal-time domain.  capture_frontier is the
  // max timestamp any unifier has pushed into a reorder buffer (atomic
  // max — shard workers race); emit_frontier is the last emitted jframe's
  // timestamp (Poll thread only; atomic so live_lag_us() can read it from
  // another thread).  Their difference is how far the merge's output
  // trails the freshest unified capture data.
  static constexpr std::int64_t kNoFrontier =
      std::numeric_limits<std::int64_t>::min();
  std::atomic<std::int64_t> capture_frontier{kNoFrontier};
  std::atomic<std::int64_t> emit_frontier{kNoFrontier};

  void NoteCaptured(UniversalMicros ts) {
    std::int64_t seen = capture_frontier.load(std::memory_order_relaxed);
    while (ts > seen && !capture_frontier.compare_exchange_weak(
                            seen, ts, std::memory_order_relaxed)) {
    }
  }

  // Every emission funnels through here so the emitted counter, the emit
  // frontier and the lag histogram cannot drift apart.
  void Emit(JFrame&& jf) {
    ++emitted;
    emit_frontier.store(jf.timestamp, std::memory_order_relaxed);
    if (obs::Enabled()) {
      PipelineMetrics& m = Metrics();
      m.emitted.Add(1);
      const std::int64_t cap =
          capture_frontier.load(std::memory_order_relaxed);
      if (cap != kNoFrontier) {
        m.emit_lag_us.Observe(ClampedLagUs(cap, jf.timestamp));
      }
    }
    sink(std::move(jf));
  }

  std::int64_t LiveLagUs() const {
    const std::int64_t cap =
        capture_frontier.load(std::memory_order_relaxed);
    const std::int64_t emit = emit_frontier.load(std::memory_order_relaxed);
    if (cap == kNoFrontier || emit == kNoFrontier) return 0;
    return ClampedLagUs(cap, emit);
  }

  Impl(TraceSet& t, const MergeConfig& c, std::function<void(JFrame&&)> s)
      : traces(t), config(c), sink(std::move(s)) {}

  ~Impl() {
    StopPool();
    // Destroy the unifiers/reorder buffers before handing the shard streams
    // back (they hold references into the shard trace sets).
    live.clear();
    Reassemble();
  }

  void Reassemble() {
    if (!partitioned) return;
    partitioned = false;
    traces.AdoptShards(std::move(shards));
    shards.clear();
  }

  // ---- bootstrap phase ----------------------------------------------------

  // Has trace i's bootstrap window filled?  Mirrors the window scan of
  // BootstrapSynchronize: the window is anchored at the trace's own first
  // record, so it has filled once a record at/after window-end exists — or
  // once the trace finalized with less than a window of data.  The stream
  // cursor persists across polls (data only ever grows), so each poll
  // reads only what arrived since the last; BootstrapSynchronize and the
  // unifiers rewind everything afterwards anyway.
  bool ScanBootstrapReady(std::size_t i) {
    RecordStream& stream = traces.at(i);
    const std::int64_t ntp0 = stream.header().ntp_utc_of_local_zero_us;
    if (!window_end[i]) {
      stream.Rewind();
      const CaptureRecord* first = stream.NextRef();
      if (first == nullptr) return stream.Finalized();
      window_end[i] = ntp0 + first->timestamp + config.bootstrap.window;
      if (ntp0 + first->timestamp >= *window_end[i]) return true;
    }
    while (const CaptureRecord* rec = stream.NextRef()) {
      if (ntp0 + rec->timestamp >= *window_end[i]) return true;
    }
    return stream.Finalized();
  }

  bool TryBootstrap() {
    if (window_filled.empty()) {
      window_filled.assign(traces.size(), false);
      window_end.assign(traces.size(), std::nullopt);
    }
    bool all = true;  // an empty set falls through: bootstrap throws
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (!window_filled[i]) window_filled[i] = ScanBootstrapReady(i);
      all = all && window_filled[i];
    }
    if (!all) return false;
    // Bootstrap is always global: reference sets bridge channels through
    // the monitors' shared capture clocks, which a per-shard pass cannot
    // see.  Traces are re-read from offset zero — the "late bootstrap"
    // path: nothing was buffered while waiting, the files are the buffer.
    bootstrap = BootstrapSynchronize(traces, config.bootstrap);
    SetupMerge();
    bootstrapped = true;
    return true;
  }

  void SetupMerge() {
    shards = traces.PartitionByChannel();
    partitioned = true;
    live.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      auto ls = std::make_unique<LiveShard>();
      std::deque<JFrame>* out = &ls->out;
      ls->reorder = std::make_unique<ReorderBuffer>(
          EffectiveHorizon(config),
          [out](JFrame&& jf) { out->push_back(std::move(jf)); });
      ReorderBuffer* reorder = ls->reorder.get();
      ls->unifier = std::make_unique<Unifier>(
          shards[s].traces, bootstrap.Slice(shards[s].source_index),
          config.unifier,
          [this, reorder](JFrame&& jf) {
            NoteCaptured(jf.timestamp);
            reorder->Push(std::move(jf));
          });
      live.push_back(std::move(ls));
    }
    // The unifiers' rewind was the last one: from here on a stream may
    // free each block once it is consumed.
    for (ChannelShard& shard : shards) {
      for (std::size_t i = 0; i < shard.traces.size(); ++i) {
        shard.traces.at(i).EndRewinds();
      }
    }
    HandOff();  // sets the first round's budgets
    workers = ResolveWorkers(config.threads, shards.size());
    if (workers > 1) StartPool();
  }

  // ---- worker rounds ------------------------------------------------------

  // Steps one shard, `slice` groups at a time, until it starves, exhausts,
  // or its `out` holds `cap` jframes.  Returns true if anything was
  // consumed or produced.
  bool StepShard(LiveShard& ls, std::size_t slice, std::size_t cap) {
    if (ls.flushed) return false;
    // Metrics ride the stats deltas of the whole call — one pair of
    // counter adds per StepShard, nothing per event.
    const std::uint64_t events_at_entry = ls.unifier->stats().events_in;
    const std::uint64_t jframes_at_entry = ls.unifier->stats().jframes;
    bool progress = false;
    while (ls.out.size() < cap) {
      const std::uint64_t before = ls.unifier->stats().events_in;
      const std::size_t queued = ls.out.size();
      const UnifyStep step = ls.unifier->Step(slice);
      progress = progress || ls.unifier->stats().events_in != before ||
                 ls.out.size() != queued;
      if (step == UnifyStep::kStarved) break;
      if (step == UnifyStep::kExhausted) {
        ls.reorder->Flush();
        ls.flushed = true;
        progress = true;
        break;
      }
    }
    if (obs::Enabled()) {
      PipelineMetrics& m = Metrics();
      const UnifyStats& after = ls.unifier->stats();
      m.shard_events.Add(after.events_in - events_at_entry);
      m.shard_jframes.Add(after.jframes - jframes_at_entry);
    }
    return progress;
  }

  bool WorkerRound(unsigned w) {
    bool progress = false;
    for (std::size_t s = w; s < live.size(); s += workers) {
      LiveShard& ls = *live[s];
      progress = StepShard(ls, kUnifyStep, ls.budget) || progress;
    }
    return progress;
  }

  void StartPool() {
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([this, w] {
        std::uint64_t seen = 0;
        for (;;) {
          std::unique_lock lk(pool_mu);
          start_cv.wait(lk,
                        [&] { return shutdown || generation != seen; });
          if (shutdown) return;
          seen = generation;
          lk.unlock();
          bool progress = false;
          std::exception_ptr error;
          try {
            progress = WorkerRound(w);
          } catch (...) {
            error = std::current_exception();
          }
          lk.lock();
          round_progress = round_progress || progress;
          if (error) round_errors.push_back(error);
          if (--remaining == 0) {
            lk.unlock();
            done_cv.notify_all();
          }
        }
      });
    }
  }

  void StopPool() {
    if (pool.empty()) return;
    {
      std::lock_guard lk(pool_mu);
      shutdown = true;
    }
    start_cv.notify_all();
    for (auto& t : pool) t.join();
    pool.clear();
  }

  // The inline round pulls: it steps only the shards that gate the merge
  // (not exhausted, nothing consumable), each just until a head appears or
  // it starves, then hands off.  Returns whether any shard progressed.
  bool PullRound() {
    Metrics().rounds.Add(1);
    bool progress = false;
    for (auto& ls : live) {
      if (ls->exhausted || !ls->queue.empty()) continue;
      progress = StepShard(*ls, kPullStep, 1) || progress;
    }
    HandOff();
    return progress;
  }

  // The pooled round steps every shard up to its budget on the workers.
  void StartRound() {
    Metrics().rounds.Add(1);
    {
      std::lock_guard lk(pool_mu);
      round_progress = false;
      remaining = pool.size();
      ++generation;
    }
    start_cv.notify_all();
  }

  void AwaitRound(std::unique_lock<std::mutex>& lk) {
    obs::StageTimer wait_timer(Metrics().round_wait_us);
    done_cv.wait(lk, [&] { return remaining == 0; });
  }

  // Joins the round in flight, rethrows a worker's error, and hands off.
  // Returns whether any shard progressed.
  bool FinishRound() {
    std::unique_lock lk(pool_mu);
    AwaitRound(lk);
    if (!round_errors.empty()) {
      const auto error = round_errors.front();
      round_errors.clear();
      std::rethrow_exception(error);
    }
    HandOff();
    return round_progress;
  }

  // With no round in flight: moves every shard's new output behind its
  // merge queue, publishes end-of-stream and sets the next round's budget.
  // The budget keeps queue + out within kMergeQueueWatermark (plus one
  // step's overshoot), the per-shard retention bound, and at most
  // kRoundBudget.
  void HandOff() {
    for (auto& ls : live) {
      if (ls->queue.empty()) {
        ls->queue.swap(ls->out);
      } else {
        for (JFrame& jf : ls->out) ls->queue.push_back(std::move(jf));
        ls->out.clear();
      }
      ls->exhausted = ls->flushed;
      const std::size_t queued =
          std::min(ls->queue.size(), kMergeQueueWatermark);
      ls->budget = std::min(kMergeQueueWatermark - queued, kRoundBudget);
      if (obs::Enabled()) {
        Metrics().queue_peak.UpdateMax(
            static_cast<std::int64_t>(ls->queue.size()));
      }
    }
    ObserveRetention();
  }

  // ---- consumer merge -----------------------------------------------------

  // Emits the globally least OrderKey among the shard heads, exactly like
  // the batch k-way merge: correctness needs a head (or final
  // end-of-stream) from every shard before each emission, so a starved
  // shard with nothing consumable gates the stream — the watermark stall.
  // Returns once gated, or early once it has delivered `yield_after`
  // jframes and the round in flight has finished: the hand-off then comes
  // as soon as the workers are idle, not only once the merge runs dry.
  std::size_t MergeQueues(std::size_t yield_after) {
    std::size_t merged = 0;
    const std::size_t n = live.size();
    for (;;) {
      std::size_t best = n;
      const JFrame* best_head = nullptr;
      bool gated = false;
      for (std::size_t i = 0; i < n; ++i) {
        LiveShard& ls = *live[i];
        if (ls.queue.empty()) {
          if (!ls.exhausted) {
            gated = true;
            break;
          }
          continue;
        }
        const JFrame* head = &ls.queue.front();
        if (best == n || KeyOf(*head) < KeyOf(*best_head)) {
          best = i;
          best_head = head;
        }
      }
      if (gated || best == n) return merged;
      if (merged >= yield_after && remaining.load() == 0) return merged;
      JFrame jf = std::move(live[best]->queue.front());
      live[best]->queue.pop_front();
      ++merged;
      Emit(std::move(jf));  // user code runs on the Poll() thread
    }
  }

  std::size_t Retained() const {
    std::size_t total = 0;
    for (const auto& ls : live) {
      total += ls->queue.size() + ls->out.size() + ls->reorder->size();
    }
    return total;
  }

  void ObserveRetention() {
    peak_retained = std::max(peak_retained, Retained());
  }

  // ---- polling ------------------------------------------------------------

  Status PollInner() {
    Metrics().polls.Add(1);
    if (done) return Status::kDone;
    if (!bootstrapped && !TryBootstrap()) return Status::kBootstrapping;
    for (;;) {
      bool stepped = false;
      std::size_t merged = 0;
      if (pool.empty()) {
        stepped = PullRound();
        merged = MergeQueues(std::numeric_limits<std::size_t>::max());
      } else {
        // Round r+1 steps while this thread delivers round r's output.
        StartRound();
        try {
          merged = MergeQueues(kEarlyHandOff);
        } catch (...) {
          std::unique_lock lk(pool_mu);
          AwaitRound(lk);  // no round outlives Poll(), not even on a throw
          throw;
        }
        stepped = FinishRound();
      }
      if (!stepped && merged == 0) break;
    }
    for (const auto& ls : live) {
      if (!ls->exhausted || !ls->queue.empty()) {
        return Status::kStarved;
      }
    }
    done = true;
    // Tear the shard machinery down now, not at destruction: the contract
    // hands the streams back to the caller's TraceSet as soon as the
    // session completes, so the set is reusable while the session (and
    // its stats) live on.
    StopPool();
    final_stats = Stats();
    live.clear();  // unifiers reference the shard trace sets — drop first
    Reassemble();
    return Status::kDone;
  }

  UnifyStats Stats() const {
    UnifyStats total = final_stats;
    for (const auto& ls : live) total += ls->unifier->stats();
    return total;
  }
};

MergeSession::MergeSession(TraceSet& traces, const MergeConfig& config,
                           std::function<void(JFrame&&)> sink)
    : impl_(std::make_unique<Impl>(traces, config, std::move(sink))) {
  ValidateMergeConfig(config);
}

MergeSession::~MergeSession() = default;

MergeSession::Status MergeSession::Poll() {
  if (impl_->failed) {
    throw std::logic_error("MergeSession: poll after a failed poll");
  }
  try {
    return impl_->PollInner();
  } catch (...) {
    impl_->failed = true;
    throw;
  }
}

MergeStreamStats MergeSession::Drain() {
  for (;;) {
    const Status status = Poll();
    if (status == Status::kDone) break;
    // Only live sources ever starve; give their writers a moment.  Batch
    // inputs complete in a single Poll with no sleeps.
    std::this_thread::sleep_for(std::chrono::microseconds(
        status == Status::kBootstrapping ? 1000 : 200));
  }
  MergeStreamStats out;
  out.bootstrap = impl_->bootstrap;
  out.stats = impl_->Stats();
  return out;
}

bool MergeSession::bootstrapped() const { return impl_->bootstrapped; }

const BootstrapResult& MergeSession::bootstrap() const {
  return impl_->bootstrap;
}

UnifyStats MergeSession::stats() const { return impl_->Stats(); }

std::uint64_t MergeSession::jframes_emitted() const { return impl_->emitted; }

std::size_t MergeSession::retained_jframes() const {
  return impl_->Retained();
}

std::size_t MergeSession::peak_retained_jframes() const {
  return impl_->peak_retained;
}

std::int64_t MergeSession::live_lag_us() const { return impl_->LiveLagUs(); }

MergeStreamStats MergeTracesStreaming(TraceSet& traces,
                                      const MergeConfig& config,
                                      std::function<void(JFrame&&)> sink) {
  MergeSession session(traces, config, std::move(sink));
  return session.Drain();
}

MergeResult MergeTraces(TraceSet& traces, const MergeConfig& config) {
  MergeResult result;
  auto stream = MergeTracesStreaming(
      traces, config,
      [&result](JFrame&& jf) { result.jframes.push_back(std::move(jf)); });
  result.bootstrap = std::move(stream.bootstrap);
  result.stats = stream.stats;
  return result;
}

}  // namespace jig
