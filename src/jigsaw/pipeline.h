// End-to-end merge pipeline: bootstrap → unify → time-ordered jframes.
//
// Wraps bootstrap synchronization and the streaming unifier behind one
// call, and restores exact timestamp ordering with a bounded reorder buffer
// (the unifier emits jframes in seed-pop order, which can run a few
// microseconds ahead of a slightly earlier group still forming).  The merge
// is a single pass over each trace — the paper's efficiency requirement for
// online operation.
//
// Channel sharding: bootstrap runs globally (channel bridging needs every
// monitor's shared clock), then the trace set is partitioned by channel and
// one unifier runs per channel shard — on a small thread pool, or inline on
// the calling thread when there is one worker.  Shard outputs are
// recombined by a bounded k-way merge keyed on (timestamp, channel), so the
// stream equals one global unifier's output stably sorted on that key, and
// is byte-identical for every `threads` setting.
//
// Live operation: MergeSession is the resumable form of the same pipeline.
// It runs against tail-follow trace sources (TailFileTrace) that are still
// being written: each Poll() advances exactly as far as the per-radio low
// watermark allows and returns when every further group would need data a
// radio has not produced yet.  Once every writer finalizes, the cumulative
// jframe stream is byte-identical to a batch merge of the finished files —
// MergeTracesStreaming is literally a drain-to-completion wrapper over a
// MergeSession, so there is one code path, not two.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "jigsaw/bootstrap.h"
#include "jigsaw/unifier.h"
#include "obs/metrics.h"

namespace jig {

struct MergeConfig {
  BootstrapConfig bootstrap;
  UnifierConfig unifier;
  // Reorder horizon: jframes are released once the stream has advanced this
  // far past them.  Must exceed the search window (validated at entry — a
  // shorter horizon would release jframes before an earlier group can still
  // form).  The pipeline always keeps at least a 2x search-window margin:
  // the effective horizon is max(reorder_horizon, 2 * search_window), since
  // a group's median timestamp can trail its seed by a full window.
  Micros reorder_horizon = Milliseconds(50);
  // Worker threads unifying channel shards.  1 = no pool: the Poll()
  // thread steps the shards inline, each only as far as the k-way merge
  // needs; 0 = auto (one worker per channel shard, capped by the hardware);
  // N caps the pool at N workers, which then interleave the shards
  // cooperatively.  Every setting produces a byte-identical jframe stream.
  unsigned threads = 1;
  // Unused: the merge has no spill tier.  A shard gated by the k-way merge
  // stops at kMergeQueueWatermark and its unread records wait in their
  // trace files or socket queue (docs/ARCHITECTURE.md, "Why the merge has
  // no spill").  Kept only because an existing caller
  // (bench/e2e/service.cc) still sets it.
  std::filesystem::path spill_dir;
};

// Throws std::invalid_argument on inconsistent configuration (today:
// reorder_horizon <= unifier.search_window, or a non-positive window).
// Called by MergeTraces / MergeTracesStreaming at entry.
void ValidateMergeConfig(const MergeConfig& config);

struct MergeResult {
  std::vector<JFrame> jframes;  // strictly time-ordered
  BootstrapResult bootstrap;
  UnifyStats stats;
};

// Convenience batch merge: collects every jframe in memory.
MergeResult MergeTraces(TraceSet& traces, const MergeConfig& config = {});

// Streaming variant: jframes are delivered to `sink` in timestamp order.
// The sink runs on the calling thread in every threading mode.
struct MergeStreamStats {
  BootstrapResult bootstrap;
  UnifyStats stats;
};
MergeStreamStats MergeTracesStreaming(TraceSet& traces,
                                      const MergeConfig& config,
                                      std::function<void(JFrame&&)> sink);

// Per-shard buffering bound of the pooled rounds: a shard's merge queue
// plus the output of the round in flight stay within this many jframes
// (each round's budget is set at the hand-off from what the merge has not
// yet taken), so retention stays bounded even when one radio lags far
// behind the rest (the lagging shard gates emission; the others throttle
// here, their unread records waiting in the trace files or socket queues).
inline constexpr std::size_t kMergeQueueWatermark = 4096;

// Lag between a captured frontier and an emitted timestamp, clamped at
// zero.  Lag means "how far output trails capture": an emission that
// momentarily outruns a racing capture-frontier update is zero lag, not
// negative lag — a raw difference here once fed negative samples into
// jig_merge_emit_lag_us and let live_lag_us() report below zero.
constexpr std::int64_t ClampedLagUs(std::int64_t capture_frontier_us,
                                    std::int64_t emitted_ts_us) {
  return capture_frontier_us > emitted_ts_us
             ? capture_frontier_us - emitted_ts_us
             : 0;
}

// Resumable merge over (possibly live) trace sources.
//
// Lifecycle: construct over a TraceSet (which must outlive the session;
// the streams are handed back — reassembled from any channel partition —
// when the session completes or is destroyed), then call Poll() whenever
// the underlying sources may have grown:
//
//   * kBootstrapping — some radio's bootstrap sync window has not filled
//     yet.  Nothing is emitted; the session buffers nothing (the data sits
//     in the trace files) and will re-read every trace from offset zero
//     once the window fills — late bootstrap costs nothing but the wait.
//   * kStarved — bootstrap is done and the merge advanced as far as the
//     per-radio low watermark allows; at least one live trace must grow
//     (or finalize) before any further group can be formed.
//   * kDone — every source finalized, every jframe emitted.  The
//     cumulative stream is byte-identical to MergeTraces over the same
//     (finished) inputs for every `threads` setting.
//
// The sink runs on the Poll()-calling thread in every threading mode.
// With a worker pool it runs while the workers unify the next round, so
// it must not read the streams or call stats() / retained_jframes(); read
// those between polls.  Poll() returns, or throws, only once no worker is
// running: between polls the caller owns the streams again.
class MergeSession {
 public:
  enum class Status { kBootstrapping, kStarved, kDone };

  // Validates the config (throws std::invalid_argument like the batch
  // entry points).  No trace is read until the first Poll().
  MergeSession(TraceSet& traces, const MergeConfig& config,
               std::function<void(JFrame&&)> sink);
  ~MergeSession();

  MergeSession(const MergeSession&) = delete;
  MergeSession& operator=(const MergeSession&) = delete;

  // Advances until quiescent: returns only when nothing further can happen
  // without new data.  Never blocks waiting for a writer.
  Status Poll();

  // Polls to completion, sleeping briefly whenever the sources are starved
  // — the batch semantics.  Requires every writer to eventually finalize.
  MergeStreamStats Drain();

  bool bootstrapped() const;
  // Valid once bootstrapped() is true.
  const BootstrapResult& bootstrap() const;
  // Running totals; complete once Poll() returned kDone.
  UnifyStats stats() const;
  std::uint64_t jframes_emitted() const;
  // Jframes currently buffered between the unifiers and the sink (reorder
  // buffers + shard queues) and the session-lifetime high-water mark — the
  // bounded-retention guarantee under starved/uneven sources.
  std::size_t retained_jframes() const;
  std::size_t peak_retained_jframes() const;
  // How far (capture-time us) the emitted stream trails the newest jframe
  // any unifier has produced.  0 until both frontiers exist.  For a live
  // follow this is the merge lag a dashboard wants; for a batch merge it is
  // just the reorder-horizon depth at the moment of the call.
  std::int64_t live_lag_us() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace jig
