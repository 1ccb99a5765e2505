// Frame unification and continual resynchronization (paper Section 4.2).
//
// A single streaming pass over all traces.  The head instance of every
// trace sits in one global queue ordered by universal time; Jigsaw pops the
// earliest instance, sweeps the queue within a search window for instances
// with identical content (comparing length, rate and FCS first to
// short-circuit), and unifies the group into a jframe timestamped at the
// median instance.  Groups whose dispersion exceeds a threshold drive
// per-trace clock corrections, so almost every unique data frame continually
// resynchronizes the deployment; skew and drift are compensated predictively
// between corrections.  Corrupted instances attach to a matching valid
// jframe by transmitter/length, and are never used for synchronization or
// higher-layer reconstruction.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "jigsaw/bootstrap.h"
#include "jigsaw/clock_state.h"
#include "jigsaw/jframe.h"
#include "jigsaw/reference.h"
#include "trace/trace_set.h"

namespace jig {

struct UnifierConfig {
  Micros search_window = Milliseconds(10);
  // Non-unique frames (ACKs to the same station, CTS-to-self with the same
  // duration...) can repeat identical bytes within the search window, so
  // their instances only unify within this much tighter spread — wider than
  // any plausible clock error between resyncs, narrower than back-to-back
  // control frames.
  Micros duplicate_window = 150;
  // Minimum group dispersion before paying for a resynchronization (the
  // paper uses 10 us; this does not bound achievable accuracy).
  Micros resync_dispersion_threshold = 10;
  double skew_ewma_alpha = 0.3;
  // Gaps shorter than this contribute corrections but no skew sample.
  Micros min_skew_elapsed = Milliseconds(20);
  // Disable proactive skew compensation (ablation knob).
  bool compensate_skew = true;
};

struct UnifyStats {
  std::uint64_t events_in = 0;
  std::uint64_t valid_in = 0;
  std::uint64_t fcs_error_in = 0;
  std::uint64_t phy_error_in = 0;
  std::uint64_t events_unified = 0;  // instances placed into jframes
  std::uint64_t jframes = 0;
  std::uint64_t error_instances_attached = 0;
  std::uint64_t error_events_dropped = 0;
  std::uint64_t resyncs = 0;

  double EventsPerJframe() const {
    return jframes == 0 ? 0.0
                        : static_cast<double>(events_unified) /
                              static_cast<double>(jframes);
  }

  // Shard accumulation: every counter is a plain sum, so stats from
  // independently-unified channel shards combine into exactly the stats a
  // single global pass would have produced.
  UnifyStats& operator+=(const UnifyStats& other) {
    events_in += other.events_in;
    valid_in += other.valid_in;
    fcs_error_in += other.fcs_error_in;
    phy_error_in += other.phy_error_in;
    events_unified += other.events_unified;
    jframes += other.jframes;
    error_instances_attached += other.error_instances_attached;
    error_events_dropped += other.error_events_dropped;
    resyncs += other.resyncs;
    return *this;
  }
};

// Result of an incremental unification slice.
enum class UnifyStep {
  kMore,       // made progress; more groups may remain — call Step again
  kStarved,    // a live trace has no complete record on disk yet: no group
               // can be formed safely until its writer appends or finalizes
  kExhausted,  // every trace is at final EOF and the queue is drained
};

class Unifier {
 public:
  // Sink receives jframes approximately ordered by timestamp; exact
  // ordering is restored by the pipeline's reorder buffer.
  using JFrameSink = std::function<void(JFrame&&)>;

  Unifier(TraceSet& traces, const BootstrapResult& bootstrap,
          UnifierConfig config, JFrameSink sink);

  // Runs the merge to completion (single pass over all traces).  Only for
  // finalized inputs: throws std::logic_error if a live trace starves —
  // incremental callers must use Step.
  void Run();
  // Incremental: processes at most `max_jframes` groups.
  //
  // Live-source contract: a group is only ever formed while every active
  // trace has a head instance queued — the per-radio low watermark.  When a
  // tail-follow trace reports "no data yet", Step returns kStarved without
  // forming further groups (a group formed without the starved radio's next
  // record could differ from the batch merge), which is what makes the live
  // stream byte-identical to the batch stream by construction.
  UnifyStep Step(std::size_t max_jframes);

  const UnifyStats& stats() const { return stats_; }
  const TraceClockState& clock_state(std::size_t i) const {
    return clocks_[i];
  }

 private:
  struct QueueEntry {
    double universal = 0.0;  // key at insertion
    std::size_t trace = 0;
    // Ordering: time, then trace for determinism.  Keys are unique (one
    // entry per trace), so this is a strict total order and any
    // repeated-min structure pops in exactly sorted order.
    bool operator<(const QueueEntry& other) const {
      if (universal != other.universal) return universal < other.universal;
      return trace < other.trace;
    }
  };
  struct Head {
    // Borrowed from the trace's RecordStream (NextRef): valid until that
    // trace is advanced again, which only happens when this head leaves the
    // queue for good.  Avoids copying every capture's byte buffer.
    const CaptureRecord* record = nullptr;
    double universal = 0.0;
    bool valid_frame = false;          // outcome == kOk
    bool unique_reference = false;
    Channel channel = Channel::kCh1;   // capturing radio's channel
    ContentKey key;
  };

  // Loads the next usable record of trace i into heads_[i] and queues it.
  // Returns false when the trace is a live source with no complete record
  // available yet (the trace stays active and is parked in starved_).
  bool Refill(std::size_t trace);
  // Re-attempts every starved trace; true when none remain starved.
  bool RefillStarved();
  void ProcessOneGroup();
  void QueuePush(QueueEntry entry);
  QueueEntry QueuePopMin();

  TraceSet& traces_;
  UnifierConfig config_;
  JFrameSink sink_;
  std::vector<TraceClockState> clocks_;
  std::vector<bool> active_;            // synced and not exhausted
  std::vector<std::optional<Head>> heads_;
  // Binary min-heap on QueueEntry (std::push_heap/pop_heap with a reversed
  // comparator).  Replaced std::set, which spent ~24% of merge runtime on
  // node allocation and pointer chasing; pop order is identical because the
  // key order is strict and total.
  std::vector<QueueEntry> queue_;
  std::vector<std::size_t> starved_;    // active traces awaiting data
  UnifyStats stats_;
  // Scratch reused across groups, so group bookkeeping allocates nothing
  // in steady state.  The parsed frame moves into each jframe.
  std::vector<std::size_t> candidates_;
  std::vector<std::size_t> group_;
  std::vector<std::size_t> leftovers_;
  std::vector<double> valid_times_;
  ParsedFrame parse_scratch_;
};

}  // namespace jig
