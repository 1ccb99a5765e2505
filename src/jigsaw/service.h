// Always-on monitoring service: many deployments, one poll loop, durable
// output with checkpointed crash recovery (docs/ARCHITECTURE.md, "The
// monitoring service"; docs/FORMATS.md, ".jigc checkpoints").
//
// The paper's deployment goal was continuous unified monitoring of a
// production network, not one-shot batch merges.  This layer promotes the
// live-follow demo loop into that shape:
//
//   * DeploymentMonitor — one deployment (a directory of growing .jigt
//     traces): non-blocking trace discovery, a resumable MergeSession, a
//     durable output log of the merged jframe stream (.jigs segment
//     format, out-<seq>.jigs), the stock analysis chain, rolling
//     retention over the log, and a .jigc checkpoint after every round
//     that changed durable state.
//   * MonitorService — owns many monitors and multiplexes them through a
//     single PollOnce() round-robin (no monitor ever blocks the loop:
//     discovery is one TraceSet::ScanFollowedDirectory per round, the
//     merge uses MergeSession::Poll), and exposes the per-deployment
//     snapshot and the process metric registry as atomically-replaced
//     files.
//
// Crash recovery extends the determinism contract into the restart
// dimension: a monitor killed at ANY point and restarted over the same
// state directory appends exactly the jframes the uninterrupted run would
// have — the cumulative output log is byte-identical (pinned in
// tests/service_test.cc).  The mechanism leans on the pipeline's late-
// bootstrap idiom (a MergeSession re-reads every trace from offset zero
// and buffers nothing): recovery derives the durable jframe count D from
// the log itself — the checkpoint's segment table gives the newest
// segment's base index, a tail-mode read of its (possibly torn) tail
// gives the count of complete jframes — repairs the torn tail, replays
// the merge from zero, and suppresses the first D sink deliveries from
// the log while still feeding them to the analysis chain (which
// deterministically regenerates its windowed state).  The checkpoint is
// therefore a frontier record, not a WAL: no ordering of emit vs
// checkpoint can lose or duplicate output, because the log is the single
// source of truth for D.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/spill.h"
#include "trace/trace_set.h"

namespace jig {

// ---------------------------------------------------------------- .jigc

inline constexpr char kCheckpointMagic[4] = {'J', 'I', 'G', 'C'};
inline constexpr std::uint32_t kCheckpointVersion = 1;

// Per-radio consumption frontier at checkpoint time: how many records of
// the radio's trace the merge had consumed, and whether the trace had
// finalized.  Diagnostic (jigtool serve status / post-mortems) — recovery
// replays from offset zero, so the frontier is reported, not seeked to —
// except for the count of radios, which discovery reuses as the number of
// traces to wait for after a restart.
struct RadioFrontier {
  std::uint32_t radio = 0;
  std::uint64_t records_seen = 0;
  bool finalized = false;
};

// One output-log segment's place in the emitted jframe stream.  The base
// index is what makes a torn tail repairable: durable = base + (complete
// jframes readable from the newest segment).
struct OutputSegmentInfo {
  std::uint64_t sequence = 0;
  std::uint64_t base_index = 0;     // stream index of its first jframe
  std::int64_t max_timestamp = 0;   // newest jframe capture time (us)
  std::uint64_t bytes = 0;          // on-disk size at checkpoint time
  bool sealed = false;              // finalize marker written
};

struct Checkpoint {
  std::string deployment;
  std::uint64_t emitted = 0;  // jframes appended to the log (advisory)
  // The open segment's identity, recorded even before its file exists
  // (segments are created lazily on first append).
  std::uint64_t active_sequence = 0;
  std::uint64_t active_base = 0;
  std::vector<RadioFrontier> frontiers;     // ordered by radio id
  std::vector<OutputSegmentInfo> segments;  // ordered by sequence
};

// Atomic save (temp file + rename — a reader or a crash never sees a torn
// checkpoint) and strict load.  Load throws TraceTruncatedError on a
// short file and TraceCorruptError on bad magic/version/CRC.
void SaveCheckpoint(const std::filesystem::path& path, const Checkpoint& cp);
Checkpoint LoadCheckpoint(const std::filesystem::path& path);

// ------------------------------------------------------------ fault seams

// Deterministic kill points on the durable-state commit path, for
// tests/fault_injection.h: each hook may throw to simulate a crash at
// that exact point.  Default-constructed hooks are no-ops; production
// code never sets them.
struct ServiceFaultHooks {
  // After jframe `index` was handed to the output writer (possibly still
  // in its pending block) — "crash during output write".
  std::function<void(std::uint64_t index)> after_output_append;
  // Around the checkpoint replace — "crash between emit and checkpoint"
  // and "crash between checkpoint and the next emit".
  std::function<void()> before_checkpoint;
  std::function<void()> after_checkpoint;
};

// --------------------------------------------------------- configuration

struct DeploymentConfig {
  // Unique within the service; labels this deployment's metrics and names
  // its checkpoint.  Keep it to [A-Za-z0-9_.-].
  std::string name;
  std::filesystem::path trace_dir;  // directory of (growing) .jigt traces
  // Private state root: <state_dir>/checkpoint.jigc and <state_dir>/out/
  // (output log).
  std::filesystem::path state_dir;
  MergeConfig merge;
  // Traces to wait for before bootstrapping, under the followed-directory
  // rule (TraceSet::ScanFollowedDirectory): discovery starts the merge on
  // the first scan that opens at least max(expected_traces, 1) published
  // headers, in (radio id, path) order.  Deployments whose radios attach
  // late MUST set this (the merge's trace set is fixed once
  // bootstrapped).  After a restart the checkpoint's radio count raises
  // this floor automatically.
  std::size_t expected_traces = 0;
  // Rolling retention over SEALED output segments (the open segment is
  // never deleted): capture-time window behind the newest emitted jframe
  // (0 = unbounded) and a total bytes-on-disk cap (0 = uncapped; the open
  // segment may transiently exceed it by up to one segment).
  std::int64_t retention_window_us = 0;
  std::uint64_t max_output_bytes = 0;
  // Output segments rotate (seal + start the next) at about this size.
  std::uint64_t output_segment_bytes = 4ull << 20;
  // Jframes per compressed block inside an output segment.  Smaller
  // blocks tighten the durability granularity (a crash loses at most one
  // uncut block); the tests shrink it to place torn tails precisely.
  std::size_t output_records_per_block = 256;
  // Run the stock analysis chain (link / interference / TCP loss) on the
  // emitted stream and include its snapshot in Status().  Off for fleets
  // where only the durable log matters.
  bool analysis = false;
  ServiceFaultHooks hooks;  // test-only kill points
};

// Integer-only status row (floats stay out of the service's own
// expositions; rate-like values are parts-per-million).
struct DeploymentStatus {
  std::string name;
  std::string state;  // "discovering" | "running" | "done" | "failed"
  std::uint64_t jframes = 0;    // durable in the output log
  std::uint64_t recovered = 0;  // replayed + suppressed after restart
  std::uint64_t output_bytes = 0;
  std::uint64_t output_segments = 0;
  std::uint64_t retained_jframes = 0;  // buffered inside the merge
  std::int64_t lag_us = 0;
  std::uint64_t checkpoint_age_ms = 0;
  // Analysis snapshot (zero when analysis is off).
  std::uint64_t interference_pairs = 0;
  std::uint64_t interfered_ppm = 0;
  std::uint64_t tcp_flows = 0;
  std::uint64_t tcp_loss_ppm = 0;
};

// ------------------------------------------------------------- monitor

// One deployment.  PollOnce() never blocks (neither on trace writers nor
// on the network), so a MonitorService can multiplex hundreds of monitors
// on one thread.  A hook or IO error that throws out of PollOnce marks
// the monitor failed; the destructor then abandons the open output
// segment (no finalize marker, pending block dropped) and skips the final
// checkpoint — on-disk state is left exactly as a SIGKILL at that moment
// would leave it, which is what the crash-recovery tests restart from.
class DeploymentMonitor {
 public:
  enum class State { kDiscovering, kRunning, kDone, kFailed };

  // Test seam: wraps every trace stream as it enters the merge (fault
  // injection).  The monitor's own frontier counter sits outside the
  // wrapper, so injected faults are indistinguishable from real ones.
  using StreamWrapper = std::function<std::unique_ptr<RecordStream>(
      std::unique_ptr<RecordStream> inner, std::uint32_t radio)>;

  // Recovers from <state_dir>/checkpoint.jigc if one exists (repairing a
  // torn output tail); otherwise initializes fresh state.  Throws
  // TraceCorruptError if the recorded log state and the on-disk segments
  // cannot be reconciled.
  explicit DeploymentMonitor(DeploymentConfig config,
                             StreamWrapper wrapper = nullptr);
  ~DeploymentMonitor();

  DeploymentMonitor(const DeploymentMonitor&) = delete;
  DeploymentMonitor& operator=(const DeploymentMonitor&) = delete;

  // One scheduling quantum: discover traces / pump the merge, persist
  // what was emitted, checkpoint, enforce retention.  Returns the state
  // after the quantum.
  State PollOnce();

  // Clean-shutdown door (SIGTERM): publish the pending output block and
  // write a final checkpoint, WITHOUT finalizing the open segment — a
  // restart resumes appending to the stream where it stopped.
  void Shutdown();

  State state() const { return state_; }
  const std::string& name() const { return config_.name; }
  std::uint64_t jframes_persisted() const { return log_index_; }
  std::uint64_t recovered_jframes() const { return recovered_; }
  std::uint64_t output_bytes_on_disk() const;
  std::uint64_t output_segments_on_disk() const;
  bool recovered_from_checkpoint() const { return recovered_start_; }
  DeploymentStatus Status() const;

 private:
  struct OutMetrics;

  void Discover();
  void StartSession(std::vector<std::unique_ptr<RecordStream>> streams);
  void OnJFrame(JFrame&& jf);
  void AppendToLog(const JFrame& jf);
  void MaybeRotate();
  void SealActiveSegment();
  void EnforceRetention();
  void WriteCheckpoint();
  Checkpoint BuildCheckpoint() const;
  void RecoverLog(const std::optional<Checkpoint>& cp);
  void UpdateGauges();
  std::filesystem::path SegmentPath(std::uint64_t sequence) const;
  std::filesystem::path CheckpointPath() const;

  DeploymentConfig config_;
  StreamWrapper wrapper_;
  State state_ = State::kDiscovering;
  bool recovered_start_ = false;
  std::size_t expected_traces_ = 0;

  TraceSet traces_;  // must outlive session_
  std::unique_ptr<MergeSession> session_;
  // (radio, counter) per trace, in trace-set order; the counters are owned
  // by traces_ / the session.
  std::vector<std::pair<std::uint32_t, const class FrontierTrace*>>
      frontiers_;

  std::unique_ptr<AnalysisBus> bus_;
  class LinkConsumer* link_ = nullptr;
  class InterferenceConsumer* interference_ = nullptr;
  class TcpLossConsumer* tcp_loss_ = nullptr;

  // Output log.
  std::vector<OutputSegmentInfo> sealed_;  // ordered by sequence
  std::unique_ptr<SpillSegmentWriter> writer_;  // over the active segment
  std::uint64_t active_seq_ = 0;
  std::uint64_t active_base_ = 0;
  std::int64_t active_max_ts_ = 0;
  std::uint64_t log_index_ = 0;   // next jframe's stream index
  std::int64_t newest_ts_ = 0;    // newest emitted capture time
  std::uint64_t suppress_remaining_ = 0;  // recovery replay suppression
  std::uint64_t recovered_ = 0;
  std::uint64_t appended_this_round_ = 0;
  std::chrono::steady_clock::time_point last_checkpoint_;

  std::unique_ptr<OutMetrics> metrics_;
};

// ------------------------------------------------------------- service

struct ServiceConfig {
  // Atomically-replaced exposition files; empty disables either door.
  std::filesystem::path snapshot_path;  // JSON, one row per deployment
  std::filesystem::path metrics_path;   // Prometheus text, whole registry
  std::chrono::milliseconds snapshot_interval{1000};
  // Sleep between rounds in Run() when no monitor made progress.
  std::chrono::milliseconds idle_sleep{10};
};

class MonitorService {
 public:
  explicit MonitorService(ServiceConfig config = {});
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  DeploymentMonitor& AddDeployment(
      DeploymentConfig config,
      DeploymentMonitor::StreamWrapper wrapper = nullptr);

  // One round over every deployment.  A deployment that throws is marked
  // failed and counted (jig_service_deployment_failures_total) — one
  // crashing deployment must not take its siblings down.  Returns the
  // number of deployments still active (discovering or running).
  std::size_t PollOnce();

  // Poll until keep_running() returns false (e.g. a SIGTERM flag) —
  // deployments that finish stay resident; the service is always-on.
  // Writes the snapshot/metrics files every snapshot_interval.  Calls
  // Shutdown() on exit.
  void Run(const std::function<bool()>& keep_running);

  // Final-flush door: Shutdown() every monitor (pending block + final
  // checkpoint) and write one last snapshot/metrics exposition.
  void Shutdown();

  void WriteSnapshot() const;
  void WriteMetrics() const;
  // The JSON exposition WriteSnapshot writes, for in-process consumers.
  std::string SnapshotJson() const;

  std::size_t deployments() const { return monitors_.size(); }
  DeploymentMonitor& monitor(std::size_t i) { return *monitors_.at(i); }

 private:
  ServiceConfig config_;
  std::vector<std::unique_ptr<DeploymentMonitor>> monitors_;
  std::chrono::steady_clock::time_point last_exposition_;
};

// ---------------------------------------------------------- frontier tap

// Counting pass-through stream: records the consumption high-water mark
// (it survives Rewind, so the late-bootstrap re-read does not reset it) —
// the per-radio frontier the checkpoint records.
class FrontierTrace final : public RecordStream {
 public:
  explicit FrontierTrace(std::unique_ptr<RecordStream> inner)
      : inner_(std::move(inner)) {}

  const TraceHeader& header() const override { return inner_->header(); }
  const CaptureRecord* NextRef() override {
    const CaptureRecord* rec = inner_->NextRef();
    if (rec != nullptr && ++pos_ > high_) high_ = pos_;
    return rec;
  }
  void Rewind() override {
    pos_ = 0;
    inner_->Rewind();
  }
  void EndRewinds() override { inner_->EndRewinds(); }
  bool Finalized() const override { return inner_->Finalized(); }

  std::uint64_t frontier() const { return high_; }

 private:
  std::unique_ptr<RecordStream> inner_;
  std::uint64_t pos_ = 0;
  std::uint64_t high_ = 0;
};

}  // namespace jig
