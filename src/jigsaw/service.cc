#include "jigsaw/service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/byte_io.h"
#include "util/crc32.h"

namespace jig {
namespace {

namespace fs = std::filesystem;

// Service-wide metrics (label-free).
struct ServiceMetrics {
  obs::Gauge& active = obs::MetricRegistry::Global().GetGauge(
      "jig_service_deployments_active",
      "Deployments currently discovering or running");
  obs::Counter& recoveries = obs::MetricRegistry::Global().GetCounter(
      "jig_service_recoveries_total",
      "Monitors that restarted from a .jigc checkpoint");
  obs::Counter& failures = obs::MetricRegistry::Global().GetCounter(
      "jig_service_deployment_failures_total",
      "Deployments marked failed by an escaped error");
};

ServiceMetrics& Metrics() {
  static ServiceMetrics* m = new ServiceMetrics();
  return *m;
}

std::string DeploymentLabel(const std::string& name) {
  return "deployment=\"" + name + "\"";
}

const char* StateName(DeploymentMonitor::State s) {
  switch (s) {
    case DeploymentMonitor::State::kDiscovering:
      return "discovering";
    case DeploymentMonitor::State::kRunning:
      return "running";
    case DeploymentMonitor::State::kDone:
      return "done";
    case DeploymentMonitor::State::kFailed:
      return "failed";
  }
  return "unknown";
}

// Rate as integer parts-per-million (the service's own expositions carry
// no floating-point text; see the determinism lint's D003 rule).
std::uint64_t Ppm(double fraction) {
  if (!(fraction > 0.0)) return 0;
  if (fraction >= 1.0) return 1'000'000;
  return static_cast<std::uint64_t>(fraction * 1e6);
}

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

// On-disk sizes of one checkpoint table entry (docs/FORMATS.md).
constexpr std::size_t kFrontierBytes = 4 + 8 + 1;
constexpr std::size_t kSegmentBytes = 8 + 8 + 8 + 8 + 1;

// A table count is untrusted until the bytes behind it can hold that many
// entries: checked before reserving, so a hostile count is corruption, not
// an allocation of up to 2^32 entries.
void RequireEntries(const ByteReader& r, std::uint32_t count,
                    std::size_t entry_bytes, const char* what,
                    const fs::path& path) {
  if (count > r.remaining() / entry_bytes) {
    std::string msg = "checkpoint declares ";
    msg += std::to_string(count);
    msg += ' ';
    msg += what;
    msg += " entries past its end: ";
    msg += path.string();
    throw TraceCorruptError(msg);
  }
}

}  // namespace

// --------------------------------------------------------------- .jigc

// gcc 12's -Wstringop-overflow misfires on ByteWriter::Raw's vector insert
// when inlined here (the PR 101831 family byte_io.h also suppresses around
// U16); the inserts are bounds-correct and the service tests run this code
// under ASan.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
void SaveCheckpoint(const fs::path& path, const Checkpoint& cp) {
  Bytes out;
  out.reserve(64 + cp.deployment.size() +
              kFrontierBytes * cp.frontiers.size() +
              kSegmentBytes * cp.segments.size());
  ByteWriter w(out);
  w.Raw({reinterpret_cast<const std::uint8_t*>(kCheckpointMagic), 4});
  w.U32(kCheckpointVersion);
  w.Varint(cp.deployment.size());
  w.Raw({reinterpret_cast<const std::uint8_t*>(cp.deployment.data()),
         cp.deployment.size()});
  w.U64(cp.emitted);
  w.U64(cp.active_sequence);
  w.U64(cp.active_base);
  w.U32(static_cast<std::uint32_t>(cp.frontiers.size()));
  for (const RadioFrontier& f : cp.frontiers) {
    w.U32(f.radio);
    w.U64(f.records_seen);
    w.U8(f.finalized ? 1 : 0);
  }
  w.U32(static_cast<std::uint32_t>(cp.segments.size()));
  for (const OutputSegmentInfo& s : cp.segments) {
    w.U64(s.sequence);
    w.U64(s.base_index);
    w.I64(s.max_timestamp);
    w.U64(s.bytes);
    w.U8(s.sealed ? 1 : 0);
  }
  const std::uint32_t crc = Crc32({out.data(), out.size()});
  w.U32(crc);
  obs::WriteFileAtomic(
      path, std::string_view(reinterpret_cast<const char*>(out.data()),
                             out.size()));
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

Checkpoint LoadCheckpoint(const fs::path& path) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (!f) {
    throw std::runtime_error("cannot open checkpoint: " + path.string());
  }
  Bytes raw;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    raw.insert(raw.end(), chunk, chunk + n);
  }
  std::fclose(f);
  if (raw.size() < 12) {
    throw TraceTruncatedError("checkpoint too short: " + path.string());
  }
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(raw[raw.size() - 4]) |
      (static_cast<std::uint32_t>(raw[raw.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(raw[raw.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(raw[raw.size() - 1]) << 24);
  if (Crc32({raw.data(), raw.size() - 4}) != stored_crc) {
    throw TraceCorruptError("checkpoint CRC mismatch: " + path.string());
  }
  ByteReader r({raw.data(), raw.size() - 4});
  const auto magic = r.Raw(4);
  if (std::memcmp(magic.data(), kCheckpointMagic, 4) != 0) {
    throw TraceCorruptError("bad checkpoint magic: " + path.string());
  }
  if (r.U32() != kCheckpointVersion) {
    throw TraceCorruptError("unsupported checkpoint version: " +
                            path.string());
  }
  try {
    Checkpoint cp;
    const std::uint64_t name_len = r.Varint();
    const auto name = r.Raw(name_len);
    cp.deployment.assign(reinterpret_cast<const char*>(name.data()),
                         name.size());
    cp.emitted = r.U64();
    cp.active_sequence = r.U64();
    cp.active_base = r.U64();
    const std::uint32_t n_frontiers = r.U32();
    RequireEntries(r, n_frontiers, kFrontierBytes, "frontier", path);
    cp.frontiers.reserve(n_frontiers);
    for (std::uint32_t i = 0; i < n_frontiers; ++i) {
      RadioFrontier fr;
      fr.radio = r.U32();
      fr.records_seen = r.U64();
      fr.finalized = r.U8() != 0;
      cp.frontiers.push_back(fr);
    }
    const std::uint32_t n_segments = r.U32();
    RequireEntries(r, n_segments, kSegmentBytes, "segment", path);
    cp.segments.reserve(n_segments);
    for (std::uint32_t i = 0; i < n_segments; ++i) {
      OutputSegmentInfo seg;
      seg.sequence = r.U64();
      seg.base_index = r.U64();
      seg.max_timestamp = r.I64();
      seg.bytes = r.U64();
      seg.sealed = r.U8() != 0;
      cp.segments.push_back(seg);
    }
    if (!r.AtEnd()) {
      throw TraceCorruptError("trailing bytes in checkpoint: " +
                              path.string());
    }
    return cp;
  } catch (const TraceCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    // A ByteReader bounds failure inside a CRC-valid file means the
    // structure lied about its own lengths: corruption, not truncation.
    throw TraceCorruptError(std::string("malformed checkpoint: ") +
                            e.what());
  }
}

// ------------------------------------------------------ DeploymentMonitor

// Per-deployment metric handles, resolved once (GetCounter/GetGauge take a
// registry mutex).
struct DeploymentMonitor::OutMetrics {
  explicit OutMetrics(const std::string& name)
      : persisted(obs::MetricRegistry::Global().GetCounter(
            "jig_service_jframes_persisted_total",
            "Jframes appended to the deployment's output log",
            DeploymentLabel(name))),
        recovered(obs::MetricRegistry::Global().GetCounter(
            "jig_service_recovered_jframes_total",
            "Replayed jframes suppressed as already durable after restart",
            DeploymentLabel(name))),
        checkpoints(obs::MetricRegistry::Global().GetCounter(
            "jig_service_checkpoints_total",
            "Checkpoint files written", DeploymentLabel(name))),
        retention_deletes(obs::MetricRegistry::Global().GetCounter(
            "jig_service_retention_deleted_segments_total",
            "Sealed output segments deleted by retention",
            DeploymentLabel(name))),
        output_bytes(obs::MetricRegistry::Global().GetGauge(
            "jig_service_output_bytes",
            "Output-log bytes on disk", DeploymentLabel(name))),
        output_segments(obs::MetricRegistry::Global().GetGauge(
            "jig_service_output_segments",
            "Output-log segments on disk", DeploymentLabel(name))),
        retained(obs::MetricRegistry::Global().GetGauge(
            "jig_service_retained_jframes",
            "Jframes buffered inside the deployment's merge",
            DeploymentLabel(name))),
        checkpoint_age_ms(obs::MetricRegistry::Global().GetGauge(
            "jig_service_checkpoint_age_ms",
            "Milliseconds since the deployment last checkpointed",
            DeploymentLabel(name))) {}

  obs::Counter& persisted;
  obs::Counter& recovered;
  obs::Counter& checkpoints;
  obs::Counter& retention_deletes;
  obs::Gauge& output_bytes;
  obs::Gauge& output_segments;
  obs::Gauge& retained;
  obs::Gauge& checkpoint_age_ms;
};

DeploymentMonitor::DeploymentMonitor(DeploymentConfig config,
                                     StreamWrapper wrapper)
    : config_(std::move(config)),
      wrapper_(std::move(wrapper)),
      last_checkpoint_(std::chrono::steady_clock::now()),
      metrics_(std::make_unique<OutMetrics>(config_.name)) {
  fs::create_directories(config_.state_dir / "out");
  std::optional<Checkpoint> cp;
  if (fs::exists(CheckpointPath())) {
    cp = LoadCheckpoint(CheckpointPath());
    recovered_start_ = true;
    Metrics().recoveries.Add(1);
  }
  expected_traces_ = config_.expected_traces;
  if (cp && cp->frontiers.size() > expected_traces_) {
    expected_traces_ = cp->frontiers.size();
  }
  RecoverLog(cp);
  suppress_remaining_ = log_index_;
  if (config_.analysis) {
    bus_ = std::make_unique<AnalysisBus>();
    link_ = &bus_->Emplace<LinkConsumer>();
    interference_ = &bus_->Emplace<InterferenceConsumer>(*link_);
    tcp_loss_ = &bus_->Emplace<TcpLossConsumer>(*link_);
  }
  // First checkpoint right away: once anything is on disk, recovery can
  // always find the active segment's base index in the table.
  WriteCheckpoint();
}

DeploymentMonitor::~DeploymentMonitor() {
  if (state_ == State::kFailed && writer_) {
    // Leave the log exactly as the simulated crash left it: no finalize
    // marker, pending block dropped.  (A destructor-run Finish() would
    // forge durable state the "killed" process never produced.)
    writer_->Abandon();
  }
  // Otherwise SpillSegmentWriter's destructor seals the open segment —
  // a clean teardown leaves a strict-readable log behind.
}

fs::path DeploymentMonitor::CheckpointPath() const {
  return config_.state_dir / "checkpoint.jigc";
}

fs::path DeploymentMonitor::SegmentPath(std::uint64_t sequence) const {
  char name[32];
  std::snprintf(name, sizeof name, "out-%08" PRIu64 ".jigs", sequence);
  return config_.state_dir / "out" / name;
}

// Rebuilds the output-log bookkeeping from the checkpoint table plus the
// segments actually on disk, repairing a torn tail.  Establishes
// sealed_/active_*/log_index_/newest_ts_.
void DeploymentMonitor::RecoverLog(const std::optional<Checkpoint>& cp) {
  // Base indexes recorded by the last checkpoint (the on-disk truth for
  // where each segment starts in the stream).
  std::map<std::uint64_t, OutputSegmentInfo> known;
  if (cp) {
    for (const OutputSegmentInfo& s : cp->segments) {
      known.emplace(s.sequence, s);
    }
    active_seq_ = cp->active_sequence;
    active_base_ = cp->active_base;
  }
  std::vector<std::uint64_t> on_disk;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(config_.state_dir / "out", ec)) {
    std::uint64_t seq = 0;
    if (std::sscanf(entry.path().filename().string().c_str(),
                    "out-%08" SCNu64 ".jigs", &seq) == 1) {
      on_disk.push_back(seq);
    }
  }
  std::sort(on_disk.begin(), on_disk.end());
  std::uint64_t next_base = 0;
  for (std::size_t i = 0; i < on_disk.size(); ++i) {
    const std::uint64_t seq = on_disk[i];
    std::uint64_t base = next_base;
    if (const auto it = known.find(seq); it != known.end()) {
      base = it->second.base_index;
    } else if (cp && seq == cp->active_sequence) {
      // Created after the last checkpoint (segments are lazy): the
      // checkpoint still recorded the identity it WOULD get.
      base = cp->active_base;
    } else if (i == 0) {
      // The oldest segment must be known to the checkpoint (or be the
      // very first segment of a fresh deployment): retention only deletes
      // after checkpointing, so an unknown oldest segment means the
      // stream's origin is unrecoverable.
      if (cp && seq != 0) {
        throw TraceCorruptError(
            "output log: oldest segment " + SegmentPath(seq).string() +
            " is not in the checkpoint table");
      }
      base = 0;
    }
    // Tail-mode read: counts the complete jframes and tolerates a torn
    // trailing block (the "no data yet" frontier discipline — here the
    // writer is dead, so the frontier is simply where the crash cut it).
    SpillSegmentReader reader(SegmentPath(seq), /*strict=*/false);
    std::vector<JFrame> jfs;
    std::int64_t max_ts = 0;
    while (auto jf = reader.Next()) {
      max_ts = std::max(max_ts, jf->timestamp);
      jfs.push_back(std::move(*jf));
    }
    const bool last = i + 1 == on_disk.size();
    if (!last && !reader.finalized()) {
      throw TraceCorruptError("output log: non-newest segment " +
                              SegmentPath(seq).string() +
                              " has no finalize marker");
    }
    next_base = base + jfs.size();
    if (reader.finalized()) {
      sealed_.push_back({seq, base, max_ts,
                         static_cast<std::uint64_t>(
                             fs::file_size(SegmentPath(seq))),
                         true});
      if (last) {
        active_seq_ = seq + 1;
        active_base_ = next_base;
      }
    } else if (jfs.empty()) {
      // Nothing durable made it into the torn tail: drop it and reuse
      // the sequence number for the fresh active segment.
      fs::remove(SegmentPath(seq));
      active_seq_ = seq;
      active_base_ = base;
    } else {
      // Repair: rewrite the complete jframes as a sealed segment (temp +
      // rename, so a crash during recovery is itself recoverable), then
      // continue the stream in a fresh segment.
      const fs::path tmp = SegmentPath(seq) += ".repair";
      {
        SpillSegmentWriter rw(tmp, {0, seq},
                              config_.output_records_per_block);
        for (const JFrame& jf : jfs) rw.Append(jf);
        rw.Finish();
      }
      fs::rename(tmp, SegmentPath(seq));
      sealed_.push_back({seq, base, max_ts,
                         static_cast<std::uint64_t>(
                             fs::file_size(SegmentPath(seq))),
                         true});
      active_seq_ = seq + 1;
      active_base_ = next_base;
    }
    newest_ts_ = std::max(newest_ts_, max_ts);
  }
  if (on_disk.empty()) {
    // Fresh deployment, or everything before the active segment was
    // retained away and the active file was never created.
    if (!cp) {
      active_seq_ = 0;
      active_base_ = 0;
    }
  }
  log_index_ = active_base_;
}

DeploymentMonitor::State DeploymentMonitor::PollOnce() {
  if (state_ == State::kFailed) {
    throw std::logic_error("DeploymentMonitor: PollOnce after failure");
  }
  if (state_ == State::kDone) return state_;
  try {
    if (state_ == State::kDiscovering) {
      Discover();
      if (state_ != State::kRunning) return state_;
    }
    const MergeSession::Status status = session_->Poll();
    if (appended_this_round_ > 0) {
      if (writer_) writer_->Sync();  // publish this round's blocks
      EnforceRetention();
      WriteCheckpoint();
      appended_this_round_ = 0;
    }
    if (status == MergeSession::Status::kDone) {
      if (bus_) bus_->Finish();
      if (writer_) {
        writer_->Finish();  // seal: the stream is complete
        SealActiveSegment();
      }
      WriteCheckpoint();
      state_ = State::kDone;
    }
    UpdateGauges();
  } catch (...) {
    state_ = State::kFailed;
    throw;
  }
  return state_;
}

void DeploymentMonitor::Discover() {
  auto streams =
      TraceSet::ScanFollowedDirectory(config_.trace_dir, expected_traces_);
  if (!streams.empty()) StartSession(std::move(streams));
}

void DeploymentMonitor::StartSession(
    std::vector<std::unique_ptr<RecordStream>> streams) {
  for (auto& stream : streams) {
    const std::uint32_t radio = stream->header().radio;
    if (wrapper_) stream = wrapper_(std::move(stream), radio);
    auto counted = std::make_unique<FrontierTrace>(std::move(stream));
    frontiers_.emplace_back(radio, counted.get());
    traces_.Add(std::move(counted));
  }
  session_ = std::make_unique<MergeSession>(
      traces_, config_.merge,
      [this](JFrame&& jf) { OnJFrame(std::move(jf)); });
  state_ = State::kRunning;
}

void DeploymentMonitor::OnJFrame(JFrame&& jf) {
  if (suppress_remaining_ > 0) {
    --suppress_remaining_;
    ++recovered_;
    metrics_->recovered.Add(1);
  } else {
    AppendToLog(jf);
  }
  // The analysis chain sees EVERY delivery, including the recovery
  // replay: its windowed state regenerates deterministically alongside
  // the suppressed prefix.  It takes the jframe last, by move.
  if (bus_) bus_->OnJFrame(std::move(jf));
}

void DeploymentMonitor::AppendToLog(const JFrame& jf) {
  if (!writer_) {
    writer_ = std::make_unique<SpillSegmentWriter>(
        SegmentPath(active_seq_), SpillSegmentHeader{0, active_seq_},
        config_.output_records_per_block);
    active_max_ts_ = 0;
  }
  writer_->Append(jf);
  const std::uint64_t index = log_index_++;
  ++appended_this_round_;
  active_max_ts_ = std::max(active_max_ts_, jf.timestamp);
  newest_ts_ = std::max(newest_ts_, jf.timestamp);
  metrics_->persisted.Add(1);
  if (config_.hooks.after_output_append) {
    config_.hooks.after_output_append(index);
  }
  MaybeRotate();
}

// Rotation is checked per append (bytes_written moves at block cuts, so
// the test fires at most once per block): a single Poll round can emit an
// entire batch capture, and a per-round check would put it all in one
// segment.  Only appends trigger rotation — never the per-round Sync,
// whose short published blocks depend on where poll rounds happened to
// fall.
void DeploymentMonitor::MaybeRotate() {
  if (!writer_) return;
  if (writer_->bytes_written() < config_.output_segment_bytes) return;
  writer_->Finish();
  SealActiveSegment();
}

// Retires the (finished) active writer into sealed_ and advances the
// active identity.  The checkpoint that follows records the new base, so
// a crash at any point leaves the stream derivable: the sealed file
// carries its own record count, and the next segment's base is base +
// that count whether or not the checkpoint landed.
void DeploymentMonitor::SealActiveSegment() {
  sealed_.push_back({active_seq_, active_base_, active_max_ts_,
                     static_cast<std::uint64_t>(
                         fs::file_size(SegmentPath(active_seq_))),
                     true});
  writer_.reset();
  ++active_seq_;
  active_base_ = log_index_;
  active_max_ts_ = 0;
}

void DeploymentMonitor::EnforceRetention() {
  const auto drop_oldest = [&] {
    std::error_code ec;
    fs::remove(SegmentPath(sealed_.front().sequence), ec);
    sealed_.erase(sealed_.begin());
    metrics_->retention_deletes.Add(1);
  };
  if (config_.retention_window_us > 0) {
    const std::int64_t horizon = newest_ts_ - config_.retention_window_us;
    while (!sealed_.empty() && sealed_.front().max_timestamp < horizon) {
      drop_oldest();
    }
  }
  if (config_.max_output_bytes > 0) {
    const auto total = [&] {
      std::uint64_t t = writer_ ? writer_->bytes_written() : 0;
      for (const OutputSegmentInfo& s : sealed_) t += s.bytes;
      return t;
    };
    while (!sealed_.empty() && total() > config_.max_output_bytes) {
      drop_oldest();
    }
  }
  // The deletions and the table shrink land in the same checkpoint the
  // caller writes next; a crash in between is covered because the stale
  // table is a superset of the surviving segments.
}

Checkpoint DeploymentMonitor::BuildCheckpoint() const {
  Checkpoint cp;
  cp.deployment = config_.name;
  cp.emitted = log_index_;
  cp.active_sequence = active_seq_;
  cp.active_base = active_base_;
  for (const auto& [radio, tap] : frontiers_) {
    cp.frontiers.push_back(
        {radio, tap->frontier(), tap->Finalized()});
  }
  cp.segments = sealed_;
  if (writer_) {
    cp.segments.push_back({active_seq_, active_base_, active_max_ts_,
                           writer_->bytes_written(), false});
  }
  return cp;
}

void DeploymentMonitor::WriteCheckpoint() {
  if (config_.hooks.before_checkpoint) config_.hooks.before_checkpoint();
  SaveCheckpoint(CheckpointPath(), BuildCheckpoint());
  last_checkpoint_ = std::chrono::steady_clock::now();
  metrics_->checkpoints.Add(1);
  if (config_.hooks.after_checkpoint) config_.hooks.after_checkpoint();
}

void DeploymentMonitor::Shutdown() {
  if (state_ != State::kRunning) return;
  if (writer_) writer_->Sync();  // publish the pending block
  WriteCheckpoint();
  UpdateGauges();
}

std::uint64_t DeploymentMonitor::output_bytes_on_disk() const {
  std::uint64_t t = writer_ ? writer_->bytes_written() : 0;
  for (const OutputSegmentInfo& s : sealed_) t += s.bytes;
  return t;
}

std::uint64_t DeploymentMonitor::output_segments_on_disk() const {
  return sealed_.size() + (writer_ ? 1 : 0);
}

void DeploymentMonitor::UpdateGauges() {
  metrics_->output_bytes.Set(
      static_cast<std::int64_t>(output_bytes_on_disk()));
  metrics_->output_segments.Set(
      static_cast<std::int64_t>(output_segments_on_disk()));
  metrics_->retained.Set(static_cast<std::int64_t>(
      session_ ? session_->retained_jframes() : 0));
  const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - last_checkpoint_);
  metrics_->checkpoint_age_ms.Set(age.count());
}

DeploymentStatus DeploymentMonitor::Status() const {
  DeploymentStatus st;
  st.name = config_.name;
  st.state = StateName(state_);
  st.jframes = log_index_;
  st.recovered = recovered_;
  st.output_bytes = output_bytes_on_disk();
  st.output_segments = output_segments_on_disk();
  st.retained_jframes = session_ ? session_->retained_jframes() : 0;
  st.lag_us = session_ ? session_->live_lag_us() : 0;
  st.checkpoint_age_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - last_checkpoint_)
          .count());
  if (interference_ && tcp_loss_) {
    const auto fig9 = interference_->SnapshotReport();
    const auto fig11 = tcp_loss_->SnapshotReport();
    st.interference_pairs = fig9.pairs.size();
    st.interfered_ppm = Ppm(fig9.fraction_pairs_interfered);
    st.tcp_flows = fig11.flows_considered;
    st.tcp_loss_ppm = Ppm(fig11.aggregate_loss_rate);
  }
  return st;
}

// --------------------------------------------------------- MonitorService

MonitorService::MonitorService(ServiceConfig config)
    : config_(std::move(config)),
      last_exposition_(std::chrono::steady_clock::now()) {}

MonitorService::~MonitorService() = default;

DeploymentMonitor& MonitorService::AddDeployment(
    DeploymentConfig config, DeploymentMonitor::StreamWrapper wrapper) {
  monitors_.push_back(std::make_unique<DeploymentMonitor>(
      std::move(config), std::move(wrapper)));
  return *monitors_.back();
}

std::size_t MonitorService::PollOnce() {
  std::size_t active = 0;
  for (auto& m : monitors_) {
    const auto state = m->state();
    if (state == DeploymentMonitor::State::kDone ||
        state == DeploymentMonitor::State::kFailed) {
      continue;
    }
    try {
      const auto after = m->PollOnce();
      if (after == DeploymentMonitor::State::kDiscovering ||
          after == DeploymentMonitor::State::kRunning) {
        ++active;
      }
    } catch (const std::exception& e) {
      // One deployment's escaped error (corrupt trace, full disk, an
      // injected kill) must not take its siblings down.
      std::fprintf(stderr, "deployment %s failed: %s\n",
                   m->name().c_str(), e.what());
      Metrics().failures.Add(1);
    }
  }
  Metrics().active.Set(static_cast<std::int64_t>(active));
  return active;
}

void MonitorService::Run(const std::function<bool()>& keep_running) {
  while (keep_running()) {
    PollOnce();
    const auto now = std::chrono::steady_clock::now();
    if (now - last_exposition_ >= config_.snapshot_interval) {
      WriteSnapshot();
      WriteMetrics();
      last_exposition_ = now;
    }
    std::this_thread::sleep_for(config_.idle_sleep);
  }
  Shutdown();
}

void MonitorService::Shutdown() {
  for (auto& m : monitors_) m->Shutdown();
  WriteSnapshot();
  WriteMetrics();
}

std::string MonitorService::SnapshotJson() const {
  std::string out = "{\"deployments\":[";
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    const DeploymentStatus st = monitors_[i]->Status();
    if (i > 0) out.push_back(',');
    out += "{\"name\":\"";
    AppendJsonEscaped(out, st.name);
    out += "\",\"state\":\"";
    out += st.state;
    out += "\"";
    const auto field = [&out](const char* key, std::uint64_t v) {
      out += ",\"";
      out += key;
      out += "\":";
      out += std::to_string(v);
    };
    field("jframes", st.jframes);
    field("recovered", st.recovered);
    field("output_bytes", st.output_bytes);
    field("output_segments", st.output_segments);
    field("retained_jframes", st.retained_jframes);
    out += ",\"lag_us\":" + std::to_string(st.lag_us);
    field("checkpoint_age_ms", st.checkpoint_age_ms);
    field("interference_pairs", st.interference_pairs);
    field("interfered_ppm", st.interfered_ppm);
    field("tcp_flows", st.tcp_flows);
    field("tcp_loss_ppm", st.tcp_loss_ppm);
    out += "}";
  }
  out += "]}";
  return out;
}

void MonitorService::WriteSnapshot() const {
  if (config_.snapshot_path.empty()) return;
  obs::WriteFileAtomic(config_.snapshot_path, SnapshotJson());
}

void MonitorService::WriteMetrics() const {
  if (config_.metrics_path.empty()) return;
  obs::WriteFileAtomic(
      config_.metrics_path,
      obs::ToPrometheusText(obs::MetricRegistry::Global().Collect()));
}

}  // namespace jig
