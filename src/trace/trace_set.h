// A set of per-radio record streams — the input shape of the Jigsaw merge.
//
// Jigsaw's merge pass reads every radio's trace in parallel, one record at a
// time (Section 4 requires a single streaming pass for online operation).
// RecordStream abstracts over where those records live: an in-memory buffer
// produced directly by the simulator, or an on-disk jigdump-style file.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "trace/record.h"
#include "trace/trace_file.h"

namespace jig {

class RecordStream {
 public:
  virtual ~RecordStream() = default;
  virtual const TraceHeader& header() const = 0;
  // Copying form of NextRef(): the same advance, materialized.
  virtual std::optional<CaptureRecord> Next() {
    const CaptureRecord* rec = NextRef();
    if (rec == nullptr) return std::nullopt;
    return *rec;
  }
  // Zero-copy scan: advances like Next() but hands back a pointer instead
  // of materializing a record (bootstrap reads every record of its window
  // this way).  nullptr at end of stream.  The pointer stays valid until
  // the next Next/NextRef/Rewind call on THIS stream — a merge holds one
  // borrowed record per stream while it advances the others.
  virtual const CaptureRecord* NextRef() = 0;
  // Relay form: the stream's next records as one unit, still
  // LZ-compressed, for a relay to forward without decoding them.  A stream
  // that stores its blocks hands over its next stored unit whole; the
  // default re-encodes up to `max_records` records from NextRef() into
  // `scratch`, the block a writer would cut from them.  nullopt when no
  // record is available: consult Finalized(), as after NextRef().  The
  // payload stays valid until the next advance of this stream or reuse of
  // `scratch`.  Read a stream by units or by records between Rewinds, not
  // both.
  virtual std::optional<block_codec::StoredUnit> NextUnit(
      std::size_t max_records, Bytes& scratch);
  virtual void Rewind() = 0;
  // The rewind latch: the caller will never Rewind() this stream again,
  // so a stream that keeps what it has read for a replay may free it as
  // it goes.  MergeSession calls it once bootstrap's re-reads and the
  // unifiers' rewind are done.  A no-op by default.
  virtual void EndRewinds() {}
  // Live-source distinction: when Next()/NextRef() yields nothing, true
  // means end-of-capture, false means "no data yet — the writer may still
  // append" (tail-follow sources).  Batch streams are always finalized, so
  // their nullopt remains authoritative EOF.
  virtual bool Finalized() const { return true; }
};

// In-memory trace, filled by the simulator's monitors.
class MemoryTrace final : public RecordStream {
 public:
  MemoryTrace(TraceHeader header, std::vector<CaptureRecord> records)
      : header_(header), records_(std::move(records)) {}

  const TraceHeader& header() const override { return header_; }
  const CaptureRecord* NextRef() override {
    if (pos_ >= records_.size()) return nullptr;
    return &records_[pos_++];
  }
  void Rewind() override { pos_ = 0; }

  const std::vector<CaptureRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

 private:
  TraceHeader header_;
  std::vector<CaptureRecord> records_;
  std::size_t pos_ = 0;
};

// File-backed trace.
class FileTrace final : public RecordStream {
 public:
  explicit FileTrace(const std::filesystem::path& path) : reader_(path) {}

  const TraceHeader& header() const override { return reader_.header(); }
  // Points into the reader's decoded-block buffer: valid until the next
  // advance, per the RecordStream contract — no per-record copy.
  const CaptureRecord* NextRef() override { return reader_.NextRef(); }
  // The next indexed block as stored (TraceFileReader::NextUnit).
  std::optional<block_codec::StoredUnit> NextUnit(std::size_t,
                                                  Bytes&) override {
    return reader_.NextUnit();
  }
  void Rewind() override { reader_.Rewind(); }

  TraceFileReader& reader() { return reader_; }

 private:
  TraceFileReader reader_;
};

struct ChannelShard;

// Owning collection of streams, one per radio.
class TraceSet {
 public:
  TraceSet() = default;

  void Add(std::unique_ptr<RecordStream> stream) {
    streams_.push_back(std::move(stream));
  }

  std::size_t size() const { return streams_.size(); }
  bool empty() const { return streams_.empty(); }
  RecordStream& at(std::size_t i) { return *streams_[i]; }
  const RecordStream& at(std::size_t i) const { return *streams_[i]; }

  void RewindAll() {
    for (auto& s : streams_) s->Rewind();
  }

  // Opens every regular *.jigt file in a directory as one trace set, in
  // (radio id, path) order so analyses are deterministic regardless of
  // directory order.
  static TraceSet OpenDirectory(const std::filesystem::path& dir);

  // The rule for a followed (still-growing) directory, shared by
  // FollowDirectory and the monitoring service's discovery.  One scan of
  // `dir`: every regular *.jigt file whose header is published opens as a
  // tail-follow stream, and the set is complete once at least
  // max(expected_traces, 1) streams are open.  A complete scan returns the
  // streams in (radio id, path) order; an incomplete one — or a missing
  // or unreadable directory — returns nothing, and the caller scans again
  // later.  The set cannot grow once a caller starts merging it, so pass
  // the expected count whenever radios may attach late.
  static std::vector<std::unique_ptr<RecordStream>> ScanFollowedDirectory(
      const std::filesystem::path& dir, std::size_t expected_traces);

  // Live counterpart of OpenDirectory: repeats ScanFollowedDirectory every
  // 20 ms until the set is complete and returns it.  Throws
  // std::runtime_error if 30 s pass first.
  static TraceSet FollowDirectory(const std::filesystem::path& dir,
                                  std::size_t expected_traces);

  // Writes every stream out as jigdump-style files into `dir` (one file per
  // radio, named r<id>.jigt) and returns the paths.  Streams are rewound.
  std::vector<std::filesystem::path> WriteDirectory(
      const std::filesystem::path& dir);

  // Moves every stream into per-channel shards — the parallel unit of the
  // sharded merge: 802.11 instances of one transmission only ever appear on
  // monitors tuned to the same channel, so each shard can be unified
  // independently.  This set becomes empty; shards are ordered by channel
  // number and preserve this set's relative stream order within a channel.
  std::vector<ChannelShard> PartitionByChannel();

  // Inverse of PartitionByChannel: moves every shard stream back into this
  // (empty) set at its recorded source index, restoring the original order.
  void AdoptShards(std::vector<ChannelShard> shards);

 private:
  std::vector<std::unique_ptr<RecordStream>> streams_;
};

// One channel's slice of a TraceSet.  `source_index[i]` is the position
// stream i held in the originating set (needed to slice per-trace state such
// as bootstrap offsets, and to reassemble the set afterwards).
struct ChannelShard {
  Channel channel = Channel::kCh1;
  TraceSet traces;
  std::vector<std::size_t> source_index;
};

// Incremental writer for a directory of per-radio traces — the live
// counterpart of TraceSet::WriteDirectory, letting the simulator (or a
// capture daemon) act as a live writer that tail-follow readers consume
// concurrently.  Append() buffers per radio; Sync() cuts every radio's
// pending records into a published block; Finalize() writes a radio's
// index trailer + finalize marker (after which Append to it throws).
class TraceSetWriter {
 public:
  explicit TraceSetWriter(const std::filesystem::path& dir) : dir_(dir) {
    std::filesystem::create_directories(dir_);
  }

  // Registers a radio and creates its r<id>.jigt file (header published
  // immediately).  Returns the slot index used by Append/Finalize.
  std::size_t AddRadio(const TraceHeader& header,
                       std::size_t records_per_block = 512) {
    std::string name = "r";
    name += std::to_string(header.radio);
    name += ".jigt";
    const auto path = dir_ / name;
    writers_.push_back(
        std::make_unique<TraceFileWriter>(path, header, records_per_block));
    finalized_.push_back(false);
    paths_.push_back(path);
    return writers_.size() - 1;
  }

  void Append(std::size_t slot, const CaptureRecord& rec) {
    writers_.at(slot)->Append(rec);
  }

  // Publishes everything appended so far to concurrent tail readers.
  void Sync() {
    for (std::size_t i = 0; i < writers_.size(); ++i) {
      if (!finalized_[i]) writers_[i]->Sync();
    }
  }

  void Finalize(std::size_t slot) {
    if (!finalized_.at(slot)) {
      writers_[slot]->Finish();
      finalized_[slot] = true;
    }
  }

  void FinalizeAll() {
    for (std::size_t i = 0; i < writers_.size(); ++i) Finalize(i);
  }

  std::size_t size() const { return writers_.size(); }
  const std::vector<std::filesystem::path>& paths() const { return paths_; }

 private:
  std::filesystem::path dir_;
  std::vector<std::unique_ptr<TraceFileWriter>> writers_;
  std::vector<bool> finalized_;
  std::vector<std::filesystem::path> paths_;
};

}  // namespace jig
