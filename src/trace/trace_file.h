// Compressed per-radio trace files with a metadata index.
//
// jigdump writes hour-long (data, metadata) file pairs per radio, with the
// data LZO-compressed in blocks and the metadata indexing those blocks for
// random access (Section 3.3).  We reproduce the shape in a single file:
//
//   [magic "JIGT"][u32 version]
//   [u32 header_len][header]
//   repeated blocks: [u32 packed_len][LZ-compressed records]
//   [u32 0]  (terminator)
//   index: per block {file_offset, first_ts, last_ts, record_count}
//   [u64 index_offset][magic "JIGX"]
//
// TraceFileReader finds its blocks through the index, and its
// SeekToTimestamp uses the timestamps to skip blocks without decompressing
// them.  The merge never seeks: its bootstrap pass reads every stream from
// the front.  Beyond the reader, only `jigtool info`, `offline_merge` and
// the benchmark read the index's counts and timestamps.
//
// The data region is written and read through the block codec
// (trace/block_codec.h); the index trailer is all this file adds.
#pragma once

#include <filesystem>
#include <optional>
#include <vector>

#include "trace/block_codec.h"
#include "trace/record.h"

namespace jig {

// The index trailer's magic; the data region's constants and the error
// taxonomy live with the block codec (trace/block_codec.h).
inline constexpr char kTraceIndexMagic[4] = {'J', 'I', 'G', 'X'};

struct BlockIndexEntry {
  std::uint64_t file_offset = 0;
  LocalMicros first_timestamp = 0;
  LocalMicros last_timestamp = 0;
  std::uint32_t record_count = 0;
};

class TraceFileWriter {
 public:
  TraceFileWriter(const std::filesystem::path& path, const TraceHeader& header,
                  std::size_t records_per_block = 512);

  void Append(const CaptureRecord& rec) {
    block_codec::AppendRecord(encoder_, rec, block_);
  }
  // Live-writer publication point: cuts the pending records into a block
  // (blocks may therefore be shorter than records_per_block) and flushes
  // the stdio buffer, so a concurrent TailFileTrace sees everything
  // appended so far.
  void Sync() { encoder_.Sync(); }
  // Flushes any partial block and writes the [u32 0] terminator — the
  // explicit finalize marker tail readers watch for — and the index
  // trailer.  Called by the destructor if not called explicitly; explicit
  // callers get exceptions.
  void Finish() { encoder_.Finish(); }

  std::uint64_t records_written() const { return encoder_.records(); }

 private:
  std::vector<BlockIndexEntry> index_;
  block_codec::RecordSpan block_;  // the pending block's timestamps
  // Last member: its destructor finishes the file, which writes index_.
  block_codec::Encoder encoder_;
};

class TraceFileReader {
 public:
  explicit TraceFileReader(const std::filesystem::path& path);

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  const TraceHeader& header() const { return header_; }
  const std::vector<BlockIndexEntry>& index() const { return index_; }
  std::uint64_t TotalRecords() const;

  // Sequential record access; nullopt at end of trace.
  std::optional<CaptureRecord> Next();
  // Zero-copy variant: the pointer is valid until the next
  // Next/NextRef/Seek/Rewind call on this reader.
  const CaptureRecord* NextRef();

  // Relay access: the next indexed block as stored — its LZ payload and
  // the index's record count, neither inflated nor checked against each
  // other (whoever decodes the relayed unit does that).  nullopt at end of
  // trace.  The payload is valid until the next call on this reader.
  // Shares the block cursor with NextRef: a block NextRef has begun is
  // skipped, so read one way or the other between Rewinds.
  std::optional<block_codec::StoredUnit> NextUnit();

  // Positions the cursor at the first block whose last timestamp is >= ts.
  void SeekToTimestamp(LocalMicros ts);
  void Rewind();

 private:
  void ReadIndex(const std::filesystem::path& path);
  // Reads the indexed block's unit into `buf` and returns it.
  block_codec::Frame ReadUnit(const BlockIndexEntry& entry, Bytes& buf);
  // Decodes the indexed block to its end; a record count that disagrees
  // with the index is TraceCorruptError.
  void LoadBlock(std::size_t block_idx);

  block_codec::FileSource file_;
  TraceHeader header_;
  std::vector<BlockIndexEntry> index_;
  std::size_t current_block_ = 0;
  Bytes unit_;  // the unit NextUnit handed out last, framing included
  std::vector<CaptureRecord> block_records_;
  std::size_t block_pos_ = 0;
};

}  // namespace jig
