// The block framing every trace-layer reader and writer shares
// (docs/FORMATS.md):
//
//   prefix   [magic][u32 version][u32 header_len][header]
//   units    repeated [u32 len > 0][LZ block]
//   marker   [u32 0]
//
// .jigt files, .jigs segments and the socket stream all carry it, so
// it is parsed and written here once.  The write half is one Encoder over a
// byte Sink (see below).  The parsers are a push decoder over whatever
// bytes the caller holds: each call answers "need more bytes", "finalize
// marker" or "a complete frame", and throws TraceCorruptError for bytes no
// amount of waiting can frame.  Readers differ only in where the bytes come
// from and in what "need more" means to them — a torn structure
// (TraceTruncatedError) to a batch or strict reader, "no data yet" to a
// tail or socket reader, which re-polls from the frame boundary.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/record.h"
#include "util/byte_io.h"
#include "util/compression.h"

namespace jig {

// On-disk structure constants of the .jigt data region.
inline constexpr char kTraceDataMagic[4] = {'J', 'I', 'G', 'T'};
inline constexpr std::uint32_t kTraceVersion = 1;
// Sanity bound on a header or compressed block: blocks are ~512 records of
// a few hundred bytes each, so anything past this is a garbage length
// field, not a block that has not finished writing.
inline constexpr std::uint32_t kMaxPackedBlockLen = 1u << 26;

// Error taxonomy for trace parsing.  The distinction matters to live
// ingest: a truncated structure may simply not be written yet, while
// corruption can never be fixed by waiting.
class TraceError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};
// The file ends in the middle of a structure (header, block, index
// trailer): either a write still in progress or a lost tail.  Tail-follow
// readers treat this as "no data yet"; batch readers surface it so the
// caller knows the trace is unfinished rather than garbage.
class TraceTruncatedError : public TraceError {
  using TraceError::TraceError;
};
// The bytes present cannot be a trace (bad magic, impossible lengths,
// malformed compression): retrying cannot help.
class TraceCorruptError : public TraceError {
  using TraceError::TraceError;
};

namespace block_codec {

// Identifies a framed format by its prefix, and says how its writer
// compresses blocks.
struct Format {
  const char* magic;  // 4 bytes
  std::uint32_t version;
  const char* what;  // names the format in error messages
  LzLevel level;
};
inline constexpr Format kTraceFormat{kTraceDataMagic, kTraceVersion, "trace",
                                     LzLevel::kDefault};

enum class Status : std::uint8_t { kNeedMore, kMarker, kComplete };

struct Frame {
  Status status = Status::kNeedMore;
  // kNeedMore: the bytes the frame needs in total, as far as is known yet
  // (it grows once a length word arrives).  Otherwise the bytes it spans.
  std::size_t size = 0;
  // kComplete: the header (prefix) or the LZ payload (unit).
  std::span<const std::uint8_t> body;
};

// Parses the prefix at the front of `bytes`, checking each field as soon as
// it is present.  Throws TraceCorruptError on a bad magic or version or a
// header_len past kMaxPackedBlockLen.  Never returns kMarker.
Frame ParsePrefix(std::span<const std::uint8_t> bytes, const Format& format);
inline Frame ParseTracePrefix(std::span<const std::uint8_t> bytes) {
  return ParsePrefix(bytes, kTraceFormat);
}

// Parses the unit at the front of `bytes`.  Throws TraceCorruptError on a
// length word past kMaxPackedBlockLen.
Frame ParseUnit(std::span<const std::uint8_t> bytes);

// What an LZ stream cut short inside a fully framed block means.  A batch
// or strict reader calls it a torn write of the payload itself; a tail or
// socket reader knows the framing promised a complete payload that can
// never grow, so re-polling would livelock.
enum class TornPayload : std::uint8_t { kTruncated, kCorrupt };

// Decompresses a unit's payload.  LzTruncatedError maps per `torn`; every
// other failure is TraceCorruptError.
Bytes Inflate(std::span<const std::uint8_t> payload, TornPayload torn,
              const char* what);

// Runs `parse` over bytes the framing says are complete; any failure that
// is not already a TraceError (a ByteReader underflow, a bad count) becomes
// TraceCorruptError, since waiting cannot help.
template <typename Parse>
void ParseComplete(std::span<const std::uint8_t> bytes, const char* what,
                   Parse&& parse) {
  try {
    ByteReader r(bytes);
    parse(r);
  } catch (const TraceError&) {
    throw;
  } catch (const std::exception& e) {
    throw TraceCorruptError(std::string(what) + ": malformed contents (" +
                            e.what() + ")");
  }
}

TraceHeader DecodeTraceHeader(std::span<const std::uint8_t> header);
Bytes EncodeTraceHeader(const TraceHeader& header);

// Inflates a .jigt record block and decodes its delta-timestamp records
// (the delta state restarts per block) to the block's end, handing each to
// `sink` as an rvalue.
template <typename Sink>
void DecodeRecords(std::span<const std::uint8_t> payload, TornPayload torn,
                   const char* what, Sink&& sink) {
  const Bytes raw = Inflate(payload, torn, what);
  ParseComplete(raw, what, [&sink](ByteReader& r) {
    LocalMicros prev = 0;
    while (!r.AtEnd()) {
      CaptureRecord rec = DeserializeRecord(r, prev);
      prev = rec.timestamp;
      sink(std::move(rec));
    }
  });
}

// Inflates a .jigt record block and walks its records without
// materializing them: the record count DecodeRecords would deliver, from
// the same checks and failures, with no allocation past the inflated block.
std::size_t CountRecords(std::span<const std::uint8_t> payload,
                         TornPayload torn, const char* what);

// One unit as a relay moves it: the LZ payload, still compressed, and how
// many records it holds.  The payload is a view; its owner says how long
// it stays valid.
struct StoredUnit {
  std::span<const std::uint8_t> payload;
  std::uint32_t records = 0;
};

class Encoder;

// The pending .jigt block's first and last timestamps (the .jigt index
// keys); `last` is also the next record's delta base.
struct RecordSpan {
  LocalMicros first = 0;
  LocalMicros last = 0;
};

// Appends one .jigt record to the encoder's pending block, the mirror of
// DecodeRecords: its timestamp is a delta from the block's previous record
// (from 0 for the block's first), so every block decodes on its own.
void AppendRecord(Encoder& encoder, const CaptureRecord& rec,
                  RecordSpan& span);

// Counts one .jigt block decoded from a file (the jig_trace_*_total
// counters the batch and tail readers share).
void CountTraceBlock(std::size_t frame_bytes, std::size_t records);

// Positional reads over a file: the one byte source of the file-backed
// readers (.jigt batch, .jigt tail, .jigs).  Every read seeks first and
// clears the EOF state, so a file another process is still appending to
// shows its new bytes on the next read.
class FileSource {
 public:
  // Throws std::runtime_error when `path` cannot be opened.
  explicit FileSource(const std::filesystem::path& path);
  ~FileSource();
  FileSource(FileSource&& other) noexcept;
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;
  FileSource& operator=(FileSource&&) = delete;

  // Reads up to n bytes at `offset`; fewer only where the file ends.
  // Throws TraceError on a read error.
  std::size_t ReadAt(std::uint64_t offset, std::uint8_t* out, std::size_t n);
  std::uint64_t Size();

  // Reads the frame `parse` finds at `offset` into `buf`.  kNeedMore means
  // the file ends first; `buf` then holds the bytes that are there.
  template <typename Parse>
  Frame ReadFrame(std::uint64_t offset, Bytes& buf, Parse&& parse) {
    buf.clear();
    Frame f = parse(std::span<const std::uint8_t>(buf));
    while (f.status == Status::kNeedMore) {
      const std::size_t have = buf.size();
      const std::size_t want = f.size;
      buf.resize(want);
      buf.resize(have + ReadAt(offset + have, buf.data() + have,
                               want - have));
      // Parsed even when short: the fields that did arrive are checked.
      f = parse(std::span<const std::uint8_t>(buf));
      if (buf.size() < want) return f;
    }
    return f;
  }

 private:
  std::FILE* file_;
};

// ---- Write half ------------------------------------------------------------

// Where an encoder's bytes go.  Write lands every byte or throws
// std::runtime_error; Flush publishes what was written to a concurrent
// reader.
class Sink {
 public:
  Sink() = default;
  virtual ~Sink() = default;
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  virtual void Write(std::span<const std::uint8_t> bytes) = 0;
  virtual void Flush() = 0;
};

// A file created (or truncated) for writing and closed on destruction.
// Every write and flush is checked; `what` names the format in errors.
class FileSink final : public Sink {
 public:
  // Throws std::runtime_error when `path` cannot be opened.
  FileSink(const std::filesystem::path& path, const char* what);
  ~FileSink() override;

  void Write(std::span<const std::uint8_t> bytes) override;
  void Flush() override;

 private:
  std::FILE* file_;
  const char* what_;
};

// Writes one framed stream: the prefix on construction, one unit per cut
// block, and the marker on Finish.  Records collect in a pending block
// that is cut at records_per_block or on Sync, compressed at the format's
// level.  Writers keep only what their format adds: the record encoding,
// and the hooks below.
class Encoder {
 public:
  struct Hooks {
    // A block is cut: its unit starts at stream offset `offset` and holds
    // `records` records.  Called before the unit is written.
    std::function<void(std::uint64_t offset, std::uint32_t records)> on_cut;
    // The bytes that follow the marker, starting at stream offset `offset`
    // (the .jigt index trailer).
    std::function<Bytes(std::uint64_t offset)> trailer;
  };

  // Writes the prefix of `format` around `header` and flushes it, so a
  // concurrent reader can identify the stream before its first block
  // lands.  Throws std::runtime_error when the sink fails.
  Encoder(std::unique_ptr<Sink> sink, const Format& format,
          std::span<const std::uint8_t> header, std::size_t records_per_block,
          Hooks hooks = {});
  // Finishes the stream unless Finish or Abandon ran; errors are dropped
  // (an explicit Finish reports them).
  ~Encoder();
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  // Appends one record: `encode(block, opens)` serializes it onto the
  // pending block's raw bytes, `opens` saying it is the block's first.
  // Throws std::logic_error after Finish or Abandon.
  template <typename Encode>
  void Append(Encode&& encode) {
    if (closed_) throw std::logic_error("Append after Finish");
    encode(pending_, pending_records_ == 0);
    ++records_;
    if (++pending_records_ >= records_per_block_) Cut();
  }
  // Appends a unit another stream already framed: cuts the pending
  // records, then writes `unit` as the next block, its payload unchanged,
  // counting its records.  Throws std::invalid_argument on an empty
  // payload (its length word would be the finalize marker) and
  // std::logic_error after Finish or Abandon.
  void AppendUnit(const StoredUnit& unit);
  // Publication point: cuts the pending records into a block (so blocks
  // may be shorter than records_per_block) and flushes the sink.  Throws
  // std::logic_error after Finish or Abandon.
  void Sync();
  // Cuts the pending records, writes the [u32 0] marker and the trailer,
  // and flushes.  Idempotent, also after it threw.
  void Finish();
  // Closes the stream the way a crash leaves it: the pending block is
  // dropped and no marker is written.  Idempotent.
  void Abandon();

  // Bytes handed to the sink: prefix, cut units, marker and trailer, never
  // the pending block.
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t records() const { return records_; }

 private:
  void Cut();
  // Writes one [len][payload] unit, firing on_cut first.
  void WriteUnit(std::span<const std::uint8_t> payload, std::uint32_t records);
  void Write(std::span<const std::uint8_t> bytes);
  void WriteU32(std::uint32_t v);

  std::unique_ptr<Sink> sink_;
  LzLevel level_;
  std::size_t records_per_block_;
  Hooks hooks_;
  Bytes pending_;  // serialized records awaiting compression
  std::uint32_t pending_records_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_written_ = 0;
  bool closed_ = false;
};

}  // namespace block_codec
}  // namespace jig
