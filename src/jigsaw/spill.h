// The .jigs segment format (docs/FORMATS.md, "`.jigs` output-log
// segments"): the byte layout of the monitoring service's durable output
// log (out-<seq>.jigs, see jigsaw/service.h).  The names keep the word
// "spill" from the merge's former on-disk queue tier, which first wrote
// these bytes; the merge itself no longer spills — its trace files are
// the buffer (docs/ARCHITECTURE.md, "Why the merge has no spill").
//
// Segments are versioned framed files ("JIGS" magic) read through the
// trace layer's block codec (trace/block_codec.h): the same block
// framing, length caps, LZ compression and error taxonomy — the same
// [u32 0] finalize marker as .jigt, TraceTruncatedError for a file that
// ends mid-structure (a crash mid-write), TraceCorruptError for bytes that
// can never parse.  A crash is therefore detected and reported, never
// silently merged.  Unlike .jigt there is no index trailer — segments are
// only ever read sequentially.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "jigsaw/jframe.h"
#include "trace/block_codec.h"

namespace jig {

// On-disk structure constants, shared with `jigtool inspect-spill`.
inline constexpr char kSpillMagic[4] = {'J', 'I', 'G', 'S'};
inline constexpr std::uint32_t kSpillVersion = 1;

// Identifies a segment's place in its stream.
struct SpillSegmentHeader {
  std::uint8_t channel = 0;    // channel number; 0 for the output log
  std::uint64_t sequence = 0;  // segment sequence within the stream, from 0
};

// Lossless jframe (de)serialization for segment blocks.  Every field of
// JFrame / FrameInstance / Frame round-trips bit-exactly — the output log
// sits inside the byte-identical determinism contract, so "close enough"
// is not available.  Deserialization failures surface as the ByteReader's
// std::runtime_error; SpillSegmentReader wraps them as TraceCorruptError.
void SerializeJFrame(const JFrame& jf, Bytes& out);
JFrame DeserializeJFrame(ByteReader& r);

// Appends jframes to one spill segment through the block codec's Encoder:
// records buffer into a pending block, Sync() cuts + flushes it (the
// publication point a concurrent reader may rely on), Finish() writes the
// [u32 0] finalize marker.  Blocks are compressed at LzLevel::kFast.
class SpillSegmentWriter {
 public:
  SpillSegmentWriter(const std::filesystem::path& path,
                     const SpillSegmentHeader& header,
                     std::size_t records_per_block = 256);

  void Append(const JFrame& jf) {
    encoder_.Append([&jf](Bytes& block, bool) { SerializeJFrame(jf, block); });
  }
  void Sync() { encoder_.Sync(); }
  void Finish() { encoder_.Finish(); }
  // Closes the segment the way a crash would leave it: the pending uncut
  // block is discarded and NO finalize marker is written, so a later
  // strict read reports truncation and a tail read stops at the last
  // published block.  The monitoring service's simulated-kill path uses
  // this — the destructor's implicit Finish() would forge an end-of-
  // stream marker the "crashed" process never wrote.  Idempotent; the
  // writer is unusable afterwards (Append/Sync throw).
  void Abandon() { encoder_.Abandon(); }

  std::uint64_t records_written() const { return encoder_.records(); }
  // Bytes landed in the file so far (published blocks + header/trailer);
  // excludes the pending uncut block.
  std::uint64_t bytes_written() const { return encoder_.bytes_written(); }

 private:
  block_codec::Encoder encoder_;
};

// Sequential reader over one segment.
//
// Two frontier disciplines, matching the .jigt tail rules:
//   * tail mode (strict = false): a file that ends mid-structure is "no
//     data yet" — Next() returns nullopt and a later call re-polls from
//     the same frontier.  Used by the service's recovery to count the
//     complete jframes of a (possibly torn) newest segment.
//   * strict mode (strict = true): the segment is expected complete, so a
//     missing finalize marker or a torn trailing block is a
//     TraceTruncatedError (a crash mid-write), and garbage is a
//     TraceCorruptError.  Used by `jigtool inspect-spill`.
class SpillSegmentReader {
 public:
  explicit SpillSegmentReader(const std::filesystem::path& path,
                              bool strict = true);

  SpillSegmentReader(const SpillSegmentReader&) = delete;
  SpillSegmentReader& operator=(const SpillSegmentReader&) = delete;

  const SpillSegmentHeader& header() const { return header_; }
  // nullopt at the frontier (tail mode) or after the finalize marker.
  std::optional<JFrame> Next();
  bool finalized() const { return finalized_; }
  std::uint64_t records_read() const { return records_read_; }
  std::uint64_t blocks_read() const { return blocks_read_; }

 private:
  bool LoadNextBlock();  // false at frontier/terminator

  block_codec::FileSource file_;
  bool strict_;
  SpillSegmentHeader header_;
  std::uint64_t offset_ = 0;  // read frontier (block-aligned)
  std::vector<JFrame> block_;
  std::size_t block_pos_ = 0;
  bool finalized_ = false;
  std::uint64_t records_read_ = 0;
  std::uint64_t blocks_read_ = 0;
};

}  // namespace jig
