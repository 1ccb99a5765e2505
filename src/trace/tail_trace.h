// Tail-follow record stream over a growing .jigt file.
//
// The paper's pipeline is online: the merge must consume traces the radios
// are still writing.  TailFileTrace reads the same block format as
// TraceFileReader but never touches the index trailer — it walks the data
// region sequentially and, at the write frontier, distinguishes three
// situations a batch reader conflates:
//
//   * no data yet     — the next block's length word or body is not fully
//                       on disk.  Next() returns nullopt, Finalized() stays
//                       false, and the partially written region is re-read
//                       from the block boundary on the next call (a
//                       half-written trailing block is never mistaken for
//                       corruption or EOF).
//   * finalized       — the writer's Finish() wrote the [u32 0] terminator:
//                       an explicit end-of-capture marker.  Next() returns
//                       nullopt and Finalized() reports true.
//   * corruption      — bad magic/version, a garbage block length, or a
//                       fully written block whose contents do not parse.
//                       TraceCorruptError is thrown; waiting cannot help,
//                       so a tailer must not spin on it.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "trace/block_codec.h"
#include "trace/trace_set.h"

namespace jig {

class TailFileTrace final : public RecordStream {
 public:
  // Opens `path` if its header is fully written; returns nullptr when the
  // file is still too short (the writer has not published the header yet —
  // retry later).  Throws TraceCorruptError on bad magic/version and
  // std::runtime_error if the file cannot be opened at all.
  static std::unique_ptr<TailFileTrace> TryOpen(
      const std::filesystem::path& path);

  TailFileTrace(const TailFileTrace&) = delete;
  TailFileTrace& operator=(const TailFileTrace&) = delete;

  const TraceHeader& header() const override { return header_; }
  // nullptr means "no complete record available": consult Finalized() to
  // tell end-of-capture from a frontier that may still grow.
  const CaptureRecord* NextRef() override;
  // The next complete unit at the frontier, as stored, with the same
  // no-data-yet / finalized / corruption states as NextRef().  The block
  // is inflated once to count and check its records, none of which is
  // materialized.
  std::optional<block_codec::StoredUnit> NextUnit(std::size_t,
                                                  Bytes&) override;
  void Rewind() override;
  // Latched: once the finalize marker has been observed this stays true
  // forever — Rewind() replays the records but cannot un-finalize the
  // trace (the marker is the writer's irrevocable end-of-capture
  // statement, and a consumer that saw Finalized() == true may already
  // have torn down its re-poll loop).
  bool Finalized() const override { return end_marker_seen_; }

  const std::filesystem::path& path() const { return path_; }

 private:
  TailFileTrace(block_codec::FileSource file, TraceHeader header,
                std::uint64_t data_start, std::filesystem::path path);

  // Reads the unit at next_block_offset_ into `buf`.  nullopt with no
  // state change when the block is not fully written yet, nullopt with
  // end_marker_seen_ latched when the terminator is found.  The caller
  // advances the frontier once it has checked the unit.
  std::optional<block_codec::Frame> ReadFrontierUnit(Bytes& buf);
  // Decodes the unit at the frontier into block_records_; false when
  // there is none (see ReadFrontierUnit).
  bool TryLoadNextBlock();

  block_codec::FileSource file_;
  TraceHeader header_;
  std::filesystem::path path_;
  std::uint64_t data_start_ = 0;        // offset of the first block
  std::uint64_t next_block_offset_ = 0; // read frontier (block-aligned)
  Bytes unit_;  // the unit NextUnit handed out last
  std::vector<CaptureRecord> block_records_;
  std::size_t block_pos_ = 0;
  // Both latch on the [u32 0] terminator and survive Rewind(): replay
  // stops at the recorded marker offset instead of re-reading the marker,
  // so Finalized() can never flap back to false.
  bool end_marker_seen_ = false;
  std::uint64_t end_marker_offset_ = 0;
};

}  // namespace jig
