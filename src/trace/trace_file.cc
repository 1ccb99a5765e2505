#include "trace/trace_file.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "trace/framed_io.h"
#include "util/compression.h"

namespace jig {
namespace {

constexpr const char* kWhat = "trace file";

void WriteAll(std::FILE* f, const void* data, std::size_t n) {
  framed_io::WriteAll(f, data, n, kWhat);
}
void WriteU32(std::FILE* f, std::uint32_t v) {
  framed_io::WriteU32(f, v, kWhat);
}
void WriteU64(std::FILE* f, std::uint64_t v) {
  framed_io::WriteU64(f, v, kWhat);
}

}  // namespace

TraceFileWriter::TraceFileWriter(const std::filesystem::path& path,
                                 const TraceHeader& header,
                                 std::size_t records_per_block)
    : records_per_block_(records_per_block) {
  file_ = std::fopen(path.string().c_str(), "wb");
  if (!file_) {
    throw std::runtime_error("cannot open trace for writing: " +
                             path.string());
  }
  WriteAll(file_, kTraceDataMagic, 4);
  WriteU32(file_, kTraceVersion);
  Bytes hdr;
  SerializeHeader(header, hdr);
  WriteU32(file_, static_cast<std::uint32_t>(hdr.size()));
  WriteAll(file_, hdr.data(), hdr.size());
  // Publish the header immediately: a tail reader can identify the radio
  // before the first block lands.
  std::fflush(file_);
}

TraceFileWriter::~TraceFileWriter() {
  try {
    if (!finished_) Finish();
  } catch (...) {
    // Destructor must not throw; an explicit Finish() reports errors.
  }
  if (file_) std::fclose(file_);
}

void TraceFileWriter::Append(const CaptureRecord& rec) {
  if (finished_) throw std::logic_error("Append after Finish");
  if (pending_count_ == 0) {
    block_first_ts_ = rec.timestamp;
    prev_ts_ = 0;  // each block is self-contained for seekability
  }
  SerializeRecord(rec, prev_ts_, pending_);
  prev_ts_ = rec.timestamp;
  ++pending_count_;
  ++records_written_;
  if (pending_count_ >= records_per_block_) FlushBlock();
}

void TraceFileWriter::FlushBlock() {
  if (pending_count_ == 0) return;
  const auto packed = LzCompress(pending_);
  BlockIndexEntry entry;
  entry.file_offset = static_cast<std::uint64_t>(std::ftell(file_));
  entry.first_timestamp = block_first_ts_;
  entry.last_timestamp = prev_ts_;
  entry.record_count = pending_count_;
  index_.push_back(entry);

  WriteU32(file_, static_cast<std::uint32_t>(packed.size()));
  WriteAll(file_, packed.data(), packed.size());
  pending_.clear();
  pending_count_ = 0;
}

void TraceFileWriter::Sync() {
  if (finished_) throw std::logic_error("Sync after Finish");
  FlushBlock();
  if (std::fflush(file_) != 0) throw std::runtime_error("trace file: flush");
}

void TraceFileWriter::Finish() {
  if (finished_) return;
  FlushBlock();
  WriteU32(file_, 0);  // terminator — the finalize marker tail readers see
  const auto index_offset = static_cast<std::uint64_t>(std::ftell(file_));
  WriteU32(file_, static_cast<std::uint32_t>(index_.size()));
  for (const auto& e : index_) {
    WriteU64(file_, e.file_offset);
    WriteU64(file_, static_cast<std::uint64_t>(e.first_timestamp));
    WriteU64(file_, static_cast<std::uint64_t>(e.last_timestamp));
    WriteU32(file_, e.record_count);
  }
  WriteU64(file_, index_offset);
  WriteAll(file_, kTraceIndexMagic, 4);
  if (std::fflush(file_) != 0) throw std::runtime_error("trace file: flush");
  finished_ = true;
}

TraceFileReader::TraceFileReader(const std::filesystem::path& path)
    : file_(path) {
  Bytes frame;
  const block_codec::Frame prefix =
      file_.ReadFrame(0, frame, block_codec::ParseTracePrefix);
  if (prefix.status != block_codec::Status::kComplete) {
    throw TraceTruncatedError("trace file ends inside its header: " +
                              path.string());
  }
  header_ = block_codec::DecodeTraceHeader(prefix.body);
  ReadIndex(path);
  Rewind();
}

// Loads the index from the trailer.  A valid data magic but no trailer is a
// trace whose writer has not finalized (or died): truncated, not corrupt —
// a tail-follow reader could still consume it.
void TraceFileReader::ReadIndex(const std::filesystem::path& path) {
  constexpr std::size_t kTrailerBytes = 12;  // u64 index_offset + "JIGX"
  const std::uint64_t file_size = file_.Size();
  std::uint8_t trailer[kTrailerBytes];
  if (file_size < kTrailerBytes ||
      file_.ReadAt(file_size - kTrailerBytes, trailer, kTrailerBytes) !=
          kTrailerBytes ||
      std::memcmp(trailer + 8, kTraceIndexMagic, 4) != 0) {
    throw TraceTruncatedError("no index trailer (unfinished trace): " +
                              path.string());
  }
  const std::uint64_t index_offset =
      ByteReader(std::span<const std::uint8_t>(trailer, 8)).U64();
  if (index_offset > file_size - kTrailerBytes) {
    throw TraceCorruptError("bad index offset: " + path.string());
  }
  Bytes region(file_size - kTrailerBytes - index_offset);
  file_.ReadAt(index_offset, region.data(), region.size());
  block_codec::ParseComplete(region, "trace index", [&](ByteReader& r) {
    const std::uint32_t n_blocks = r.U32();
    // Each entry occupies 28 bytes on disk (u64+u64+u64+u32); a count the
    // region cannot hold is corrupt, and reserving for it unchecked would
    // let a 4-byte field demand ~2 GB.
    constexpr std::size_t kIndexEntryBytes = 8 + 8 + 8 + 4;
    if (n_blocks > r.remaining() / kIndexEntryBytes) {
      throw TraceCorruptError("garbage index block count");
    }
    index_.reserve(n_blocks);
    for (std::uint32_t i = 0; i < n_blocks; ++i) {
      BlockIndexEntry e;
      e.file_offset = r.U64();
      e.first_timestamp = static_cast<LocalMicros>(r.U64());
      e.last_timestamp = static_cast<LocalMicros>(r.U64());
      e.record_count = r.U32();
      // Blocks live strictly before the index; an offset past it can only
      // come from a corrupt trailer.
      if (e.file_offset >= index_offset) {
        throw TraceCorruptError("index entry offset past index region");
      }
      index_.push_back(e);
    }
  });
}

std::uint64_t TraceFileReader::TotalRecords() const {
  std::uint64_t n = 0;
  for (const auto& e : index_) n += e.record_count;
  return n;
}

void TraceFileReader::LoadBlock(std::size_t block_idx) {
  block_records_.clear();
  block_pos_ = 0;
  if (block_idx >= index_.size()) return;
  const auto& entry = index_[block_idx];
  Bytes frame;
  const block_codec::Frame unit =
      file_.ReadFrame(entry.file_offset, frame, block_codec::ParseUnit);
  if (unit.status == block_codec::Status::kNeedMore) {
    // The index promises a block the data region no longer (or does not
    // yet) fully contains.
    throw TraceTruncatedError("indexed block truncated");
  }
  if (unit.status == block_codec::Status::kMarker) {
    throw TraceCorruptError("index entry points at the finalize marker");
  }
  block_codec::DecodeRecords(
      unit.body, block_codec::TornPayload::kTruncated, "trace file",
      [this](CaptureRecord&& rec) { block_records_.push_back(std::move(rec)); });
  if (block_records_.size() != entry.record_count) {
    throw TraceCorruptError(
        "indexed block holds " + std::to_string(block_records_.size()) +
        " records, index says " + std::to_string(entry.record_count));
  }
  block_codec::CountTraceBlock(unit.size, block_records_.size());
}

std::optional<CaptureRecord> TraceFileReader::Next() {
  const CaptureRecord* rec = NextRef();
  if (!rec) return std::nullopt;
  return *rec;
}

const CaptureRecord* TraceFileReader::NextRef() {
  while (block_pos_ >= block_records_.size()) {
    if (current_block_ >= index_.size()) return nullptr;
    LoadBlock(current_block_++);
  }
  return &block_records_[block_pos_++];
}

void TraceFileReader::SeekToTimestamp(LocalMicros ts) {
  std::size_t idx = 0;
  while (idx < index_.size() && index_[idx].last_timestamp < ts) ++idx;
  current_block_ = idx;
  block_records_.clear();
  block_pos_ = 0;
  if (idx < index_.size()) {
    LoadBlock(current_block_++);
    while (block_pos_ < block_records_.size() &&
           block_records_[block_pos_].timestamp < ts) {
      ++block_pos_;
    }
  }
}

void TraceFileReader::Rewind() {
  current_block_ = 0;
  block_records_.clear();
  block_pos_ = 0;
}

}  // namespace jig
