#include "trace/tail_trace.h"

#include <utility>

#include "obs/metrics.h"

namespace jig {
namespace {

struct TailMetrics {
  obs::Counter& repolls = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_repolls_total",
      "Tail polls that found no new complete block");
  obs::Counter& truncation_retries = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_truncation_retries_total",
      "Tail polls that saw a half-written block body and backed off");
};

TailMetrics& Metrics() {
  static TailMetrics* m = new TailMetrics();
  return *m;
}

}  // namespace

std::unique_ptr<TailFileTrace> TailFileTrace::TryOpen(
    const std::filesystem::path& path) {
  block_codec::FileSource file(path);
  Bytes buf;
  const block_codec::Frame prefix =
      file.ReadFrame(0, buf, block_codec::ParseTracePrefix);
  if (prefix.status != block_codec::Status::kComplete) return nullptr;
  const TraceHeader header = block_codec::DecodeTraceHeader(prefix.body);
  return std::unique_ptr<TailFileTrace>(
      new TailFileTrace(std::move(file), header, prefix.size, path));
}

TailFileTrace::TailFileTrace(block_codec::FileSource file, TraceHeader header,
                             std::uint64_t data_start,
                             std::filesystem::path path)
    : file_(std::move(file)),
      header_(header),
      path_(std::move(path)),
      data_start_(data_start),
      next_block_offset_(data_start) {}

std::optional<block_codec::Frame> TailFileTrace::ReadFrontierUnit(
    Bytes& buf) {
  // After a Rewind() past the latched marker, replay stops exactly where
  // the marker was seen — re-reading it would be wasted IO, and the latch
  // itself must never clear.
  if (end_marker_seen_ && next_block_offset_ >= end_marker_offset_) {
    return std::nullopt;
  }
  const block_codec::Frame unit =
      file_.ReadFrame(next_block_offset_, buf, block_codec::ParseUnit);
  switch (unit.status) {
    case block_codec::Status::kNeedMore:
      // The length word or the block body is still being written; re-poll
      // from the boundary.
      (buf.size() < 4 ? Metrics().repolls : Metrics().truncation_retries)
          .Add(1);
      return std::nullopt;
    case block_codec::Status::kMarker:
      // The writer's finalize marker: no block will ever follow.
      end_marker_seen_ = true;
      end_marker_offset_ = next_block_offset_;
      return std::nullopt;
    case block_codec::Status::kComplete:
      break;
  }
  return unit;
}

bool TailFileTrace::TryLoadNextBlock() {
  Bytes frame;
  const std::optional<block_codec::Frame> unit = ReadFrontierUnit(frame);
  if (!unit) return false;
  block_records_.clear();
  block_pos_ = 0;
  block_codec::DecodeRecords(
      unit->body, block_codec::TornPayload::kCorrupt, path_.c_str(),
      [this](CaptureRecord&& rec) { block_records_.push_back(std::move(rec)); });
  block_codec::CountTraceBlock(unit->size, block_records_.size());
  next_block_offset_ += unit->size;
  return true;
}

std::optional<block_codec::StoredUnit> TailFileTrace::NextUnit(std::size_t,
                                                               Bytes&) {
  block_records_.clear();
  block_pos_ = 0;
  const std::optional<block_codec::Frame> unit = ReadFrontierUnit(unit_);
  if (!unit) return std::nullopt;
  const std::size_t records = block_codec::CountRecords(
      unit->body, block_codec::TornPayload::kCorrupt, path_.c_str());
  block_codec::CountTraceBlock(unit->size, records);
  next_block_offset_ += unit->size;
  return block_codec::StoredUnit{unit->body,
                                 static_cast<std::uint32_t>(records)};
}

const CaptureRecord* TailFileTrace::NextRef() {
  while (block_pos_ >= block_records_.size()) {
    if (!TryLoadNextBlock()) return nullptr;
  }
  return &block_records_[block_pos_++];
}

void TailFileTrace::Rewind() {
  next_block_offset_ = data_start_;
  block_records_.clear();
  block_pos_ = 0;
  // Deliberately leaves end_marker_seen_ untouched: finalize is a latch.
  // Clearing it here let a re-poll consumer observe Finalized() flapping
  // true -> false after a bootstrap rewind, and a socket/wing consumer
  // that tears down on the first true would then hang forever waiting for
  // a marker it had already consumed.
}

}  // namespace jig
