#include "trace/block_codec.h"

#include <cstring>
#include <sys/types.h>
#include <utility>

#include "obs/metrics.h"

namespace jig::block_codec {
namespace {

constexpr std::size_t kPrefixLen = 12;  // magic + version + header_len
constexpr std::size_t kLenWord = 4;

std::uint32_t U32At(std::span<const std::uint8_t> bytes, std::size_t at) {
  return ByteReader(bytes.subspan(at, 4)).U32();
}

struct TraceMetrics {
  obs::Counter& bytes = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_bytes_read_total", "Compressed trace bytes read from disk");
  obs::Counter& blocks = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_blocks_decoded_total", "Trace blocks decompressed");
  obs::Counter& records = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_records_decoded_total", "Capture records decoded");
};

TraceMetrics& Metrics() {
  static TraceMetrics* m = new TraceMetrics();
  return *m;
}

}  // namespace

Frame ParsePrefix(std::span<const std::uint8_t> bytes, const Format& format) {
  const std::string what = format.what;
  if (bytes.size() >= 4 && std::memcmp(bytes.data(), format.magic, 4) != 0) {
    throw TraceCorruptError(what + ": bad magic");
  }
  if (bytes.size() >= 8 && U32At(bytes, 4) != format.version) {
    throw TraceCorruptError(what + ": unsupported version " +
                            std::to_string(U32At(bytes, 4)));
  }
  if (bytes.size() < kPrefixLen) return {Status::kNeedMore, kPrefixLen, {}};
  const std::uint32_t header_len = U32At(bytes, 8);
  if (header_len > kMaxPackedBlockLen) {
    throw TraceCorruptError(what + ": garbage header length " +
                            std::to_string(header_len));
  }
  const std::size_t size = kPrefixLen + header_len;
  if (bytes.size() < size) return {Status::kNeedMore, size, {}};
  return {Status::kComplete, size, bytes.subspan(kPrefixLen, header_len)};
}

Frame ParseUnit(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kLenWord) return {Status::kNeedMore, kLenWord, {}};
  const std::uint32_t len = U32At(bytes, 0);
  if (len == 0) return {Status::kMarker, kLenWord, {}};
  if (len > kMaxPackedBlockLen) {
    throw TraceCorruptError("garbage block length " + std::to_string(len));
  }
  const std::size_t size = kLenWord + len;
  if (bytes.size() < size) return {Status::kNeedMore, size, {}};
  return {Status::kComplete, size, bytes.subspan(kLenWord, len)};
}

Bytes Inflate(std::span<const std::uint8_t> payload, TornPayload torn,
              const char* what) {
  try {
    return LzDecompress(payload);
  } catch (const LzTruncatedError& e) {
    const std::string msg =
        std::string(what) + ": block payload truncated (" + e.what() + ")";
    if (torn == TornPayload::kTruncated) throw TraceTruncatedError(msg);
    throw TraceCorruptError(msg);
  } catch (const std::exception& e) {
    throw TraceCorruptError(std::string(what) + ": malformed block (" +
                            e.what() + ")");
  }
}

std::size_t CountRecords(std::span<const std::uint8_t> payload,
                         TornPayload torn, const char* what) {
  const Bytes raw = Inflate(payload, torn, what);
  std::size_t records = 0;
  ParseComplete(raw, what, [&records](ByteReader& r) {
    for (; !r.AtEnd(); ++records) SkipRecord(r);
  });
  return records;
}

TraceHeader DecodeTraceHeader(std::span<const std::uint8_t> header) {
  TraceHeader h;
  ParseComplete(header, "trace header",
                [&h](ByteReader& r) { h = DeserializeHeader(r); });
  return h;
}

Bytes EncodeTraceHeader(const TraceHeader& header) {
  Bytes out;
  SerializeHeader(header, out);
  return out;
}

void AppendRecord(Encoder& encoder, const CaptureRecord& rec,
                  RecordSpan& span) {
  encoder.Append([&rec, &span](Bytes& block, bool opens) {
    if (opens) span.first = rec.timestamp;
    SerializeRecord(rec, opens ? 0 : span.last, block);
    span.last = rec.timestamp;
  });
}

void CountTraceBlock(std::size_t frame_bytes, std::size_t records) {
  TraceMetrics& m = Metrics();
  m.bytes.Add(frame_bytes);
  m.blocks.Add(1);
  m.records.Add(records);
}

FileSource::FileSource(const std::filesystem::path& path)
    : file_(std::fopen(path.string().c_str(), "rb")) {
  if (!file_) {
    throw std::runtime_error("cannot open for reading: " + path.string());
  }
}

FileSource::~FileSource() {
  if (file_) std::fclose(file_);
}

FileSource::FileSource(FileSource&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)) {}

std::size_t FileSource::ReadAt(std::uint64_t offset, std::uint8_t* out,
                               std::size_t n) {
  if (fseeko(file_, static_cast<off_t>(offset), SEEK_SET) != 0) {
    throw TraceError("read: seek to " + std::to_string(offset) + " failed");
  }
  std::clearerr(file_);
  const std::size_t got = std::fread(out, 1, n, file_);
  if (got < n && std::ferror(file_)) throw TraceError("read error");
  return got;
}

std::uint64_t FileSource::Size() {
  if (fseeko(file_, 0, SEEK_END) != 0) throw TraceError("read: seek to end");
  const off_t size = ftello(file_);
  if (size < 0) throw TraceError("read: tell");
  return static_cast<std::uint64_t>(size);
}

FileSink::FileSink(const std::filesystem::path& path, const char* what)
    : file_(std::fopen(path.string().c_str(), "wb")), what_(what) {
  if (!file_) {
    throw std::runtime_error(std::string("cannot open ") + what +
                             " for writing: " + path.string());
  }
}

FileSink::~FileSink() { std::fclose(file_); }

void FileSink::Write(std::span<const std::uint8_t> bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    throw std::runtime_error(std::string(what_) + ": short write");
  }
}

void FileSink::Flush() {
  if (std::fflush(file_) != 0) {
    throw std::runtime_error(std::string(what_) + ": flush");
  }
}

Encoder::Encoder(std::unique_ptr<Sink> sink, const Format& format,
                 std::span<const std::uint8_t> header,
                 std::size_t records_per_block, Hooks hooks)
    : sink_(std::move(sink)),
      level_(format.level),
      records_per_block_(records_per_block),
      hooks_(std::move(hooks)) {
  Write({reinterpret_cast<const std::uint8_t*>(format.magic), 4});
  WriteU32(format.version);
  WriteU32(static_cast<std::uint32_t>(header.size()));
  Write(header);
  sink_->Flush();
}

Encoder::~Encoder() {
  try {
    Finish();
  } catch (...) {
    // Destructor must not throw; an explicit Finish() reports errors.
  }
}

void Encoder::AppendUnit(const StoredUnit& unit) {
  if (closed_) throw std::logic_error("AppendUnit after Finish");
  if (unit.payload.empty()) {
    throw std::invalid_argument("AppendUnit: empty payload");
  }
  Cut();
  WriteUnit(unit.payload, unit.records);
  records_ += unit.records;
}

void Encoder::Sync() {
  if (closed_) throw std::logic_error("Sync after Finish");
  Cut();
  sink_->Flush();
}

void Encoder::Finish() {
  if (closed_) return;
  closed_ = true;
  Cut();
  WriteU32(0);  // the finalize marker
  if (hooks_.trailer) Write(hooks_.trailer(bytes_written_));
  sink_->Flush();
}

void Encoder::Abandon() {
  if (closed_) return;
  closed_ = true;
  pending_.clear();
  pending_records_ = 0;
  try {
    sink_->Flush();  // what was cut before the "crash" stays published
  } catch (const std::exception&) {
    // A crashed writer reports nothing.
  }
}

void Encoder::Cut() {
  if (pending_records_ == 0) return;
  WriteUnit(LzCompress(pending_, level_), pending_records_);
  pending_.clear();
  pending_records_ = 0;
}

void Encoder::WriteUnit(std::span<const std::uint8_t> payload,
                        std::uint32_t records) {
  if (hooks_.on_cut) hooks_.on_cut(bytes_written_, records);
  WriteU32(static_cast<std::uint32_t>(payload.size()));
  Write(payload);
}

void Encoder::Write(std::span<const std::uint8_t> bytes) {
  sink_->Write(bytes);
  bytes_written_ += bytes.size();
}

void Encoder::WriteU32(std::uint32_t v) {
  const std::uint8_t word[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  Write(word);
}

}  // namespace jig::block_codec
