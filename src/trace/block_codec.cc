#include "trace/block_codec.h"

#include <cstring>
#include <sys/types.h>
#include <utility>

#include "obs/metrics.h"
#include "util/compression.h"

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

TraceHeader DecodeTraceHeader(std::span<const std::uint8_t> header) {
  TraceHeader h;
  ParseComplete(header, "trace header",
                [&h](ByteReader& r) { h = DeserializeHeader(r); });
  return h;
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

}  // namespace jig::block_codec
