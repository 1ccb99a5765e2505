#include "trace/socket_trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "trace/block_codec.h"
#include "util/compression.h"

namespace jig {
namespace {

void EncodeU32(std::uint32_t v, std::uint8_t* b) {
  b[0] = static_cast<std::uint8_t>(v);
  b[1] = static_cast<std::uint8_t>(v >> 8);
  b[2] = static_cast<std::uint8_t>(v >> 16);
  b[3] = static_cast<std::uint8_t>(v >> 24);
}

struct SocketMetrics {
  obs::Counter& bytes = obs::MetricRegistry::Global().GetCounter(
      "jig_socket_trace_bytes_received_total",
      "Framed trace bytes received over sockets");
  obs::Counter& blocks = obs::MetricRegistry::Global().GetCounter(
      "jig_socket_trace_blocks_decoded_total",
      "Trace blocks decoded from sockets");
  obs::Counter& records = obs::MetricRegistry::Global().GetCounter(
      "jig_socket_trace_records_decoded_total",
      "Capture records decoded from sockets");
  obs::Counter& resumes = obs::MetricRegistry::Global().GetCounter(
      "jig_socket_trace_resumes_total",
      "Re-dialed connections adopted into an existing stream");
};

SocketMetrics& Metrics() {
  static SocketMetrics* m = new SocketMetrics();
  return *m;
}

// Appends whatever the socket holds right now to `buf`; returns true if
// the peer has closed its write side.
bool DrainSocket(net::Socket& sock, std::vector<std::uint8_t>& buf) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const net::ReadResult r = net::ReadSome(sock, chunk, sizeof chunk);
    if (r.n > 0) {
      buf.insert(buf.end(), chunk, chunk + r.n);
      Metrics().bytes.Add(r.n);
      continue;
    }
    return r.eof;
  }
}

}  // namespace

std::unique_ptr<SocketTrace> SocketTrace::Open(net::Socket sock,
                                               int header_timeout_ms) {
  Handshake hs = ParseHandshake(std::move(sock), header_timeout_ms);
  return std::unique_ptr<SocketTrace>(
      new SocketTrace(std::move(hs.sock), hs.header, hs.source_id,
                      std::move(hs.leftover)));
}

SocketTrace::Handshake SocketTrace::ParseHandshake(net::Socket sock,
                                                   int header_timeout_ms) {
  sock.SetNonBlocking();
  std::vector<std::uint8_t> buf;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(header_timeout_ms);
  constexpr std::size_t kHelloLen = 12;  // magic + version + source id
  for (;;) {
    const bool eof = DrainSocket(sock, buf);
    if (buf.size() >= kHelloLen) {
      if (std::memcmp(buf.data(), kSocketHelloMagic, 4) != 0) {
        throw TraceCorruptError("socket trace: bad hello magic");
      }
      ByteReader hello(std::span<const std::uint8_t>(buf).subspan(4, 8));
      if (hello.U32() != kSocketHelloVersion) {
        throw TraceCorruptError("socket trace: unsupported hello version");
      }
      const std::uint32_t source_id = hello.U32();
      const block_codec::Frame prefix = block_codec::ParseTracePrefix(
          std::span<const std::uint8_t>(buf).subspan(kHelloLen));
      if (prefix.status == block_codec::Status::kComplete) {
        const TraceHeader header = block_codec::DecodeTraceHeader(prefix.body);
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(
                                                 kHelloLen + prefix.size));
        return Handshake{std::move(sock), header, source_id, std::move(buf)};
      }
    }
    if (eof) {
      throw TraceTruncatedError(
          "socket trace: peer closed before the header arrived");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      throw TraceTruncatedError("socket trace: header timed out");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    pollfd pfd{sock.fd(), POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(remaining.count()) + 1);
  }
}

SocketTrace::SocketTrace(net::Socket sock, TraceHeader header,
                         std::uint32_t source_id,
                         std::vector<std::uint8_t> leftover)
    : sock_(std::move(sock)),
      header_(header),
      source_id_(source_id),
      buf_(std::move(leftover)) {}

bool SocketTrace::Pump() {
  if (finalized_) return false;
  const std::size_t before = records_.size();
  // A handshake's leftover may hold complete units; afterwards buf_ only
  // ever carries one partial unit, so this decodes nothing.
  if (const std::size_t used = DecodeUnits(buf_)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(used));
    buf_.shrink_to_fit();
  }
  std::uint8_t chunk[64 * 1024];
  while (!finalized_ && !peer_eof_) {
    const net::ReadResult r = net::ReadSome(sock_, chunk, sizeof chunk);
    if (r.n == 0) {
      peer_eof_ = r.eof;
      break;
    }
    Metrics().bytes.Add(r.n);
    Consume(chunk, r.n);
  }
  return finalized_ || records_.size() > before;
}

void SocketTrace::Consume(const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  // Complete the unit the previous read cut off — its length word, then
  // its block — taking from `data` only the bytes it still misses.
  while (!buf_.empty()) {
    const block_codec::Frame unit = block_codec::ParseUnit(buf_);
    if (unit.status != block_codec::Status::kNeedMore) {
      DecodeUnits(buf_);
      buf_.clear();
      break;
    }
    if (off == n) return;
    const std::size_t take = std::min(unit.size - buf_.size(), n - off);
    buf_.reserve(unit.size);
    buf_.insert(buf_.end(), data + off, data + off + take);
    off += take;
  }
  if (finalized_) return;
  const std::size_t used = off + DecodeUnits({data + off, n - off});
  buf_.assign(data + used, data + n);
}

std::size_t SocketTrace::DecodeUnits(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  for (;;) {
    const block_codec::Frame unit =
        block_codec::ParseUnit(bytes.subspan(off));
    switch (unit.status) {
      case block_codec::Status::kNeedMore:
        return off;  // partial unit: no data yet
      case block_codec::Status::kMarker:
        // The finalize marker: latched; any trailing bytes are ignored.
        finalized_ = true;
        sock_.Close();
        return bytes.size();
      case block_codec::Status::kComplete:
        break;
    }
    // Inflated straight from the received bytes, never copied first.
    block_codec::DecodeRecords(
        unit.body, block_codec::TornPayload::kCorrupt, "socket trace",
        [this](CaptureRecord&& rec) {
          // A resumed sender replays from record zero; drop what the old
          // connection already delivered so no record surfaces twice.
          if (resume_skip_ > 0) {
            --resume_skip_;
            return;
          }
          records_.push_back(std::move(rec));
        });
    Metrics().blocks.Add(1);
    off += unit.size;
  }
}

std::optional<CaptureRecord> SocketTrace::Next() {
  const CaptureRecord* rec = NextRef();
  if (!rec) return std::nullopt;
  return *rec;
}

const CaptureRecord* SocketTrace::NextRef() {
  while (pos_ >= records_.size()) {
    if (!Pump()) {
      if (peer_eof_ && !finalized_) {
        // A resumable stream parks at the disconnect and waits for
        // Resume(); a one-shot stream's capture was cut off.
        if (resumable_) return nullptr;
        // Everything received has been decoded and consumed, and no
        // marker will ever arrive: the capture was cut off.
        throw TraceTruncatedError(
            "socket trace: peer disconnected before the finalize marker "
            "(radio " +
            std::to_string(header_.radio) + ")");
      }
      return nullptr;
    }
  }
  Metrics().records.Add(1);
  return &records_[pos_++];
}

void SocketTrace::Resume(net::Socket sock, int header_timeout_ms) {
  if (finalized_) {
    throw std::logic_error("SocketTrace::Resume: stream already finalized");
  }
  Handshake hs = ParseHandshake(std::move(sock), header_timeout_ms);
  if (hs.source_id != source_id_ || hs.header.radio != header_.radio) {
    throw TraceCorruptError(
        "socket trace: resumed connection identity mismatch (expected "
        "source " +
        std::to_string(source_id_) + " radio " +
        std::to_string(header_.radio) + ", got source " +
        std::to_string(hs.source_id) + " radio " +
        std::to_string(hs.header.radio) + ")");
  }
  AdoptHandshake(std::move(hs));
}

void SocketTrace::AdoptHandshake(Handshake hs) {
  sock_ = std::move(hs.sock);
  // Partial-block bytes from the dead connection can never complete; the
  // from-zero replay re-covers them.
  buf_ = std::move(hs.leftover);
  peer_eof_ = false;
  resume_skip_ = records_.size();
  Metrics().resumes.Add(1);
}

std::unique_ptr<SocketTrace> SocketTrace::OpenOrResume(
    net::Socket sock, const std::vector<SocketTrace*>& existing,
    int header_timeout_ms) {
  Handshake hs = ParseHandshake(std::move(sock), header_timeout_ms);
  for (SocketTrace* s : existing) {
    if (s == nullptr || s->Finalized()) continue;
    if (s->source_id() == hs.source_id &&
        s->header().radio == hs.header.radio) {
      s->AdoptHandshake(std::move(hs));
      return nullptr;
    }
  }
  return std::unique_ptr<SocketTrace>(
      new SocketTrace(std::move(hs.sock), hs.header, hs.source_id,
                      std::move(hs.leftover)));
}

SocketTraceWriter::SocketTraceWriter(net::Socket sock,
                                     const TraceHeader& header,
                                     std::uint32_t source_id,
                                     std::size_t records_per_block)
    : sock_(std::move(sock)), records_per_block_(records_per_block) {
  std::uint8_t hello[12];
  std::memcpy(hello, kSocketHelloMagic, 4);
  EncodeU32(kSocketHelloVersion, hello + 4);
  EncodeU32(source_id, hello + 8);
  net::SendAll(sock_, hello, sizeof hello);
  bytes_sent_ += sizeof hello;

  std::uint8_t prefix[8];
  std::memcpy(prefix, kTraceDataMagic, 4);
  EncodeU32(kTraceVersion, prefix + 4);
  net::SendAll(sock_, prefix, sizeof prefix);
  bytes_sent_ += sizeof prefix;
  Bytes hdr;
  SerializeHeader(header, hdr);
  SendU32(static_cast<std::uint32_t>(hdr.size()));
  net::SendAll(sock_, hdr.data(), hdr.size());
  bytes_sent_ += hdr.size();
}

SocketTraceWriter::~SocketTraceWriter() {
  try {
    if (!finished_) Finish();
  } catch (...) {
    // Destructor must not throw; an explicit Finish() reports errors.
  }
}

void SocketTraceWriter::SendU32(std::uint32_t v) {
  std::uint8_t b[4];
  EncodeU32(v, b);
  net::SendAll(sock_, b, sizeof b);
  bytes_sent_ += sizeof b;
}

void SocketTraceWriter::Append(const CaptureRecord& rec) {
  if (finished_) throw std::logic_error("Append after Finish");
  if (pending_count_ == 0) prev_ts_ = 0;  // blocks are self-contained
  SerializeRecord(rec, prev_ts_, pending_);
  prev_ts_ = rec.timestamp;
  ++pending_count_;
  ++records_sent_;
  if (pending_count_ >= records_per_block_) FlushBlock();
}

void SocketTraceWriter::FlushBlock() {
  if (pending_count_ == 0) return;
  const auto packed = LzCompress(pending_);
  SendU32(static_cast<std::uint32_t>(packed.size()));
  net::SendAll(sock_, packed.data(), packed.size());
  bytes_sent_ += packed.size();
  pending_.clear();
  pending_count_ = 0;
}

void SocketTraceWriter::Sync() {
  if (finished_) throw std::logic_error("Sync after Finish");
  FlushBlock();
}

void SocketTraceWriter::Finish() {
  if (finished_) return;
  FlushBlock();
  SendU32(0);  // the finalize marker
  finished_ = true;
}

TraceSet AcceptTraces(net::Listener& listener, std::size_t n,
                      int timeout_ms, bool resumable) {
  std::vector<std::unique_ptr<SocketTrace>> streams;
  streams.reserve(n);
  while (streams.size() < n) {
    if (!resumable) {
      streams.push_back(
          SocketTrace::Open(listener.Accept(timeout_ms), timeout_ms));
      continue;
    }
    // Resumable accept: a sender may die and re-dial while its siblings
    // are still attaching.  Count distinct (source, radio) identities
    // toward n — a re-dial adopts into its existing stream instead of
    // occupying a slot (pre-fix it became a duplicate stream of the same
    // radio, and the dead original poisoned the merge with a phantom
    // truncation).
    std::vector<SocketTrace*> raw;
    raw.reserve(streams.size());
    for (const auto& s : streams) raw.push_back(s.get());
    auto fresh = SocketTrace::OpenOrResume(listener.Accept(timeout_ms), raw,
                                           timeout_ms);
    if (fresh) {
      fresh->set_resumable(true);
      streams.push_back(std::move(fresh));
    }
  }
  // The same deterministic radio-id order OpenDirectory guarantees, so a
  // socket-fed merge is stream-for-stream comparable to a file merge.
  std::sort(streams.begin(), streams.end(),
            [](const auto& a, const auto& b) {
              return a->header().radio < b->header().radio;
            });
  TraceSet set;
  for (auto& s : streams) set.Add(std::move(s));
  return set;
}

}  // namespace jig
