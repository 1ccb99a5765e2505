#include "trace/socket_trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "trace/block_codec.h"

namespace jig {
namespace {

// Blocking sends into a connected socket whose stream opens with the
// hello.
class SocketSink final : public block_codec::Sink {
 public:
  SocketSink(net::Socket sock, std::uint32_t source_id)
      : sock_(std::move(sock)) {
    Write(EncodeSocketHello(source_id));
  }
  void Write(std::span<const std::uint8_t> bytes) override {
    net::SendAll(sock_, bytes.data(), bytes.size());
  }
  void Flush() override {}  // every send has already left

 private:
  net::Socket sock_;
};

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

Bytes EncodeSocketHello(std::uint32_t source_id) {
  Bytes hello(kSocketHelloMagic, kSocketHelloMagic + 4);
  ByteWriter w(hello);
  w.U32(kSocketHelloVersion);
  w.U32(source_id);
  return hello;
}

SocketHandshake::SocketHandshake(net::Socket sock, int timeout_ms)
    : sock_(std::move(sock)),
      deadline_(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeout_ms)) {
  sock_.SetNonBlocking();
}

bool SocketHandshake::Step() {
  if (complete_) return true;
  const bool eof = DrainSocket(sock_, buf_);
  if (buf_.size() >= kSocketHelloLen) {
    if (std::memcmp(buf_.data(), kSocketHelloMagic, 4) != 0) {
      throw TraceCorruptError("socket trace: bad hello magic");
    }
    ByteReader hello(std::span<const std::uint8_t>(buf_).subspan(4, 8));
    if (hello.U32() != kSocketHelloVersion) {
      throw TraceCorruptError("socket trace: unsupported hello version");
    }
    const std::uint32_t source_id = hello.U32();
    const block_codec::Frame prefix = block_codec::ParseTracePrefix(
        std::span<const std::uint8_t>(buf_).subspan(kSocketHelloLen));
    if (prefix.status == block_codec::Status::kComplete) {
      header_ = block_codec::DecodeTraceHeader(prefix.body);
      source_id_ = source_id;
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(kSocketHelloLen +
                                                            prefix.size));
      complete_ = true;
      return true;
    }
  }
  if (eof) {
    throw TraceTruncatedError(
        "socket trace: peer closed before the header arrived");
  }
  if (std::chrono::steady_clock::now() >= deadline_) {
    throw TraceTruncatedError("socket trace: header timed out");
  }
  return false;
}

void SocketHandshake::Wait() {
  while (!Step()) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline_ - std::chrono::steady_clock::now());
    pollfd pfd{sock_.fd(), POLLIN, 0};
    ::poll(&pfd, 1,
           static_cast<int>(std::max<std::int64_t>(remaining.count(), 0)) +
               1);
  }
}

std::unique_ptr<SocketTrace> SocketTrace::Open(net::Socket sock,
                                               int header_timeout_ms) {
  SocketHandshake hs(std::move(sock), header_timeout_ms);
  hs.Wait();
  return std::unique_ptr<SocketTrace>(new SocketTrace(std::move(hs)));
}

SocketTrace::SocketTrace(SocketHandshake hs)
    : sock_(std::move(hs.sock_)),
      header_(hs.header_),
      source_id_(hs.source_id_),
      buf_(std::move(hs.buf_)) {}

bool SocketTrace::Pump() {
  if (finalized_) return false;
  const std::size_t before = units_.size();
  // A handshake's leftover may hold complete units; afterwards buf_ only
  // ever carries one partial unit, so this queues nothing.
  if (const std::size_t used = QueueUnits(buf_)) {
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
  return finalized_ || units_.size() > before;
}

void SocketTrace::Consume(const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  // Complete the unit the previous read cut off — its length word, then
  // its block — taking from `data` only the bytes it still misses.
  while (!buf_.empty()) {
    const block_codec::Frame unit = block_codec::ParseUnit(buf_);
    if (unit.status != block_codec::Status::kNeedMore) {
      QueueUnits(buf_);
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
  const std::size_t used = off + QueueUnits({data + off, n - off});
  buf_.assign(data + used, data + n);
}

std::size_t SocketTrace::QueueUnits(std::span<const std::uint8_t> bytes) {
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
    off += unit.size;
    Unit& queued = units_.emplace_back();
    queued.payload.assign(unit.body.begin(), unit.body.end());
    retained_bytes_ += queued.payload.size();
    if (resume_skip_ == 0) continue;
    // A resumed sender replays from record zero: drop what the old
    // connections already delivered so no record surfaces twice.  The
    // block is inflated to count it; a block straddling the skip point
    // keeps the records past it, decoded.
    Decode(queued);
    const std::size_t drop = static_cast<std::size_t>(
        std::min<std::uint64_t>(resume_skip_, queued.records.size()));
    resume_skip_ -= drop;
    if (drop == queued.records.size()) {
      units_.pop_back();
      continue;
    }
    queued.records.erase(queued.records.begin(),
                         queued.records.begin() +
                             static_cast<std::ptrdiff_t>(drop));
    queued.count = queued.records.size();
  }
}

void SocketTrace::Decode(Unit& unit) {
  std::vector<CaptureRecord> records;
  block_codec::DecodeRecords(
      unit.payload, block_codec::TornPayload::kCorrupt, "socket trace",
      [&records](CaptureRecord&& rec) { records.push_back(std::move(rec)); });
  Metrics().blocks.Add(1);
  Metrics().records.Add(records.size());
  retained_bytes_ -= unit.payload.size();
  Bytes().swap(unit.payload);
  unit.records = std::move(records);
  unit.count = unit.records.size();
  unit.decoded = true;
}

std::optional<CaptureRecord> SocketTrace::Next() {
  const CaptureRecord* rec = NextRef();
  if (!rec) return std::nullopt;
  return *rec;
}

const CaptureRecord* SocketTrace::NextRef() {
  for (;;) {
    if (cur_ < units_.size()) {
      Unit& unit = units_[cur_];
      if (!unit.decoded) Decode(unit);
      if (pos_ < unit.records.size()) return &unit.records[pos_++];
      // The block is consumed; after the latch nothing replays it.
      if (rewinds_ended_) {
        released_records_ += unit.records.size();
        units_.pop_front();
      } else {
        ++cur_;
      }
      pos_ = 0;
      continue;
    }
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
}

void SocketTrace::Rewind() {
  if (rewinds_ended_) {
    throw std::logic_error("SocketTrace::Rewind after EndRewinds");
  }
  cur_ = 0;
  pos_ = 0;
}

void SocketTrace::EndRewinds() {
  if (rewinds_ended_) return;
  rewinds_ended_ = true;
  // Every block behind the cursor is consumed for good.
  for (; cur_ > 0; --cur_) {
    released_records_ += units_.front().records.size();
    units_.pop_front();
  }
}

std::uint64_t SocketTrace::RecordsReceived() {
  std::uint64_t n = released_records_;
  for (Unit& unit : units_) {
    if (!unit.count) {
      std::size_t records = 0;
      try {
        block_codec::DecodeRecords(
            unit.payload, block_codec::TornPayload::kCorrupt, "socket trace",
            [&records](CaptureRecord&&) { ++records; });
      } catch (const TraceCorruptError&) {
        // The consumer throws when it reaches this block, so nothing
        // after it ever surfaces: the count can stop here.
        break;
      }
      unit.count = records;
    }
    n += *unit.count;
  }
  return n;
}

void SocketTrace::Resume(net::Socket sock, int header_timeout_ms) {
  if (finalized_) {
    throw std::logic_error("SocketTrace::Resume: stream already finalized");
  }
  SocketHandshake hs(std::move(sock), header_timeout_ms);
  hs.Wait();
  if (hs.source_id_ != source_id_ || hs.header_.radio != header_.radio) {
    throw TraceCorruptError(
        "socket trace: resumed connection identity mismatch (expected "
        "source " +
        std::to_string(source_id_) + " radio " +
        std::to_string(header_.radio) + ", got source " +
        std::to_string(hs.source_id_) + " radio " +
        std::to_string(hs.header_.radio) + ")");
  }
  AdoptHandshake(std::move(hs));
}

void SocketTrace::AdoptHandshake(SocketHandshake hs) {
  sock_ = std::move(hs.sock_);
  // Partial-block bytes from the dead connection can never complete; the
  // from-zero replay re-covers them.
  buf_ = std::move(hs.buf_);
  peer_eof_ = false;
  resume_skip_ = RecordsReceived();
  Metrics().resumes.Add(1);
}

std::unique_ptr<SocketTrace> SocketTrace::OpenOrResume(
    net::Socket sock, const std::vector<SocketTrace*>& existing,
    int header_timeout_ms) {
  SocketHandshake hs(std::move(sock), header_timeout_ms);
  hs.Wait();
  return OpenOrResume(std::move(hs), existing);
}

std::unique_ptr<SocketTrace> SocketTrace::OpenOrResume(
    SocketHandshake hs, const std::vector<SocketTrace*>& existing) {
  if (!hs.complete_) {
    throw std::logic_error("SocketTrace::OpenOrResume: handshake incomplete");
  }
  for (SocketTrace* s : existing) {
    if (s == nullptr || s->Finalized()) continue;
    if (s->source_id() == hs.source_id_ &&
        s->header().radio == hs.header_.radio) {
      s->AdoptHandshake(std::move(hs));
      return nullptr;
    }
  }
  return std::unique_ptr<SocketTrace>(new SocketTrace(std::move(hs)));
}

SocketTraceWriter::SocketTraceWriter(net::Socket sock,
                                     const TraceHeader& header,
                                     std::uint32_t source_id,
                                     std::size_t records_per_block)
    : encoder_(std::make_unique<SocketSink>(std::move(sock), source_id),
               block_codec::kTraceFormat,
               block_codec::EncodeTraceHeader(header), records_per_block) {}

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
