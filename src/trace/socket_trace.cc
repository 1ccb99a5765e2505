#include "trace/socket_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
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
  obs::Counter& dropped = obs::MetricRegistry::Global().GetCounter(
      "jig_socket_connections_dropped_total",
      "Connections a socket door dropped without opening or resuming a "
      "stream");
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

// The poll() timeout that wakes no earlier than `deadline`.
int PollMsUntil(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return static_cast<int>(std::max<std::int64_t>(left.count(), 0)) + 1;
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

std::unique_ptr<SocketTrace> SocketTrace::Open(net::Socket sock,
                                               int header_timeout_ms) {
  SocketHandshake hs(std::move(sock), header_timeout_ms);
  while (!hs.Step()) {
    pollfd pfd{hs.sock_.fd(), POLLIN, 0};
    ::poll(&pfd, 1, PollMsUntil(hs.deadline_));
  }
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
        // A resumable stream parks at the disconnect and waits for a
        // re-dial; a one-shot stream's capture was cut off.
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
      try {
        unit.count = block_codec::CountRecords(
            unit.payload, block_codec::TornPayload::kCorrupt, "socket trace");
      } catch (const TraceCorruptError&) {
        // The consumer throws when it reaches this block, so nothing
        // after it ever surfaces: the count can stop here.
        break;
      }
    }
    n += *unit.count;
  }
  return n;
}

std::unique_ptr<SocketTrace> SocketTrace::OpenOrResume(
    SocketHandshake hs, const std::vector<SocketTrace*>& existing) {
  if (!hs.complete_) {
    throw std::logic_error("SocketTrace::OpenOrResume: handshake incomplete");
  }
  for (SocketTrace* s : existing) {
    if (s->source_id_ != hs.source_id_) continue;
    if (s->header_.radio != hs.header_.radio) continue;
    if (s->finalized_) {
      throw TraceCorruptError(
          "socket trace: re-dial of a finalized stream (source " +
          std::to_string(hs.source_id_) + " radio " +
          std::to_string(hs.header_.radio) + ")");
    }
    s->sock_ = std::move(hs.sock_);
    // Partial-block bytes from the dead connection can never complete;
    // the from-zero replay re-covers them.
    s->buf_ = std::move(hs.buf_);
    s->peer_eof_ = false;
    s->resume_skip_ = s->RecordsReceived();
    Metrics().resumes.Add(1);
    return nullptr;
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

SocketDoor::~SocketDoor() {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Drop("handshake still pending when the door closed");
  }
}

void SocketDoor::Drop(const std::string& why) {
  std::fprintf(stderr, "socket door on port %u: dropping connection: %s\n",
               listener_.port(), why.c_str());
  Metrics().dropped.Add(1);
}

void SocketDoor::Step() {
  for (net::Socket fresh; (fresh = listener_.TryAccept()).valid();) {
    pending_.emplace_back(std::move(fresh), timeout_ms_);
  }
  std::erase_if(pending_, [this](SocketHandshake& hs) {
    try {
      if (!hs.Step()) return false;
      auto fresh = SocketTrace::OpenOrResume(std::move(hs), streams_);
      if (fresh && streams_.size() >= n_) {
        Drop("unexpected stream (source " +
             std::to_string(fresh->source_id()) + " radio " +
             std::to_string(fresh->header().radio) +
             "): every stream is open");
      } else if (fresh) {
        fresh->set_resumable(resumable_);
        streams_.push_back(fresh.get());
        opened_.push_back(std::move(fresh));
      }
    } catch (const std::runtime_error& e) {
      Drop(e.what());  // EOF, bad hello, deadline, or a finalized identity
    }
    return true;
  });
  for (SocketTrace* s : streams_) s->Ingest();
}

TraceSet& SocketDoor::Accept() {
  const auto timeout = std::chrono::milliseconds(timeout_ms_);
  auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const std::size_t open = streams_.size();
    Step();
    if (streams_.size() >= n_) break;
    const auto now = std::chrono::steady_clock::now();
    if (streams_.size() > open) {
      deadline = now + timeout;
    } else if (now >= deadline) {
      throw std::runtime_error("socket door: accept timed out with " +
                               std::to_string(streams_.size()) + " of " +
                               std::to_string(n_) + " streams open");
    }
    // Sleep until a peer queues, a pending handshake reads, or the
    // nearest deadline passes.
    std::vector<pollfd> fds{{listener_.fd(), POLLIN, 0}};
    auto wake = deadline;
    for (const SocketHandshake& hs : pending_) {
      fds.push_back({hs.sock_.fd(), POLLIN, 0});
      wake = std::min(wake, hs.deadline_);
    }
    ::poll(fds.data(), fds.size(), PollMsUntil(wake));
  }
  // The same deterministic radio-id order OpenDirectory guarantees, so a
  // socket-fed merge is stream-for-stream comparable to a file merge.
  std::ranges::sort(opened_, {}, [](const auto& s) {
    return s->header().radio;
  });
  for (auto& s : opened_) traces_.Add(std::move(s));
  opened_.clear();
  return traces_;
}

}  // namespace jig
