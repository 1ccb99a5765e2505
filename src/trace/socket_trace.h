// Socket-fed record stream: the same block-framed .jigt bytes a trace
// file holds, pushed over TCP, consumed with TailFileTrace's tri-state
// semantics (no-data-yet vs finalize-marker vs corruption).
//
// Wire format (docs/FORMATS.md, "Socket transport"):
//
//   [hello: "JIGH"][u32 hello version = 1][u32 source id]
//   [ .jigt stream: "JIGT"][u32 version][u32 header_len][header]
//   repeated [u32 packed_len > 0][LZ block]
//   [u32 0]                                    finalize marker
//
// i.e. after a 12-byte hello the sender streams a vanilla .jigt byte
// stream, minus the index trailer (an index is a seekability feature of
// files; a socket is consumed once, front to back).  The hello is the
// one-way handshake: the receiver validates the magic + version and
// simply closes on mismatch; `source id` tags the stream's origin (the
// wing id in the two-level topology, 0 for a standalone radio).
//
// Consumer semantics mirror the tail reader exactly:
//   * no data yet    — the next frame is not fully received; Next()
//                      returns nullopt, Finalized() stays false.
//   * finalized      — the [u32 0] marker arrived: latched end-of-capture
//                      (trailing bytes, if any, are ignored).
//   * truncation     — the peer closed before the marker: the capture was
//                      cut off mid-stream.  TraceTruncatedError, thrown
//                      once everything received has been consumed.
//   * corruption     — bad magic/version, garbage block length, or a
//                      complete block that does not parse (thrown when
//                      the consumer reaches it).  TraceCorruptError;
//                      reconnecting cannot help.
//
// What arrives stays compressed: Ingest queues each complete unit's LZ
// payload, and a block is inflated only when the consumer reaches it.  A
// block decoded before EndRewinds() keeps its records so Rewind() replays
// them without decoding twice (the merge's late-bootstrap pass re-reads
// every stream from offset zero, and a socket cannot seek).  After the
// latch each unit is freed once consumed, so the footprint is the
// compressed backlog plus one decoded block.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "trace/block_codec.h"
#include "trace/net.h"
#include "trace/trace_set.h"

namespace jig {

inline constexpr char kSocketHelloMagic[4] = {'J', 'I', 'G', 'H'};
inline constexpr std::uint32_t kSocketHelloVersion = 1;
inline constexpr std::size_t kSocketHelloLen = 12;  // magic, version, source

// The hello a sender opens its stream with (source id 0: a standalone
// radio).
Bytes EncodeSocketHello(std::uint32_t source_id);

// A fresh connection's hello + trace header, read without blocking: the
// one handshake parser behind Open and SocketDoor.
class SocketHandshake {
 public:
  // Switches `sock` to non-blocking; the handshake must complete within
  // timeout_ms.
  SocketHandshake(net::Socket sock, int timeout_ms);

  // Reads what the socket holds right now and parses as far as it goes.
  // Returns true once the hello and trace header are complete, false while
  // they are still arriving.  Throws TraceCorruptError on a bad
  // hello/magic/version, TraceTruncatedError if the peer closes (or the
  // timeout passes) first.
  bool Step();

 private:
  friend class SocketTrace;
  friend class SocketDoor;

  net::Socket sock_;
  std::chrono::steady_clock::time_point deadline_;
  std::vector<std::uint8_t> buf_;  // received; past the header once complete
  bool complete_ = false;
  TraceHeader header_;
  std::uint32_t source_id_ = 0;
};

class SocketTrace final : public RecordStream {
 public:
  // The one blocking opener: waits (up to header_timeout_ms) for the
  // hello + trace header, then switches the socket to non-blocking tail
  // consumption.  A listener with several senders uses SocketDoor.  Throws
  // TraceCorruptError on a bad hello/magic/version, TraceTruncatedError
  // if the peer closes (or the timeout passes) before the header.
  static std::unique_ptr<SocketTrace> Open(net::Socket sock,
                                           int header_timeout_ms = 30000);

  const TraceHeader& header() const override { return header_; }
  // Inflates the next queued block when the current one runs out; the
  // pointer stays valid until the next Next/NextRef/Rewind on this stream.
  const CaptureRecord* NextRef() override;
  // Replays from the start (late bootstrap).  Throws std::logic_error
  // after EndRewinds().
  void Rewind() override;
  // From here on each block is freed once consumed.
  void EndRewinds() override;
  // Latched once the finalize marker arrives — never flaps back.
  bool Finalized() const override { return finalized_; }

  // The hello's source id: which wing (or standalone sender) this came
  // from.
  std::uint32_t source_id() const { return source_id_; }

  // ---- disconnect / reconnect -------------------------------------------
  //
  // By default a peer that closes before the finalize marker is a
  // truncated capture (NextRef throws once everything received has been
  // consumed) — the right call for one-shot collectors, where a lost
  // sender means lost data.  A long-running service instead expects the
  // sender to re-dial: with set_resumable(true) the disconnect parks the
  // stream (NextRef returns nullptr, Finalized() stays false,
  // disconnected() reports true) until a re-dialed connection is adopted.
  void set_resumable(bool on) { resumable_ = on; }
  // Peer closed before the marker and everything received was consumed.
  bool disconnected() const { return peer_eof_ && !finalized_; }

  // Routes a completed handshake (Step() returned true) by its identity.
  // A stream in `existing` with the same source id and radio adopts it as
  // a re-dial — returning nullptr — dropping the old connection and any
  // partial block it left.  The re-dialing sender replays its capture
  // from record zero (a socket cannot seek, and the sender cannot know
  // what the old connection delivered); as many records as the old
  // connections delivered in complete blocks are skipped, so each record
  // surfaces once.  Any other identity returns as a new stream.  Throws
  // TraceCorruptError if the matching stream finalized: not a resume.
  static std::unique_ptr<SocketTrace> OpenOrResume(
      SocketHandshake hs, const std::vector<SocketTrace*>& existing);

  // Drains the socket into the block queue without advancing the
  // consumer cursor.  A collector over many streams must call this on
  // EVERY stream each poll round: the merge pulls only on the radios it
  // currently needs, and a sender interleaving several radios over one
  // thread blocks in send() as soon as any unread stream's kernel buffer
  // fills — a cross-stream backpressure deadlock.  Ingest keeps every
  // sender drained, at the cost of holding the backlog in memory as the
  // compressed blocks it arrived in.  Throws TraceCorruptError on a
  // garbage length word, or on a malformed block of a resumed sender's
  // replay (inflated on arrival to count it against the skip); any other
  // block that does not inflate or parse throws when NextRef reaches it.
  void Ingest() { Pump(); }

  // Receive-buffer capacity in bytes.  Pump queues complete units as it
  // drains, so this stays within one [len][block] unit however far the
  // sender runs ahead (a handshake's leftover aside, until the first Pump
  // queues it).
  std::size_t buffered_capacity() const { return buf_.capacity(); }
  // LZ payload bytes queued and not yet inflated: the compressed backlog.
  std::size_t retained_bytes() const { return retained_bytes_; }

 private:
  // One received block: its LZ payload until inflated, its records after.
  struct Unit {
    Bytes payload;
    std::vector<CaptureRecord> records;
    bool decoded = false;
    // Records the unit holds, once decoded or counted for a resume.
    std::optional<std::size_t> count;
  };

  explicit SocketTrace(SocketHandshake hs);

  // Records delivered so far in complete blocks: released units plus
  // queued ones, inflating a queued unit only to count it.
  std::uint64_t RecordsReceived();

  // Reads the socket 64 KB at a time until it would block, queueing every
  // complete [len][block] unit as it goes, so buf_ never holds more than
  // one partial unit however far the sender runs ahead.  Returns true if
  // new units (or the finalize marker) appeared.
  bool Pump();
  // Queues one read's bytes after completing the unit buf_ carries; the
  // trailing partial unit becomes the new buf_.
  void Consume(const std::uint8_t* data, std::size_t n);
  // Queues the complete units at the front of `bytes` and returns the
  // bytes they span (all of them once the finalize marker latches).
  std::size_t QueueUnits(std::span<const std::uint8_t> bytes);
  // Inflates a queued unit into its records and frees its payload.
  void Decode(Unit& unit);

  net::Socket sock_;
  TraceHeader header_;
  std::uint32_t source_id_ = 0;
  std::vector<std::uint8_t> buf_;  // received, not yet a complete unit
  std::deque<Unit> units_;         // never moves a unit once queued
  std::size_t cur_ = 0;            // the unit NextRef reads
  std::size_t pos_ = 0;            // the next record within it
  std::size_t retained_bytes_ = 0;
  std::uint64_t released_records_ = 0;  // in units freed after the latch
  bool rewinds_ended_ = false;
  bool finalized_ = false;
  bool peer_eof_ = false;
  bool resumable_ = false;
  // Records of the resumed sender's from-zero replay still to drop.
  std::uint64_t resume_skip_ = 0;
};

// Sender half: TraceFileWriter's framing over a socket — hello, then
// header, then LZ blocks, then the finalize marker; no index trailer.
// All sends are blocking; a vanished peer surfaces as std::runtime_error.
class SocketTraceWriter {
 public:
  SocketTraceWriter(net::Socket sock, const TraceHeader& header,
                    std::uint32_t source_id = 0,
                    std::size_t records_per_block = 512);

  void Append(const CaptureRecord& rec) {
    block_codec::AppendRecord(encoder_, rec, block_);
  }
  // Sends a unit another stream already framed (a relay's stored block),
  // after cutting and sending the pending records: Encoder::AppendUnit.
  void AppendUnit(const block_codec::StoredUnit& unit) {
    encoder_.AppendUnit(unit);
  }
  // Cuts and sends the pending partial block so the receiver can consume
  // everything appended so far.
  void Sync() { encoder_.Sync(); }
  // Sends the finalize marker.  Idempotent; the destructor calls it.
  void Finish() { encoder_.Finish(); }

  std::uint64_t records_sent() const { return encoder_.records(); }
  std::uint64_t bytes_sent() const {
    return kSocketHelloLen + encoder_.bytes_written();
  }

 private:
  block_codec::RecordSpan block_;
  block_codec::Encoder encoder_;
};

// Every connection on a listener, from the first accept to the end of the
// merge.  A fresh connection waits in a pending SocketHandshake; one that
// reaches EOF, sends a bad hello or misses its timeout_ms deadline is
// logged and dropped (jig_socket_connections_dropped_total).  A completed
// handshake whose (source id, radio) matches a stream adopts into it, or
// is dropped if that stream finalized; an unknown identity opens a new
// stream while fewer than `n` are open and is dropped after that.  So a
// stray — a port probe, a silent or garbled client — never opens, blocks
// or ends anything.  `resumable` only decides whether a disconnect parks
// a stream (until its re-dial) or ends it as truncated.
class SocketDoor {
 public:
  // `listener` must outlive the door.
  SocketDoor(net::Listener& listener, std::size_t n, int timeout_ms = 30000,
             bool resumable = false)
      : listener_(listener),
        n_(n),
        timeout_ms_(timeout_ms),
        resumable_(resumable) {}
  // Drops the handshakes still pending.
  ~SocketDoor();
  SocketDoor(const SocketDoor&) = delete;
  SocketDoor& operator=(const SocketDoor&) = delete;

  // Steps until n streams are open, sleeping in poll() on the listener and
  // the pending connections, and returns them ordered by radio id (as
  // OpenDirectory does); the set lives as long as the door.  Throws
  // std::runtime_error when timeout_ms passes without a new stream.
  TraceSet& Accept();
  // One non-blocking round: accepts every queued connection, steps every
  // pending handshake, routes the completed ones, and Ingests every open
  // stream (see SocketTrace::Ingest for why every stream, every round).
  void Step();

  // The open streams, in the order they opened.
  const std::vector<SocketTrace*>& streams() const { return streams_; }

 private:
  void Drop(const std::string& why);

  net::Listener& listener_;
  std::size_t n_;
  int timeout_ms_;
  bool resumable_;
  std::vector<SocketHandshake> pending_;
  std::vector<SocketTrace*> streams_;
  // Opened streams not yet handed to traces_ by Accept.
  std::vector<std::unique_ptr<SocketTrace>> opened_;
  TraceSet traces_;
};

}  // namespace jig
