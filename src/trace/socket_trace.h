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
//                      complete block that does not parse.
//                      TraceCorruptError; reconnecting cannot help.
//
// Decoded records are retained in memory so Rewind() works — the merge's
// global late-bootstrap pass re-reads every trace from offset zero, and a
// socket cannot seek.  This makes a SocketTrace's footprint O(records),
// like MemoryTrace; the two-level topology bounds it per node.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "trace/net.h"
#include "trace/trace_set.h"

namespace jig {

inline constexpr char kSocketHelloMagic[4] = {'J', 'I', 'G', 'H'};
inline constexpr std::uint32_t kSocketHelloVersion = 1;

class SocketTrace final : public RecordStream {
 public:
  // Waits (up to header_timeout_ms) for the hello + trace header, then
  // switches the socket to non-blocking tail consumption.  Throws
  // TraceCorruptError on a bad hello/magic/version, TraceTruncatedError
  // if the peer closes (or the timeout passes) before the header.
  static std::unique_ptr<SocketTrace> Open(net::Socket sock,
                                           int header_timeout_ms = 30000);

  const TraceHeader& header() const override { return header_; }
  std::optional<CaptureRecord> Next() override;
  const CaptureRecord* NextRef() override;
  // Replays the retained records from the start (late bootstrap).
  void Rewind() override { pos_ = 0; }
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
  // disconnected() reports true) until Resume() installs the replacement
  // connection.
  void set_resumable(bool on) { resumable_ = on; }
  // Peer closed before the marker and everything received was decoded.
  bool disconnected() const { return peer_eof_ && !finalized_; }

  // Adopts a re-dialed connection for the SAME stream.  Parses the new
  // connection's hello + header (blocking up to header_timeout_ms) and
  // validates that the source id and radio match this stream — a
  // different sender on the old port is corruption, not a resume.  The
  // re-dialing sender replays its capture from record zero (a socket
  // cannot seek, and the sender cannot know how much the old connection
  // delivered before dying); records already retained here are consumed
  // and dropped instead of being surfaced twice, so the merged stream
  // sees each record exactly once.  Any partial block left over from the
  // dead connection is discarded — the replay re-covers it.
  // Throws TraceCorruptError on identity mismatch / bad handshake,
  // TraceTruncatedError if the header never arrives, std::logic_error if
  // the stream already finalized.
  void Resume(net::Socket sock, int header_timeout_ms = 30000);

  // Accept-side router: parses the fresh connection's handshake once,
  // then either adopts it into the matching (same source id + radio,
  // not yet finalized) stream in `existing` — returning nullptr — or
  // returns it as a brand-new stream.  This is what a listening
  // collector calls for EVERY accepted connection once re-dials are
  // possible: only the handshake identity can distinguish a resuming
  // wing from a new one.
  static std::unique_ptr<SocketTrace> OpenOrResume(
      net::Socket sock, const std::vector<SocketTrace*>& existing,
      int header_timeout_ms = 30000);

  // Drains the socket into the retained record buffer without advancing
  // the consumer cursor.  A collector over many streams must call this
  // on EVERY stream each poll round: the merge pulls only on the radios
  // it currently needs, and a sender interleaving several radios over
  // one thread blocks in send() as soon as any unread stream's kernel
  // buffer fills — a cross-stream backpressure deadlock.  Ingest keeps
  // every sender drained (at the cost of buffering in memory, which the
  // retained-record design pays anyway).  May throw TraceCorruptError.
  void Ingest() { Pump(); }

  // Receive-buffer capacity in bytes.  Pump decodes as it drains, so this
  // stays within one [len][block] unit however far the sender runs ahead
  // (a handshake's leftover aside, until the first Pump decodes it).
  std::size_t buffered_capacity() const { return buf_.capacity(); }

 private:
  struct Handshake {
    net::Socket sock;
    TraceHeader header;
    std::uint32_t source_id = 0;
    std::vector<std::uint8_t> leftover;
  };
  // Blocks (up to the timeout) for the hello + trace header on a fresh
  // connection; shared by Open and Resume.
  static Handshake ParseHandshake(net::Socket sock, int header_timeout_ms);
  // Installs a re-dialed connection: replaces the socket, discards the
  // dead connection's partial block, arms the from-zero replay skip.
  void AdoptHandshake(Handshake hs);

  SocketTrace(net::Socket sock, TraceHeader header, std::uint32_t source_id,
              std::vector<std::uint8_t> leftover);

  // Reads the socket 64 KB at a time until it would block, decoding every
  // complete [len][block] unit into records_ as it goes, so buf_ never
  // holds more than one partial unit however far the sender runs ahead.
  // Returns true if new records (or the finalize marker) appeared.
  bool Pump();
  // Decodes one read's bytes after completing the unit buf_ carries; the
  // trailing partial unit becomes the new buf_.
  void Consume(const std::uint8_t* data, std::size_t n);
  // Decodes the complete units at the front of `bytes` and returns the
  // bytes they span (all of them once the finalize marker latches).
  std::size_t DecodeUnits(std::span<const std::uint8_t> bytes);

  net::Socket sock_;
  TraceHeader header_;
  std::uint32_t source_id_ = 0;
  std::vector<std::uint8_t> buf_;  // received, not yet decoded
  // Retained for Rewind.  A deque, NOT a vector: NextRef hands out
  // pointers into this container and the merge keeps them across poll
  // rounds (the unifier's heads wait for window-mates), while Ingest
  // keeps appending — a vector's growth reallocation would invalidate
  // every outstanding pointer mid-merge.  Deque end-insertion never
  // moves existing elements.
  std::deque<CaptureRecord> records_;
  std::size_t pos_ = 0;
  bool finalized_ = false;
  bool peer_eof_ = false;
  bool resumable_ = false;
  // Records of the resumed sender's from-zero replay still to drop
  // (everything up to the old connection's last complete block).
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
  ~SocketTraceWriter();
  SocketTraceWriter(const SocketTraceWriter&) = delete;
  SocketTraceWriter& operator=(const SocketTraceWriter&) = delete;

  void Append(const CaptureRecord& rec);
  // Cuts and sends the pending partial block so the receiver can consume
  // everything appended so far.
  void Sync();
  // Sends the finalize marker.  Idempotent.
  void Finish();

  std::uint64_t records_sent() const { return records_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void FlushBlock();
  void SendU32(std::uint32_t v);

  net::Socket sock_;
  std::size_t records_per_block_;
  Bytes pending_;
  std::size_t pending_count_ = 0;
  LocalMicros prev_ts_ = 0;
  bool finished_ = false;
  std::uint64_t records_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

// Accepts `n` socket trace streams on `listener` and returns them as a
// TraceSet ordered by radio id (the same deterministic order
// OpenDirectory guarantees).  Each stream's header must arrive within
// `timeout_ms` of its accept.  With `resumable`, n counts DISTINCT
// (source, radio) identities: a sender that dies and re-dials during the
// accept phase adopts into its existing stream (which is marked
// resumable, so later disconnects park instead of throwing) rather than
// being accepted as a duplicate.
TraceSet AcceptTraces(net::Listener& listener, std::size_t n,
                      int timeout_ms = 30000, bool resumable = false);

}  // namespace jig
