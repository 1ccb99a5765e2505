// Two-level (wing -> root) distributed merge topology.
//
// The paper's deployment pulled ~150 radio traces to one central server;
// scaling past one machine calls for the classic collector tree: a *wing*
// node sits near a group of radios and relays their record streams to a
// *root* node, which k-way merges every wing's sub-streams into the single
// global jframe stream.
//
// Determinism contract: the root's output is byte-identical to a
// single-node merge over the same traces.  The wing is therefore a pure
// relay — each radio's records travel verbatim, in capture order, as one
// valid per-radio .jigt socket stream (docs/FORMATS.md socket transport)
// — and never unifies: a wing-local unification would bake in per-wing
// bootstrap offsets that cannot be reconciled back to the global solution
// byte-for-byte, and a wing-local bootstrap cannot even sync radios whose
// clock bridges run through another wing.  The boundary-overlap
// reconciliation — re-grouping frames heard by radios on *different*
// wings — falls out of the root's global unifier, which sees every wing's
// copies side by side.  docs/ARCHITECTURE.md walks through the topology.
//
// Per-wing observability (labeled wing="<id>"):
//   jig_wing_uplink_records_total   records relayed to the root
//   jig_wing_uplink_bytes_total     framed bytes relayed
// Root side:
//   jig_root_boundary_jframes_total jframes unifying copies from >1 wing
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "jigsaw/pipeline.h"
#include "trace/net.h"
#include "trace/socket_trace.h"
#include "trace/trace_set.h"

namespace jig {

struct WingConfig {
  std::uint32_t wing_id = 0;
  std::string root_host = "127.0.0.1";
  std::uint16_t root_port = 0;
  // Unused: a wing relays without merging.  Kept only because existing
  // callers (bench/e2e/batch.cc) still set merge.threads.
  MergeConfig merge;
  // Records per block for a source that stores no blocks (a MemoryTrace,
  // say), which the wing re-encodes; small blocks publish sooner (lower
  // root latency), large blocks compress better.  File and tail sources
  // forward their stored blocks, so their cuts set the uplink's block
  // sizes.
  std::size_t records_per_block = 256;
  // How long to keep retrying the root connection before giving up.
  int connect_timeout_ms = 10000;
};

// Drives one wing: connects one uplink per local radio, then relays every
// record exactly once, in capture order.  The local traces may be live
// (tail-follow) sources; each uplink finishes as soon as its radio's
// capture is finalized and fully relayed, whatever the other radios do.
class WingSession {
 public:
  // `traces` must outlive the session.  Throws std::runtime_error when
  // the root cannot be reached within connect_timeout_ms.
  WingSession(TraceSet& traces, const WingConfig& config);
  ~WingSession();

  // Round-robins over the radios until every uplink has finished.  Each
  // round forwards one unit per radio (RecordStream::NextUnit: a stored
  // block as is, or up to records_per_block records re-encoded); a round
  // that moved nothing sleeps 5 ms.  Blocking; run one thread per wing.
  void Run();

  std::uint64_t records_relayed() const;
  std::uint64_t bytes_relayed() const;  // framed, handshakes included

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct RootConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0: ephemeral; RootSession::port() reports it
  std::size_t n_streams = 0;  // total radios expected across all wings
  MergeConfig merge;
  int accept_timeout_ms = 30000;
};

// The root: accepts n_streams socket traces (from any number of wings),
// then runs the normal global MergeSession over them.  Every jframe goes
// to the caller's sink in timestamp order — byte-identical to the
// single-node merge of the same traces.  One SocketDoor takes every
// connection from the start of Run to the end of the merge.  A wing that
// drops and dials again with the same source id resumes its streams (the
// sender replays from record zero; already-received records are
// deduplicated); while it is down its streams park, so the root waits
// rather than emitting a truncated capture.  Any other connection — in
// the accept phase or during the merge — is logged and dropped, and a
// silent one holds nothing up.
class RootSession {
 public:
  // Binds and listens immediately, so wings may start connecting before
  // Run() is called.
  explicit RootSession(const RootConfig& config);
  ~RootSession();

  std::uint16_t port() const;

  // Accepts the streams and merges to completion.  Throws
  // std::runtime_error when accept_timeout_ms passes without a new stream.
  MergeStreamStats Run(std::function<void(JFrame&&)> sink);

  // Jframes whose instances span more than one wing — the boundary
  // overlaps the root's unifier reconciled.
  std::uint64_t boundary_jframes() const;
  std::uint64_t jframes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace jig
