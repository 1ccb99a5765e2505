// Distributed-merge suite: the socket trace transport and the two-level
// (wing -> root) topology.
//
// Two contracts are pinned here.  First, SocketTrace must honor the
// RecordStream tri-state semantics TailFileTrace established — no-data-yet
// vs latched finalize vs corruption — with the socket-specific fourth
// state (peer disconnect before the marker) surfacing as truncation.
// Second, the tentpole determinism pin: a 2-wing distributed merge must
// emit a jframe stream byte-identical to the single-node merge of the same
// trace files, across threads in {1, 2, auto} — the distributed topology
// may change WHERE records travel, never WHAT the global unifier says about
// them.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jframe_equality.h"
#include "jigsaw/distributed.h"
#include "jigsaw/pipeline.h"
#include "obs/metrics.h"
#include "reference_merge.h"
#include "synthetic.h"
#include "trace/net.h"
#include "trace/socket_trace.h"
#include "trace/tail_trace.h"
#include "trace/trace_file.h"
#include "trace/trace_set.h"
#include "util/compression.h"

namespace jig {
namespace {

namespace fs = std::filesystem;
using testing::ExpectEqualStats;
using testing::ExpectIdenticalStreams;
using testing::MultiChannelNetwork;
using testing::ReferenceMerge;

CaptureRecord MakeRecord(LocalMicros ts) {
  CaptureRecord rec;
  rec.timestamp = ts;
  rec.rate = PhyRate::kB2;
  rec.bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  rec.orig_len = 14;
  return rec;
}

void SendU32(net::Socket& sock, std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  net::SendAll(sock, b, sizeof b);
}

// Hand-sends the hello + .jigt prefix + header — the raw-byte sender the
// malformed-stream tests build on (SocketTraceWriter cannot emit broken
// streams, by design).
void SendHelloAndHeader(net::Socket& sock, const TraceHeader& header,
                        std::uint32_t source_id = 0) {
  net::SendAll(sock, kSocketHelloMagic, 4);
  SendU32(sock, kSocketHelloVersion);
  SendU32(sock, source_id);
  net::SendAll(sock, kTraceDataMagic, 4);
  SendU32(sock, kTraceVersion);
  Bytes hdr;
  SerializeHeader(header, hdr);
  SendU32(sock, static_cast<std::uint32_t>(hdr.size()));
  net::SendAll(sock, hdr.data(), hdr.size());
}

// Steps a connection's handshake to completion, as a SocketDoor does
// before it routes the connection.
SocketHandshake CompletedHandshake(net::Socket sock) {
  SocketHandshake hs(std::move(sock), /*timeout_ms=*/5000);
  while (!hs.Step()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return hs;
}

// One loopback connection: `client` is the sender side, `server` the
// accepted receiver side.
struct Loopback {
  net::Listener listener{"127.0.0.1", 0};
  net::Socket client;
  net::Socket server;

  Loopback() {
    client = net::ConnectTo("127.0.0.1", listener.port());
    server = listener.Accept(/*timeout_ms=*/5000);
  }
};

// ---------------------------------------------------------------------------
// SocketTrace semantics.

TEST(SocketTraceTest, NoDataYetThenSyncThenFinalizeLatches) {
  Loopback lo;
  TraceHeader header;
  header.radio = 7;
  SocketTraceWriter writer(std::move(lo.client), header, /*source_id=*/3,
                           /*records_per_block=*/2);
  auto trace = SocketTrace::Open(std::move(lo.server));
  EXPECT_EQ(trace->header().radio, 7);
  EXPECT_EQ(trace->source_id(), 3u);

  // Nothing sent yet: no data, expressly NOT finalized, NOT an error.
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_FALSE(trace->Finalized());

  // A full block (2 records) publishes by itself.
  writer.Append(MakeRecord(1'000));
  writer.Append(MakeRecord(2'000));
  EXPECT_EQ(trace->Next()->timestamp, 1'000);
  EXPECT_EQ(trace->Next()->timestamp, 2'000);

  // A buffered partial block is invisible until Sync cuts it.
  writer.Append(MakeRecord(3'000));
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_FALSE(trace->Finalized());
  writer.Sync();
  const auto got = trace->Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, 3'000);
  EXPECT_EQ(got->bytes, MakeRecord(3'000).bytes);

  // The finalize marker latches end-of-capture.
  writer.Finish();
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());

  // Rewind replays the retained records (the late-bootstrap path) and the
  // latch holds across it.
  trace->Rewind();
  EXPECT_TRUE(trace->Finalized());
  EXPECT_EQ(trace->Next()->timestamp, 1'000);
  EXPECT_EQ(trace->Next()->timestamp, 2'000);
  EXPECT_EQ(trace->Next()->timestamp, 3'000);
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());
}

TEST(SocketTraceTest, PeerDisconnectBeforeMarkerIsTruncationAfterDrain) {
  Loopback lo;
  TraceHeader header;
  header.radio = 4;
  SendHelloAndHeader(lo.client, header);
  // One complete block, then the peer vanishes without the marker.
  Bytes serialized;
  SerializeRecord(MakeRecord(500), 0, serialized);
  const Bytes packed = LzCompress(serialized);
  SendU32(lo.client, static_cast<std::uint32_t>(packed.size()));
  net::SendAll(lo.client, packed.data(), packed.size());
  lo.client.Close();

  auto trace = SocketTrace::Open(std::move(lo.server));
  // Everything received still reads out...
  const auto got = trace->Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, 500);
  // ... and only then does the cut-off surface, as truncation (the capture
  // may be incomplete), never as a clean end and never as corruption.
  EXPECT_FALSE(trace->Finalized());
  EXPECT_THROW(trace->NextRef(), TraceTruncatedError);
}

TEST(SocketTraceTest, BadHelloMagicIsCorruption) {
  Loopback lo;
  const char garbage[16] = "NOTAJIGSAWHELLO";
  net::SendAll(lo.client, garbage, sizeof garbage);
  EXPECT_THROW(SocketTrace::Open(std::move(lo.server)), TraceCorruptError);
}

TEST(SocketTraceTest, WrongHelloVersionIsCorruption) {
  Loopback lo;
  net::SendAll(lo.client, kSocketHelloMagic, 4);
  SendU32(lo.client, kSocketHelloVersion + 1);
  SendU32(lo.client, 0);
  EXPECT_THROW(SocketTrace::Open(std::move(lo.server)), TraceCorruptError);
}

TEST(SocketTraceTest, PeerGoneBeforeHeaderIsTruncation) {
  Loopback lo;
  net::SendAll(lo.client, kSocketHelloMagic, 4);  // hello cut short
  lo.client.Close();
  EXPECT_THROW(SocketTrace::Open(std::move(lo.server)), TraceTruncatedError);
}

TEST(SocketTraceTest, GarbageBlockLengthIsCorruptionNotRetry) {
  Loopback lo;
  TraceHeader header;
  header.radio = 9;
  SendHelloAndHeader(lo.client, header);
  SendU32(lo.client, 0x7FFFFFFF);  // absurd block length

  auto trace = SocketTrace::Open(std::move(lo.server));
  EXPECT_THROW(trace->NextRef(), TraceCorruptError);
}

TEST(SocketTraceTest, MalformedBlockBodyIsCorruption) {
  Loopback lo;
  TraceHeader header;
  header.radio = 2;
  SendHelloAndHeader(lo.client, header);
  // A complete-by-length block whose body is not valid LZ data.
  const std::uint8_t junk[32] = {0xFF, 0xEE, 0xDD, 0xCC};
  SendU32(lo.client, sizeof junk);
  net::SendAll(lo.client, junk, sizeof junk);

  auto trace = SocketTrace::Open(std::move(lo.server));
  EXPECT_THROW(trace->NextRef(), TraceCorruptError);
}

// ---------------------------------------------------------------------------
// Receive-buffer bound: a sender far ahead of the receiver.
//
// A relay-only wing sends as fast as it reads, so a root's socket can hold
// megabytes by the time it is pumped.  Pump must decode as it drains —
// 64 KB reads, complete units decoded at once, only the partial tail kept
// — and that must change nothing a consumer can see: records, the
// finalize latch, and truncation vs corruption all read as before.

enum class Ending { kMarker, kClose, kGarbage };
enum class Outcome { kNone, kFinalized, kTruncated, kCorrupt };

void ExpectSameRecord(const CaptureRecord& got, const CaptureRecord& want) {
  EXPECT_EQ(got.timestamp, want.timestamp);
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.rate, want.rate);
  EXPECT_EQ(got.orig_len, want.orig_len);
  EXPECT_EQ(got.bytes, want.bytes);
}

// 200-byte LCG payloads barely compress, so 24k records make a ~5 MB
// backlog; 61-record blocks keep unit sizes off any 64 KB multiple.
constexpr std::size_t kBacklogBlockRecords = 61;

struct Backlog {
  std::vector<CaptureRecord> records;
  std::vector<Bytes> blocks;  // LZ payloads of kBacklogBlockRecords each
};

Backlog MakeBacklog() {
  Backlog backlog;
  std::vector<CaptureRecord>& sent = backlog.records;
  std::uint32_t x = 12345;
  for (int i = 0; i < 24'000; ++i) {
    CaptureRecord rec = MakeRecord(1'000 * (i + 1));
    rec.bytes.resize(200);
    for (std::uint8_t& b : rec.bytes) {
      x = x * 1664525u + 1013904223u;
      b = static_cast<std::uint8_t>(x >> 24);
    }
    rec.orig_len = 200;
    sent.push_back(std::move(rec));
  }
  for (std::size_t i = 0; i < sent.size(); i += kBacklogBlockRecords) {
    Bytes body;
    LocalMicros prev = 0;
    const std::size_t end = std::min(sent.size(), i + kBacklogBlockRecords);
    for (std::size_t j = i; j < end; ++j) {
      SerializeRecord(sent[j], prev, body);
      prev = sent[j].timestamp;
    }
    backlog.blocks.push_back(LzCompress(body));
  }
  return backlog;
}

void ExpectBacklogReadsBack(Ending ending) {
  Loopback lo;
  TraceHeader header;
  header.radio = 11;
  const Backlog backlog = MakeBacklog();
  const std::vector<CaptureRecord>& sent = backlog.records;
  const std::vector<Bytes>& blocks = backlog.blocks;
  constexpr std::size_t kReadSize = std::size_t{64} << 10;
  std::size_t stream_bytes = 0;
  std::size_t largest_unit = 0;
  bool straddles = false;
  for (const Bytes& block : blocks) {
    const std::size_t unit = 4 + block.size();
    straddles = straddles || (stream_bytes < kReadSize &&
                              stream_bytes + unit > kReadSize);
    stream_bytes += unit;
    largest_unit = std::max(largest_unit, unit);
  }
  // The first full 64 KB read cuts a block in two.
  ASSERT_TRUE(straddles);
  ASSERT_GT(stream_bytes, std::size_t{4} << 20);

  SendHelloAndHeader(lo.client, header);
  auto trace = SocketTrace::Open(std::move(lo.server));
  std::thread sender([&] {
    for (const Bytes& block : blocks) {
      SendU32(lo.client, static_cast<std::uint32_t>(block.size()));
      net::SendAll(lo.client, block.data(), block.size());
    }
    if (ending == Ending::kMarker) {
      // The marker, then trailing bytes the latch must ignore; one send,
      // since the receiver closes as soon as the marker latches.
      const std::uint8_t tail[8] = {0, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF};
      net::SendAll(lo.client, tail, sizeof tail);
    } else if (ending == Ending::kGarbage) {
      SendU32(lo.client, 0x7FFFFFFF);  // absurd block length
    }
    lo.client.Close();
  });

  // Let the backlog pile up in the kernel buffers before the first pump.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<CaptureRecord> got;
  Outcome outcome = Outcome::kNone;
  std::size_t peak_capacity = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (outcome == Outcome::kNone &&
         std::chrono::steady_clock::now() < deadline) {
    try {
      if (const CaptureRecord* rec = trace->NextRef()) {
        got.push_back(*rec);
      } else if (trace->Finalized()) {
        outcome = Outcome::kFinalized;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const TraceTruncatedError&) {
      outcome = Outcome::kTruncated;
    } catch (const TraceCorruptError&) {
      outcome = Outcome::kCorrupt;
    }
    peak_capacity = std::max(peak_capacity, trace->buffered_capacity());
  }
  sender.join();

  // Never more than one unit held back, however far the sender ran ahead.
  EXPECT_LE(peak_capacity, largest_unit);
  ASSERT_LE(got.size(), sent.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ExpectSameRecord(got[i], sent[i]);
  }
  switch (ending) {
    case Ending::kMarker:
      EXPECT_EQ(outcome, Outcome::kFinalized);
      EXPECT_EQ(got.size(), sent.size());
      // The latch holds across Rewind, which replays every record.
      trace->Rewind();
      EXPECT_TRUE(trace->Finalized());
      for (const CaptureRecord& want : sent) {
        const CaptureRecord* rec = trace->NextRef();
        ASSERT_NE(rec, nullptr);
        ExpectSameRecord(*rec, want);
      }
      EXPECT_EQ(trace->NextRef(), nullptr);
      EXPECT_TRUE(trace->Finalized());
      break;
    case Ending::kClose:
      // Truncation surfaces only once everything received is consumed.
      EXPECT_EQ(outcome, Outcome::kTruncated);
      EXPECT_EQ(got.size(), sent.size());
      EXPECT_FALSE(trace->Finalized());
      break;
    case Ending::kGarbage:
      EXPECT_EQ(outcome, Outcome::kCorrupt);
      EXPECT_FALSE(trace->Finalized());
      break;
  }
}

TEST(SocketTraceTest, MultiMegabyteBacklogFinalizes) {
  ExpectBacklogReadsBack(Ending::kMarker);
}

TEST(SocketTraceTest, MultiMegabyteBacklogThenDisconnectIsTruncation) {
  ExpectBacklogReadsBack(Ending::kClose);
}

TEST(SocketTraceTest, MultiMegabyteBacklogThenGarbageIsCorruption) {
  ExpectBacklogReadsBack(Ending::kGarbage);
}

// The rewind latch over the same backlog: once EndRewinds() is set, each
// block is inflated when the reader reaches it and freed once consumed,
// so the stream never holds more compressed bytes than the reader has
// still to consume, and nothing at the end.  Rewind is then an error.
TEST(SocketTraceTest, LatchedBacklogHoldsOnlyWhatIsStillToConsume) {
  Loopback lo;
  TraceHeader header;
  header.radio = 12;
  const Backlog backlog = MakeBacklog();
  const std::vector<CaptureRecord>& sent = backlog.records;
  // unread[b]: the compressed bytes of blocks b and after.
  std::vector<std::size_t> unread(backlog.blocks.size() + 1, 0);
  for (std::size_t b = backlog.blocks.size(); b-- > 0;) {
    unread[b] = unread[b + 1] + backlog.blocks[b].size();
  }

  SendHelloAndHeader(lo.client, header);
  auto trace = SocketTrace::Open(std::move(lo.server));
  std::thread sender([&] {
    for (const Bytes& block : backlog.blocks) {
      SendU32(lo.client, static_cast<std::uint32_t>(block.size()));
      net::SendAll(lo.client, block.data(), block.size());
    }
    SendU32(lo.client, 0);
    lo.client.Close();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::size_t got = 0;
  std::size_t violations = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    const CaptureRecord* rec = trace->NextRef();
    if (rec == nullptr) {
      if (trace->Finalized()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (got == sent.size()) {
      ADD_FAILURE() << "more records than were sent";
      break;
    }
    ExpectSameRecord(*rec, sent[got]);
    if (++got == 1) {
      trace->EndRewinds();
      EXPECT_THROW(trace->Rewind(), std::logic_error);
    }
    // The block holding this record is inflated; what is left to hold is
    // the blocks after it.
    const std::size_t block = (got - 1) / kBacklogBlockRecords;
    if (trace->retained_bytes() > unread[block + 1]) ++violations;
  }
  sender.join();

  EXPECT_EQ(got, sent.size());
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(trace->retained_bytes(), 0u);
  EXPECT_THROW(trace->Rewind(), std::logic_error);
}

// ---------------------------------------------------------------------------
// The tentpole pin: 2 wings x 3 radios, byte-identical to single-node.

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A parameterized test's name holds a '/', which would nest the
    // scratch directory one level below a parent TearDown never removes.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = fs::temp_directory_path() /
           ("distributed_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

class DistributedVsSingleNode
    : public DistributedTest,
      public ::testing::WithParamInterface<unsigned> {};

TEST_P(DistributedVsSingleNode, ByteIdenticalAcrossThreads) {
  const unsigned threads = GetParam();

  // Serialize the network to files FIRST: the .jigt encoding quantizes
  // rssi, so both sides must merge the same on-disk records (comparing a
  // socket-fed merge against raw in-memory floats would diff on
  // quantization, not on topology).
  TraceSet mem = MultiChannelNetwork(88).Build();
  const std::size_t n = mem.size();
  ASSERT_EQ(n, 6u);
  const fs::path all = dir_ / "all";
  const auto paths = mem.WriteDirectory(all);

  // The single-node reference: the independent reference merge.
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 100u);

  // Split radios {0,1,2} | {3,4,5} across two wings.  Radios sharing a
  // channel land on different wings, so cross-wing frame copies exist and
  // the root's boundary reconciliation has real work to do.
  const fs::path w1 = dir_ / "w1";
  const fs::path w2 = dir_ / "w2";
  fs::create_directories(w1);
  fs::create_directories(w2);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    fs::copy_file(paths[i], (i < n / 2 ? w1 : w2) / paths[i].filename());
  }

  RootConfig rc;
  rc.n_streams = n;
  rc.merge.threads = threads;
  RootSession root(rc);
  const std::uint16_t port = root.port();

  const auto run_wing = [&](const fs::path& wing_dir, std::uint32_t id) {
    TraceSet traces = TraceSet::OpenDirectory(wing_dir);
    WingConfig wc;
    wc.wing_id = id;
    wc.root_port = port;
    WingSession wing(traces, wc);
    wing.Run();
  };
  std::thread wing1(run_wing, w1, 1u);
  std::thread wing2(run_wing, w2, 2u);

  std::vector<JFrame> streamed;
  MergeStreamStats stats;
  try {
    stats = root.Run(
        [&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    wing1.join();
    wing2.join();
    throw;
  }
  wing1.join();
  wing2.join();

  // The distributed stream is the single-node stream, byte for byte.
  ExpectIdenticalStreams(streamed, batch.jframes);
  ExpectEqualStats(stats.stats, batch.stats);
  ASSERT_EQ(stats.bootstrap.synced.size(), batch.bootstrap.synced.size());
  for (std::size_t i = 0; i < batch.bootstrap.synced.size(); ++i) {
    EXPECT_EQ(stats.bootstrap.synced[i], batch.bootstrap.synced[i]);
    EXPECT_DOUBLE_EQ(stats.bootstrap.offset_us[i],
                     batch.bootstrap.offset_us[i]);
  }

  // The boundary reconciliation really fired: frames heard on both wings
  // collapsed into single jframes at the root.
  EXPECT_EQ(root.jframes(), batch.jframes.size());
  EXPECT_GT(root.boundary_jframes(), 0u);
  EXPECT_LT(root.boundary_jframes(), root.jframes());
  // Exactly the reference jframes whose instances come from both wings.
  std::vector<bool> on_first_wing;
  for (std::size_t i = 0; i < n; ++i) {
    const RadioId radio = mem.at(i).header().radio;
    if (radio >= on_first_wing.size()) on_first_wing.resize(radio + 1u);
    on_first_wing[radio] = i < n / 2;
  }
  std::uint64_t boundary = 0;
  for (const JFrame& jf : batch.jframes) {
    bool first = false;
    bool second = false;
    for (const FrameInstance& inst : jf.instances) {
      (on_first_wing.at(inst.radio) ? first : second) = true;
    }
    if (first && second) ++boundary;
  }
  EXPECT_EQ(root.boundary_jframes(), boundary);
}

INSTANTIATE_TEST_SUITE_P(Threads, DistributedVsSingleNode,
                         ::testing::Values(1u, 2u, 0u));

// ---------------------------------------------------------------------------
// Relay liveness over live sources.
//
// A wing relays each radio on its own: radio A's uplink must finish as
// soon as A's capture finalizes, while radio B on the same wing is still
// being written — otherwise the root's watermark waits on A until the
// whole wing is done.  B's writer keeps appending until the root has seen
// A finalize, so a wing that held A back would leave B writing until the
// deadline.

TEST_F(DistributedTest, WingFinishesEachUplinkAsItsRadioFinalizes) {
  TraceHeader header_a;
  header_a.radio = 1;
  TraceHeader header_b;
  header_b.radio = 2;
  const fs::path path_a = dir_ / "r1.jigt";
  const fs::path path_b = dir_ / "r2.jigt";
  TraceFileWriter writer_a(path_a, header_a, /*records_per_block=*/16);
  TraceFileWriter writer_b(path_b, header_b, /*records_per_block=*/16);
  writer_a.Append(MakeRecord(1'000));
  writer_a.Sync();
  writer_b.Append(MakeRecord(1'000));
  writer_b.Sync();
  TraceSet live;
  for (const fs::path& path : {path_a, path_b}) {
    auto tail = TailFileTrace::TryOpen(path);
    ASSERT_NE(tail, nullptr);
    live.Add(std::move(tail));
  }

  net::Listener listener("127.0.0.1", 0);
  WingConfig wc;
  wc.wing_id = 4;
  wc.root_port = listener.port();
  wc.records_per_block = 8;
  std::uint64_t relayed = 0;
  std::thread wing_thread([&] {
    WingSession wing(live, wc);
    wing.Run();
    relayed = wing.records_relayed();
  });

  std::atomic<bool> a_final_at_root{false};
  std::uint64_t records_a = 1;
  std::uint64_t records_b = 1;
  bool b_waited_for_root = false;
  std::thread writer([&] {
    for (int i = 2; i <= 50; ++i) writer_a.Append(MakeRecord(1'000 * i));
    writer_a.Finish();
    records_a = 50;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!a_final_at_root && std::chrono::steady_clock::now() < deadline) {
      ++records_b;
      writer_b.Append(MakeRecord(1'000 * static_cast<LocalMicros>(records_b)));
      writer_b.Sync();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    b_waited_for_root = a_final_at_root;
    writer_b.Finish();
  });

  std::uint64_t got_a = 0;
  std::uint64_t got_b = 0;
  bool b_open_when_a_finalized = false;
  try {
    SocketDoor door(listener, 2);
    TraceSet& root = door.Accept();
    RecordStream& a = root.at(0);
    RecordStream& b = root.at(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!(a.Finalized() && b.Finalized()) &&
           std::chrono::steady_clock::now() < deadline) {
      while (a.NextRef() != nullptr) ++got_a;
      while (b.NextRef() != nullptr) ++got_b;
      if (a.Finalized() && !a_final_at_root) {
        b_open_when_a_finalized = !b.Finalized();
        a_final_at_root = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } catch (...) {
    a_final_at_root = true;
    writer.join();
    wing_thread.join();
    throw;
  }
  writer.join();
  wing_thread.join();

  EXPECT_TRUE(b_open_when_a_finalized);
  EXPECT_TRUE(b_waited_for_root);
  EXPECT_EQ(got_a, records_a);
  EXPECT_EQ(got_b, records_b);
  EXPECT_EQ(relayed, records_a + records_b);
}

// ---------------------------------------------------------------------------
// Forwarding.  A wing moves each file's stored blocks to the root as they
// are: it neither inflates nor re-compresses them, so its uplink carries
// exactly each file's data region.  Only a source that stores no blocks is
// re-encoded.

// A finished .jigt file's prefix, units and marker: the bytes before its
// index, whose offset the file's last 12 bytes give.
std::uint64_t DataRegionBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  std::uint8_t trailer[8] = {};
  in.seekg(size - 12);
  in.read(reinterpret_cast<char*>(trailer), sizeof trailer);
  return ByteReader(std::span<const std::uint8_t>(trailer)).U64();
}

// Runs one wing over `traces` against a root expecting traces.size()
// streams, and returns the root's jframes; the root's failure propagates.
// The wing's own failure, if any, lands in `wing_error`.
std::vector<JFrame> RelayThroughOneWing(TraceSet& traces, WingConfig wc,
                                        std::exception_ptr& wing_error) {
  RootConfig rc;
  rc.n_streams = traces.size();
  RootSession root(rc);
  wc.root_port = root.port();
  std::thread wing_thread([&] {
    try {
      WingSession wing(traces, wc);
      wing.Run();
    } catch (...) {
      wing_error = std::current_exception();
    }
  });
  std::vector<JFrame> streamed;
  try {
    root.Run([&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    wing_thread.join();
    throw;
  }
  wing_thread.join();
  return streamed;
}

TEST_F(DistributedTest, WingForwardsStoredBlocksWithoutDecodingThem) {
  TraceSet mem = MultiChannelNetwork(61).Build();
  const fs::path all = dir_ / "all";
  const auto paths = mem.WriteDirectory(all);
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 100u);

  std::uint64_t data_bytes = 0;
  std::uint64_t records = 0;
  for (const fs::path& path : paths) {
    data_bytes += kSocketHelloLen + DataRegionBytes(path);
    records += TraceFileReader(path).TotalRecords();
  }

  struct Counts {
    std::int64_t blocks_decoded;
    std::int64_t records_decoded;
    std::int64_t bytes_read;
    std::int64_t uplink_bytes;
    std::int64_t uplink_records;
  };
  const auto counts = [] {
    const obs::MetricsSnapshot m = obs::MetricRegistry::Global().Collect();
    return Counts{m.Value("jig_trace_blocks_decoded_total"),
                  m.Value("jig_trace_records_decoded_total"),
                  m.Value("jig_trace_bytes_read_total"),
                  m.Value("jig_wing_uplink_bytes_total", "wing=\"7\""),
                  m.Value("jig_wing_uplink_records_total", "wing=\"7\"")};
  };
  const Counts before = counts();
  TraceSet files = TraceSet::OpenDirectory(all);
  WingConfig wc;
  wc.wing_id = 7;
  std::exception_ptr wing_error;
  const std::vector<JFrame> streamed =
      RelayThroughOneWing(files, wc, wing_error);
  const Counts after = counts();
  if (wing_error) std::rethrow_exception(wing_error);

  ExpectIdenticalStreams(streamed, batch.jframes);
  // No file block was inflated or decoded on the wing.
  EXPECT_EQ(after.blocks_decoded, before.blocks_decoded);
  EXPECT_EQ(after.records_decoded, before.records_decoded);
  EXPECT_EQ(after.bytes_read, before.bytes_read);
  // Hellos, then each file's prefix, units and marker, byte for byte.
  EXPECT_EQ(after.uplink_bytes - before.uplink_bytes,
            static_cast<std::int64_t>(data_bytes));
  EXPECT_EQ(after.uplink_records - before.uplink_records,
            static_cast<std::int64_t>(records));
}

TEST_F(DistributedTest, WingReencodesStreamsThatStoreNoBlocks) {
  TraceSet mem = MultiChannelNetwork(63).Build();
  const fs::path all = dir_ / "all";
  mem.WriteDirectory(all);
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 100u);

  // The same (quantized) records, held in memory.
  TraceSet files = TraceSet::OpenDirectory(all);
  TraceSet memory;
  std::uint64_t records = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<CaptureRecord> recs;
    while (auto rec = files.at(i).Next()) recs.push_back(*rec);
    records += recs.size();
    memory.Add(std::make_unique<MemoryTrace>(files.at(i).header(),
                                             std::move(recs)));
  }
  WingConfig wc;
  wc.wing_id = 9;
  wc.records_per_block = 100;
  const auto relayed = [] {
    return obs::MetricRegistry::Global().Collect().Value(
        "jig_wing_uplink_records_total", "wing=\"9\"");
  };
  const std::int64_t before = relayed();
  std::exception_ptr wing_error;
  const std::vector<JFrame> streamed =
      RelayThroughOneWing(memory, wc, wing_error);
  if (wing_error) std::rethrow_exception(wing_error);
  ExpectIdenticalStreams(streamed, batch.jframes);
  EXPECT_EQ(relayed() - before, static_cast<std::int64_t>(records));
}

// The wing no longer decodes what it forwards, so a garbled block reaches
// the root, whose merge inflates it: Run ends with TraceCorruptError as
// soon as the merge reaches that block.  A wing that decoded the file
// itself died on the block instead, and its uplinks' destructors sent the
// finalize marker — the root then merged a silently truncated capture.
TEST_F(DistributedTest, CorruptBlockInAWingFileEndsTheRootWithCorruption) {
  TraceSet mem = MultiChannelNetwork(62).Build();
  const fs::path all = dir_ / "all";
  const auto paths = mem.WriteDirectory(all);
  // The first block's payload now declares a raw size no stream of its
  // length can reach.  Its framing and the index stay intact, so only
  // inflating the block can tell.
  {
    const std::uint64_t payload =
        TraceFileReader(paths[0]).index().front().file_offset + 4;
    std::fstream f(paths[0], std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(payload));
    const char garbage[4] = {'\xFF', '\xFF', '\xFF', '\x7F'};
    f.write(garbage, sizeof garbage);
  }
  TraceSet files = TraceSet::OpenDirectory(all);
  WingConfig wc;
  wc.wing_id = 10;
  const auto t0 = std::chrono::steady_clock::now();
  // The wing may finish sending before the root fails, or fail itself on
  // a root that has hung up; the root's error is the one pinned here.
  std::exception_ptr wing_error;
  EXPECT_THROW(RelayThroughOneWing(files, wc, wing_error), TraceCorruptError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

// ---------------------------------------------------------------------------
// Disconnect-then-reconnect (regression).
//
// Pre-fix, a wing that dropped and re-dialed with the same source id was
// accepted as a FRESH stream: the dead original eventually threw a
// phantom TraceTruncatedError into the merge (this test then failed on
// the root.Run throw), and the re-dial either consumed an accept slot as
// a duplicate radio or was never accepted at all.  Post-fix the re-dial
// adopts into the existing stream — the sender replays from record zero,
// already-received records are deduplicated, and the merged stream is
// byte-identical to the single-node run.

TEST_F(DistributedTest, RedialWithSameSourceResumesInsteadOfDuplicating) {
  TraceSet mem = MultiChannelNetwork(77, Seconds(2)).Build();
  const fs::path all = dir_ / "all";
  mem.WriteDirectory(all);

  // Reference: single-node reference merge of the same (quantized) files.
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 50u);

  // Re-read each radio's records for the senders.
  TraceSet files = TraceSet::OpenDirectory(all);
  const std::size_t n = files.size();
  std::vector<TraceHeader> headers;
  std::vector<std::vector<CaptureRecord>> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    headers.push_back(files.at(i).header());
    while (auto rec = files.at(i).Next()) records[i].push_back(*rec);
    ASSERT_FALSE(records[i].empty());
  }

  const std::int64_t resumes_before = obs::MetricRegistry::Global()
      .Collect().Value("jig_socket_trace_resumes_total");

  RootConfig rc;
  rc.n_streams = n;
  RootSession root(rc);
  const std::uint16_t port = root.port();

  // Radio 0's sender: half the records on a connection that dies without
  // the finalize marker, then a re-dial (same source id, same radio)
  // that replays everything from record zero, as a restarted capture
  // daemon would — a socket cannot seek and the sender cannot know how
  // much of its first stream survived.
  std::thread dropper([&] {
    const std::size_t half = records[0].size() / 2;
    {
      net::Socket sock = net::ConnectTo("127.0.0.1", port);
      SendHelloAndHeader(sock, headers[0], /*source_id=*/1);
      Bytes body;
      LocalMicros prev = 0;
      for (std::size_t i = 0; i < half; ++i) {
        SerializeRecord(records[0][i], prev, body);
        prev = records[0][i].timestamp;
      }
      const Bytes packed = LzCompress(body);
      SendU32(sock, static_cast<std::uint32_t>(packed.size()));
      net::SendAll(sock, packed.data(), packed.size());
    }  // closed mid-stream: no marker
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port), headers[0],
                             /*source_id=*/1, /*records_per_block=*/32);
    for (const CaptureRecord& rec : records[0]) writer.Append(rec);
    writer.Finish();
  });
  std::vector<std::thread> senders;
  for (std::size_t i = 1; i < n; ++i) {
    senders.emplace_back([&, i] {
      SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port),
                               headers[i], /*source_id=*/1,
                               /*records_per_block=*/64);
      for (const CaptureRecord& rec : records[i]) writer.Append(rec);
      writer.Finish();
    });
  }

  std::vector<JFrame> streamed;
  try {
    root.Run([&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    dropper.join();
    for (auto& t : senders) t.join();
    throw;
  }
  dropper.join();
  for (auto& t : senders) t.join();

  ExpectIdenticalStreams(streamed, batch.jframes);
  // The re-dial really was adopted, not re-accepted.
  EXPECT_GE(obs::MetricRegistry::Global().Collect().Value(
                "jig_socket_trace_resumes_total"),
            resumes_before + 1);
}

// ---------------------------------------------------------------------------
// Stray connections mid-merge (regression).
//
// Pre-fix, a connection to the root's port that never sent a valid hello —
// a port probe that connects and closes, or a client speaking some other
// protocol — made RootSession::Run throw from its re-dial loop (this test
// then failed on the root.Run throw), and the wings died on a broken pipe.
// Post-fix the root logs and drops such a connection, and the merged
// stream is byte-identical to the single-node run.

TEST_F(DistributedTest, StrayConnectionsMidMergeAreDropped) {
  TraceSet mem = MultiChannelNetwork(66, Seconds(2)).Build();
  const fs::path all = dir_ / "all";
  mem.WriteDirectory(all);
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 50u);

  TraceSet files = TraceSet::OpenDirectory(all);
  const std::size_t n = files.size();
  std::vector<TraceHeader> headers;
  std::vector<std::vector<CaptureRecord>> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    headers.push_back(files.at(i).header());
    while (auto rec = files.at(i).Next()) records[i].push_back(*rec);
  }

  RootConfig rc;
  rc.n_streams = n;
  RootSession root(rc);
  const std::uint16_t port = root.port();

  // Each sender relays the first half of its records, then holds the rest
  // until the strays have come and gone, so the root is mid-merge when
  // they arrive.
  std::atomic<std::size_t> connected{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> senders;
  for (std::size_t i = 0; i < n; ++i) {
    senders.emplace_back([&, i] {
      try {
        SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port),
                                 headers[i], /*source_id=*/1,
                                 /*records_per_block=*/32);
        ++connected;
        const std::size_t half = records[i].size() / 2;
        for (std::size_t j = 0; j < half; ++j) writer.Append(records[i][j]);
        writer.Sync();
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (std::size_t j = half; j < records[i].size(); ++j) {
          writer.Append(records[i][j]);
        }
        writer.Finish();
      } catch (const std::exception&) {
        // The root is gone; the assertions below report why.
      }
    });
  }
  // The strays queue behind every sender, so the accept phase takes the
  // senders and the merge loop meets the strays.
  std::thread strays([&] {
    while (connected < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    net::ConnectTo("127.0.0.1", port);  // connect and close at once
    net::Socket bad = net::ConnectTo("127.0.0.1", port);
    const Bytes bad_hello = {'N', 'O', 'P', 'E', 1, 0, 0, 0, 0, 0, 0, 0};
    net::SendAll(bad, bad_hello.data(), bad_hello.size());
    // The root closes the bad stray once it has dealt with it.
    pollfd pfd{bad.fd(), POLLIN, 0};
    std::uint8_t byte;
    if (::poll(&pfd, 1, /*timeout_ms=*/10'000) == 1) {
      EXPECT_EQ(::recv(bad.fd(), &byte, 1, 0), 0);
    } else {
      ADD_FAILURE() << "the root never dealt with the bad-hello stray";
    }
    release = true;
  });
  const auto join_all = [&] {
    strays.join();
    release = true;
    for (auto& t : senders) t.join();
  };

  std::vector<JFrame> streamed;
  try {
    root.Run([&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    release = true;
    join_all();
    throw;
  }
  join_all();
  ExpectIdenticalStreams(streamed, batch.jframes);
}

// A stray that connects mid-merge and then says nothing must not hold up
// the root.  Pre-fix the re-dial loop parsed its handshake synchronously,
// so this run took the whole accept_timeout_ms (3 s here) before the
// stray was dropped as "header timed out".  Now every pending handshake
// is stepped without blocking and the merge finishes at once.
TEST_F(DistributedTest, IdleStrayDoesNotStallTheRoot) {
  TraceSet mem = MultiChannelNetwork(44, Seconds(2)).Build();
  const fs::path all = dir_ / "all";
  mem.WriteDirectory(all);
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 50u);

  TraceSet files = TraceSet::OpenDirectory(all);
  const std::size_t n = files.size();
  std::vector<TraceHeader> headers;
  std::vector<std::vector<CaptureRecord>> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    headers.push_back(files.at(i).header());
    while (auto rec = files.at(i).Next()) records[i].push_back(*rec);
  }

  RootConfig rc;
  rc.n_streams = n;
  rc.accept_timeout_ms = 3000;
  RootSession root(rc);
  const std::uint16_t port = root.port();

  // Each sender relays half its records and holds the rest until the
  // stray has been connected for a while, so the root meets it mid-merge.
  std::atomic<std::size_t> connected{0};
  std::atomic<bool> release{false};
  std::atomic<bool> root_done{false};
  std::vector<std::thread> senders;
  for (std::size_t i = 0; i < n; ++i) {
    senders.emplace_back([&, i] {
      try {
        SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port),
                                 headers[i], /*source_id=*/1,
                                 /*records_per_block=*/32);
        ++connected;
        const std::size_t half = records[i].size() / 2;
        for (std::size_t j = 0; j < half; ++j) writer.Append(records[i][j]);
        writer.Sync();
        while (!release) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (std::size_t j = half; j < records[i].size(); ++j) {
          writer.Append(records[i][j]);
        }
        writer.Finish();
      } catch (const std::exception&) {
        // The root is gone; the assertions below report why.
      }
    });
  }
  std::thread stray([&] {
    while (connected < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    net::Socket idle = net::ConnectTo("127.0.0.1", port);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release = true;
    while (!root_done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto join_all = [&] {
    root_done = true;
    release = true;
    stray.join();
    for (auto& t : senders) t.join();
  };

  std::vector<JFrame> streamed;
  const auto start = std::chrono::steady_clock::now();
  try {
    root.Run([&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    join_all();
    throw;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  join_all();
  ExpectIdenticalStreams(streamed, batch.jframes);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
}

std::int64_t ConnectionsDropped() {
  return obs::MetricRegistry::Global().Collect().Value(
      "jig_socket_connections_dropped_total");
}

// A stray that reaches the root before any sender.  Pre-fix the accept
// phase opened each connection with a blocking handshake and let its error
// escape, so every kind of stray ended RootSession::Run with no jframe
// emitted: a silent one after accept_timeout_ms ("header timed out", 3 s
// here), a connect-and-close port probe ("peer closed before the header
// arrived") and a bad hello ("bad hello magic") at once.  Now the stray
// waits in the door's pending list like any other connection and is
// dropped — the silent one when the door closes at the end of the merge.
enum class Stray { kSilent, kConnectAndClose, kBadHello };

class AcceptPhaseStray : public DistributedTest,
                         public ::testing::WithParamInterface<Stray> {};

TEST_P(AcceptPhaseStray, AcceptPhaseStrayDoesNotKillTheRoot) {
  TraceSet mem = MultiChannelNetwork(55, Seconds(2)).Build();
  const fs::path all = dir_ / "all";
  mem.WriteDirectory(all);
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 50u);

  TraceSet files = TraceSet::OpenDirectory(all);
  const std::size_t n = files.size();
  std::vector<TraceHeader> headers;
  std::vector<std::vector<CaptureRecord>> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    headers.push_back(files.at(i).header());
    while (auto rec = files.at(i).Next()) records[i].push_back(*rec);
  }

  RootConfig rc;
  rc.n_streams = n;
  rc.accept_timeout_ms = 3000;
  RootSession root(rc);
  const std::uint16_t port = root.port();
  const std::int64_t dropped_before = ConnectionsDropped();

  // The stray queues first, so the accept phase meets it before any
  // sender.
  net::Socket stray = net::ConnectTo("127.0.0.1", port);
  switch (GetParam()) {
    case Stray::kSilent:
      break;
    case Stray::kConnectAndClose:
      stray.Close();
      break;
    case Stray::kBadHello: {
      const Bytes bad_hello = {'N', 'O', 'P', 'E', 1, 0, 0, 0, 0, 0, 0, 0};
      net::SendAll(stray, bad_hello.data(), bad_hello.size());
      break;
    }
  }
  std::vector<std::thread> senders;
  for (std::size_t i = 0; i < n; ++i) {
    senders.emplace_back([&, i] {
      try {
        SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port),
                                 headers[i], /*source_id=*/1,
                                 /*records_per_block=*/32);
        for (const CaptureRecord& rec : records[i]) writer.Append(rec);
        writer.Finish();
      } catch (const std::exception&) {
        // The root is gone; the assertions below report why.
      }
    });
  }

  std::vector<JFrame> streamed;
  const auto start = std::chrono::steady_clock::now();
  try {
    root.Run([&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    for (auto& t : senders) t.join();
    throw;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (auto& t : senders) t.join();
  ExpectIdenticalStreams(streamed, batch.jframes);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  EXPECT_EQ(ConnectionsDropped(), dropped_before + 1);
}

INSTANTIATE_TEST_SUITE_P(
    EveryKind, AcceptPhaseStray,
    ::testing::Values(Stray::kSilent, Stray::kConnectAndClose,
                      Stray::kBadHello),
    [](const ::testing::TestParamInfo<Stray>& info) {
      switch (info.param) {
        case Stray::kSilent:
          return "Silent";
        case Stray::kConnectAndClose:
          return "ConnectAndClose";
        case Stray::kBadHello:
          return "BadHello";
      }
      return "Unknown";
    });

// The accept phase gives up once accept_timeout_ms passes without a new
// stream, however many strays keep dialing: a stray never restarts that
// clock.  One of the two senders never comes.
TEST_F(DistributedTest, AcceptTimesOutWhileStraysKeepDialing) {
  RootConfig rc;
  rc.n_streams = 2;
  rc.accept_timeout_ms = 300;
  RootSession root(rc);
  const std::uint16_t port = root.port();

  std::thread sender([port] {
    try {
      TraceHeader header;
      header.radio = 1;
      SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port), header,
                               /*source_id=*/1);
      writer.Append(MakeRecord(1'000));
      writer.Finish();
    } catch (const std::exception&) {
      // The root is gone; the assertions below report why.
    }
  });
  std::atomic<bool> stop{false};
  std::thread strays([&stop, port] {
    std::vector<net::Socket> idle;
    while (!stop) {
      idle.push_back(net::ConnectTo("127.0.0.1", port));
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(root.Run([](JFrame&&) {}), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop = true;
  strays.join();
  sender.join();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// A wing that dies after the rewind latch — the root has already emitted
// jframes, so blocks it consumed are freed — and replays from record
// zero.  The dedupe counts the freed blocks and the queued ones; the
// replay uses a different block size, so one of its blocks straddles the
// skip point.
TEST_F(DistributedTest, RedialAfterTheLatchDeduplicatesFreedBlocks) {
  TraceSet mem = MultiChannelNetwork(33).Build();
  const fs::path all = dir_ / "all";
  mem.WriteDirectory(all);
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = ReferenceMerge(full);
  ASSERT_GT(batch.jframes.size(), 50u);

  TraceSet files = TraceSet::OpenDirectory(all);
  const std::size_t n = files.size();
  std::vector<TraceHeader> headers;
  std::vector<std::vector<CaptureRecord>> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    headers.push_back(files.at(i).header());
    while (auto rec = files.at(i).Next()) records[i].push_back(*rec);
  }

  const std::int64_t resumes_before = obs::MetricRegistry::Global()
      .Collect().Value("jig_socket_trace_resumes_total");

  RootConfig rc;
  rc.n_streams = n;
  RootSession root(rc);
  const std::uint16_t port = root.port();

  std::atomic<bool> emitted{false};
  std::atomic<bool> emitted_before_drop{false};
  std::thread dropper([&] {
    const std::size_t half = records[0].size() / 2;
    {
      // Half the capture in 32-record blocks; the connection then dies
      // without the marker once the root has emitted a jframe.
      net::Socket sock = net::ConnectTo("127.0.0.1", port);
      SendHelloAndHeader(sock, headers[0], /*source_id=*/1);
      for (std::size_t i = 0; i < half; i += 32) {
        Bytes body;
        LocalMicros prev = 0;
        for (std::size_t j = i; j < std::min(half, i + 32); ++j) {
          SerializeRecord(records[0][j], prev, body);
          prev = records[0][j].timestamp;
        }
        const Bytes packed = LzCompress(body);
        SendU32(sock, static_cast<std::uint32_t>(packed.size()));
        net::SendAll(sock, packed.data(), packed.size());
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!emitted && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      emitted_before_drop = emitted.load();
    }
    SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port), headers[0],
                             /*source_id=*/1, /*records_per_block=*/45);
    for (const CaptureRecord& rec : records[0]) writer.Append(rec);
    writer.Finish();
  });
  std::vector<std::thread> senders;
  for (std::size_t i = 1; i < n; ++i) {
    senders.emplace_back([&, i] {
      SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port),
                               headers[i], /*source_id=*/1,
                               /*records_per_block=*/64);
      for (const CaptureRecord& rec : records[i]) writer.Append(rec);
      writer.Finish();
    });
  }

  std::vector<JFrame> streamed;
  try {
    root.Run([&](JFrame&& jf) {
      streamed.push_back(std::move(jf));
      emitted = true;
    });
  } catch (...) {
    emitted = true;
    dropper.join();
    for (auto& t : senders) t.join();
    throw;
  }
  dropper.join();
  for (auto& t : senders) t.join();

  EXPECT_TRUE(emitted_before_drop);
  ExpectIdenticalStreams(streamed, batch.jframes);
  EXPECT_EQ(obs::MetricRegistry::Global().Collect().Value(
                "jig_socket_trace_resumes_total"),
            resumes_before + 1);
}

// The stream-level seam the root builds on, pinned without a merge: a
// resumable stream parks on disconnect (no-data-yet, NOT truncation),
// then OpenOrResume routes the matching re-dial back into it and the
// from-zero replay dedupes; a different identity stays a fresh stream.
TEST(SocketTraceTest, ResumableStreamParksAndDeduplicatesReplay) {
  Loopback lo;
  TraceHeader header;
  header.radio = 5;
  auto send_records = [](net::Socket& sock, int from, int to) {
    Bytes body;
    LocalMicros prev = 0;
    for (int i = from; i < to; ++i) {
      SerializeRecord(MakeRecord(1'000 * (i + 1)), prev, body);
      prev = 1'000 * (i + 1);
    }
    const Bytes packed = LzCompress(body);
    SendU32(sock, static_cast<std::uint32_t>(packed.size()));
    net::SendAll(sock, packed.data(), packed.size());
  };

  SendHelloAndHeader(lo.client, header, /*source_id=*/9);
  send_records(lo.client, 0, 3);
  lo.client.Close();

  auto trace = SocketTrace::Open(std::move(lo.server));
  trace->set_resumable(true);
  EXPECT_EQ(trace->Next()->timestamp, 1'000);
  EXPECT_EQ(trace->Next()->timestamp, 2'000);
  EXPECT_EQ(trace->Next()->timestamp, 3'000);
  // Disconnected before the marker: parked, not truncated.
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_FALSE(trace->Finalized());
  EXPECT_TRUE(trace->disconnected());

  // A re-dial with a DIFFERENT identity must not adopt.
  {
    Loopback other;
    TraceHeader other_header;
    other_header.radio = 6;  // wrong radio
    SendHelloAndHeader(other.client, other_header, /*source_id=*/9);
    std::vector<SocketTrace*> existing{trace.get()};
    auto fresh = SocketTrace::OpenOrResume(
        CompletedHandshake(std::move(other.server)), existing);
    EXPECT_NE(fresh, nullptr);
  }

  // The matching re-dial adopts and replays from zero; records 1..3 are
  // consumed silently, 4..5 surface exactly once, and the marker
  // finalizes the stream.
  {
    Loopback redial;
    SendHelloAndHeader(redial.client, header, /*source_id=*/9);
    send_records(redial.client, 0, 5);
    SendU32(redial.client, 0);  // finalize marker
    std::vector<SocketTrace*> existing{trace.get()};
    auto adopted = SocketTrace::OpenOrResume(
        CompletedHandshake(std::move(redial.server)), existing);
    EXPECT_EQ(adopted, nullptr);
  }
  EXPECT_EQ(trace->Next()->timestamp, 4'000);
  EXPECT_EQ(trace->Next()->timestamp, 5'000);
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());

  // Rewind (the late-bootstrap pass) replays the stitched stream whole.
  trace->Rewind();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(trace->Next()->timestamp, 1'000 * (i + 1));
  }
  EXPECT_EQ(trace->NextRef(), nullptr);
}

// The resume dedupe after the latch, pinned without a merge: records in
// freed blocks, in a decoded block and in a still-compressed block all
// count as delivered; a replay block wholly inside them is dropped and
// one straddling the skip point keeps only its new records.
TEST(SocketTraceTest, ResumeAfterTheLatchCountsFreedAndQueuedBlocks) {
  Loopback lo;
  TraceHeader header;
  header.radio = 8;
  auto send_block = [](net::Socket& sock, int from, int to) {
    Bytes body;
    LocalMicros prev = 0;
    for (int i = from; i < to; ++i) {
      SerializeRecord(MakeRecord(1'000 * (i + 1)), prev, body);
      prev = 1'000 * (i + 1);
    }
    const Bytes packed = LzCompress(body);
    SendU32(sock, static_cast<std::uint32_t>(packed.size()));
    net::SendAll(sock, packed.data(), packed.size());
  };

  SendHelloAndHeader(lo.client, header, /*source_id=*/4);
  send_block(lo.client, 0, 2);
  send_block(lo.client, 2, 4);
  send_block(lo.client, 4, 6);
  lo.client.Close();

  auto trace = SocketTrace::Open(std::move(lo.server));
  trace->set_resumable(true);
  EXPECT_EQ(trace->Next()->timestamp, 1'000);
  trace->EndRewinds();
  EXPECT_EQ(trace->Next()->timestamp, 2'000);
  // Reading record 3 frees block [1,2]; block [5,6] is still compressed.
  EXPECT_EQ(trace->Next()->timestamp, 3'000);
  EXPECT_GT(trace->retained_bytes(), 0u);

  const std::int64_t resumes_before = obs::MetricRegistry::Global()
      .Collect().Value("jig_socket_trace_resumes_total");
  {
    Loopback redial;
    SendHelloAndHeader(redial.client, header, /*source_id=*/4);
    send_block(redial.client, 0, 3);  // inside the six delivered
    send_block(redial.client, 3, 8);  // straddles: 7 and 8 are new
    SendU32(redial.client, 0);
    std::vector<SocketTrace*> existing{trace.get()};
    EXPECT_EQ(SocketTrace::OpenOrResume(
                  CompletedHandshake(std::move(redial.server)), existing),
              nullptr);
  }
  EXPECT_EQ(obs::MetricRegistry::Global().Collect().Value(
                "jig_socket_trace_resumes_total"),
            resumes_before + 1);
  for (int i = 3; i < 8; ++i) {
    const auto rec = trace->Next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->timestamp, 1'000 * (i + 1));
  }
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());
  EXPECT_EQ(trace->retained_bytes(), 0u);
  EXPECT_THROW(trace->Rewind(), std::logic_error);
}

}  // namespace
}  // namespace jig
