// Distributed-merge suite: the socket trace transport and the two-level
// (wing -> root) topology.
//
// Two contracts are pinned here.  First, SocketTrace must honor the
// RecordStream tri-state semantics TailFileTrace established — no-data-yet
// vs latched finalize vs corruption — with the socket-specific fourth
// state (peer disconnect before the marker) surfacing as truncation.
// Second, the tentpole determinism pin: a 2-wing distributed merge must
// emit a jframe stream byte-identical to the single-node merge of the same
// trace files, across threads in {1, 2, auto} and with spill engaged —
// the distributed topology may change WHERE records travel, never WHAT
// the global unifier says about them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <tuple>
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

void ExpectBacklogReadsBack(Ending ending) {
  Loopback lo;
  TraceHeader header;
  header.radio = 11;
  // 200-byte LCG payloads barely compress, so 24k records make a ~5 MB
  // backlog; 61-record blocks keep unit sizes off any 64 KB multiple.
  std::vector<CaptureRecord> sent;
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
  std::vector<Bytes> blocks;
  for (std::size_t i = 0; i < sent.size(); i += 61) {
    Bytes body;
    LocalMicros prev = 0;
    for (std::size_t j = i; j < std::min(sent.size(), i + 61); ++j) {
      SerializeRecord(sent[j], prev, body);
      prev = sent[j].timestamp;
    }
    blocks.push_back(LzCompress(body));
  }
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

// ---------------------------------------------------------------------------
// The tentpole pin: 2 wings x 3 radios, byte-identical to single-node.

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("distributed_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

class DistributedVsSingleNode
    : public DistributedTest,
      public ::testing::WithParamInterface<std::tuple<unsigned, bool>> {};

TEST_P(DistributedVsSingleNode, ByteIdenticalAcrossThreadsAndSpill) {
  const unsigned threads = std::get<0>(GetParam());
  const bool spill = std::get<1>(GetParam());

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
  if (spill) {
    rc.merge.spill_dir = dir_ / "spill_root";
    rc.merge.spill_threshold = 16;  // force spill engagement early
  }
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
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsBySpill, DistributedVsSingleNode,
    ::testing::Combine(::testing::Values(1u, 2u, 0u), ::testing::Bool()));

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
    TraceSet root = AcceptTraces(listener, 2);
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
    auto fresh = SocketTrace::OpenOrResume(std::move(other.server), existing);
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
    auto adopted = SocketTrace::OpenOrResume(std::move(redial.server),
                                             existing);
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

}  // namespace
}  // namespace jig
