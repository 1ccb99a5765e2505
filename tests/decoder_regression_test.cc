// Regression fixtures for the on-disk decoders, minimized from the fuzz
// harnesses in fuzz/ (see docs/STATIC_ANALYSIS.md, "Fuzzing").
//
// Every fixture pins the same invariant the fuzzers assert at scale: a
// hostile input either decodes or raises exactly the documented taxonomy —
// TraceError subtypes for .jigt/.jigs structure, LzError subtypes for
// compressed blocks, std::runtime_error for JFrame payloads.  The inputs
// here are the minimized crashers the harnesses would find against the
// unhardened decoders: allocation bombs from attacker-declared counts
// (std::bad_alloc is not in any taxonomy) and ByteReader underflows that
// used to escape as plain runtime_error where TraceError was documented.
#include <sys/socket.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "trace/net.h"
#include "trace/socket_trace.h"
#include "trace/tail_trace.h"
#include "trace/trace_file.h"
#include "util/byte_io.h"
#include "util/compression.h"
#include "util/crc32.h"

namespace jig {
namespace {

namespace fs = std::filesystem;

class DecoderRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("jig_decoder_regression_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path Write(const std::string& name, const Bytes& bytes) {
    const fs::path path = dir_ / name;
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  fs::path dir_;
};

Bytes Slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
}

std::uint32_t GetU32(const Bytes& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint64_t GetU64(const Bytes& b, std::size_t at) {
  return static_cast<std::uint64_t>(GetU32(b, at)) |
         (static_cast<std::uint64_t>(GetU32(b, at + 4)) << 32);
}

void PutU32At(Bytes& b, std::size_t at, std::uint32_t v) {
  b[at] = static_cast<std::uint8_t>(v);
  b[at + 1] = static_cast<std::uint8_t>(v >> 8);
  b[at + 2] = static_cast<std::uint8_t>(v >> 16);
  b[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64At(Bytes& b, std::size_t at, std::uint64_t v) {
  PutU32At(b, at, static_cast<std::uint32_t>(v));
  PutU32At(b, at + 4, static_cast<std::uint32_t>(v >> 32));
}

// A small finished trace to mutate: header + one block + index trailer.
Bytes MakeValidTrace(const fs::path& scratch) {
  TraceHeader header;
  header.radio = 1;
  const fs::path path = scratch / "valid.jigt";
  {
    TraceFileWriter w(path, header, /*records_per_block=*/4);
    for (int i = 0; i < 6; ++i) {
      CaptureRecord rec;
      rec.timestamp = 1000 + i * 100;
      rec.orig_len = 64;
      rec.bytes.assign(32, static_cast<std::uint8_t>(i));
      w.Append(rec);
    }
    w.Finish();
  }
  return Slurp(path);
}

// ---------------------------------------------------------------------------
// LZ block decoder.

// Minimized crasher: a 4-byte stream whose header declares a 4 GiB output.
// The unhardened decoder reserved the full declared size before reading a
// single token — std::bad_alloc (or an ASan allocation failure), which is
// outside the LzError taxonomy.
TEST(LzDecodeRegression, HostileDeclaredSizeIsCorruptNotOom) {
  const Bytes bomb = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(LzDecompress(bomb), LzCorruptError);
}

// A declared size the token stream could reach but does not fill stays a
// truncation (the pre-existing contract): the reachability bound must only
// reject sizes no stream of this length could produce.
TEST(LzDecodeRegression, ReachableButUnfilledSizeStaysTruncated) {
  Bytes packed = {100, 0, 0, 0};  // declares 100 bytes
  packed.push_back(0x00);         // literal run of 1
  packed.push_back(0xAB);
  EXPECT_THROW(LzDecompress(packed), LzTruncatedError);
}

// ---------------------------------------------------------------------------
// JFrame payload decoder.

// Serialized prefix of a valid jframe up to (and excluding) the instance
// list, so tests can append hostile instance counts.
Bytes JFramePrefixWithoutInstances() {
  Bytes out;
  ByteWriter w(out);
  w.I64(5000);               // timestamp
  w.I64(0);                  // dispersion
  w.U8(1);                   // channel
  w.U8(3);                   // rate
  w.U32(96);                 // wire_len
  w.U64(0x1234);             // digest
  w.U8(0);                   // frame type
  w.U8(0);                   // flags
  w.U16(314);                // duration
  for (int a = 0; a < 18; ++a) w.U8(0x22);  // addr1..addr3
  w.U16(7);                  // sequence
  w.U8(3);                   // frame rate
  w.Varint(0);               // body length
  return out;
}

// Minimized crasher: a varint instance count of 2^40 with no instance
// bytes behind it.  The unhardened decoder reserved 23 bytes per declared
// instance before validating — tens of terabytes from a 6-byte field.
TEST(JFrameRegression, HostileInstanceCountIsRuntimeErrorNotOom) {
  Bytes bytes = JFramePrefixWithoutInstances();
  ByteWriter w(bytes);
  w.Varint(std::uint64_t{1} << 40);
  ByteReader r(bytes);
  EXPECT_THROW(DeserializeJFrame(r), std::runtime_error);
}

// A count that merely exceeds the remaining bytes (without being an
// allocation bomb) is rejected the same way.
TEST(JFrameRegression, InstanceCountPastInputIsRejected) {
  Bytes bytes = JFramePrefixWithoutInstances();
  ByteWriter w(bytes);
  w.Varint(3);  // declares 3 instances; zero bytes follow
  ByteReader r(bytes);
  EXPECT_THROW(DeserializeJFrame(r), std::runtime_error);
}

// ---------------------------------------------------------------------------
// .jigt trace reader.

// Minimized crasher: the trailer's block count patched to 0xFFFFFFFF.  The
// unhardened reader clamped it only against kMaxPackedBlockLen (2^26) and
// reserved ~2 GB of index entries before reading any of them.
TEST_F(DecoderRegressionTest, TraceHostileIndexCountIsCorrupt) {
  Bytes bytes = MakeValidTrace(dir_);
  const std::uint64_t index_offset = GetU64(bytes, bytes.size() - 12);
  PutU32At(bytes, static_cast<std::size_t>(index_offset), 0xFFFFFFFFu);
  const auto path = Write("hostile_count.jigt", bytes);
  EXPECT_THROW(TraceFileReader reader(path), TraceCorruptError);
}

// Minimized crasher: an index entry's record count patched to 0xFFFFFFFF.
// The unhardened reader reserved a record vector for the full count before
// decoding the (tiny) block.
TEST_F(DecoderRegressionTest, TraceHostileRecordCountIsCorrupt) {
  Bytes bytes = MakeValidTrace(dir_);
  const std::uint64_t index_offset = GetU64(bytes, bytes.size() - 12);
  // Entry 0 starts after the u32 count; record_count is its last field.
  const std::size_t entry0 = static_cast<std::size_t>(index_offset) + 4;
  PutU32At(bytes, entry0 + 24, 0xFFFFFFFFu);
  const auto path = Write("hostile_records.jigt", bytes);
  TraceFileReader reader(path);
  EXPECT_THROW(
      {
        while (reader.Next()) {
        }
      },
      TraceCorruptError);
}

// Minimized crasher: an index entry offset of 2^64-1.  Buffered reads used
// to feed it through a u64→long cast into fseek (failing as a plain
// runtime_error, outside the taxonomy).  The reader now rejects offsets
// past the index region up front.
TEST_F(DecoderRegressionTest, TraceHostileEntryOffsetIsCorrupt) {
  Bytes bytes = MakeValidTrace(dir_);
  const std::uint64_t index_offset = GetU64(bytes, bytes.size() - 12);
  PutU64At(bytes, static_cast<std::size_t>(index_offset) + 4,
           0xFFFFFFFFFFFFFFFFull);
  const auto path = Write("hostile_offset.jigt", bytes);
  EXPECT_THROW(TraceFileReader reader(path), TraceCorruptError);
}

// Minimized taxonomy escape: a header_len that frames fewer bytes than
// TraceHeader needs.  The ByteReader underflow inside DeserializeHeader
// used to escape as a plain runtime_error; the documented contract for
// unusable trace bytes is TraceCorruptError.
TEST_F(DecoderRegressionTest, TraceShortHeaderIsCorruptNotRawRuntimeError) {
  Bytes bytes = {'J', 'I', 'G', 'T', 1, 0, 0, 0, 5, 0, 0, 0,
                 0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  const auto path = Write("short_header.jigt", bytes);
  EXPECT_THROW(TraceFileReader reader(path), TraceCorruptError);
}

// Minimized silent drop: an index entry whose record_count understates its
// block.  The batch reader used to stop after the declared count and move
// on, so a 128-record file read as 74 records through TraceFileReader while
// TailFileTrace (which ignores the index) returned all 128 — no error from
// either.  Each block is now decoded to its end and the count checked.
TEST_F(DecoderRegressionTest, TraceIndexRecordCountMismatchIsCorrupt) {
  TraceHeader header;
  header.radio = 4;
  const fs::path valid = dir_ / "count.jigt";
  {
    TraceFileWriter w(valid, header, /*records_per_block=*/64);
    for (int i = 0; i < 128; ++i) {
      CaptureRecord rec;
      rec.timestamp = 1000 + i * 10;
      rec.bytes.assign(8, static_cast<std::uint8_t>(i));
      rec.orig_len = 8;
      w.Append(rec);
    }
    w.Finish();
  }
  Bytes bytes = Slurp(valid);
  const std::uint64_t index_offset = GetU64(bytes, bytes.size() - 12);
  const std::size_t entry0 = static_cast<std::size_t>(index_offset) + 4;
  ASSERT_EQ(GetU32(bytes, entry0 + 24), 64u);
  PutU32At(bytes, entry0 + 24, 10);
  const auto path = Write("count_patched.jigt", bytes);

  auto tail = TailFileTrace::TryOpen(path);
  ASSERT_NE(tail, nullptr);
  std::size_t tailed = 0;
  while (tail->NextRef()) ++tailed;
  EXPECT_EQ(tailed, 128u);

  TraceFileReader reader(path);
  EXPECT_THROW(
      {
        while (reader.NextRef()) {
        }
      },
      TraceCorruptError);
}

// ---------------------------------------------------------------------------
// .jigs spill-segment reader.

// Minimized taxonomy escape: a header_len that frames fewer bytes than
// SpillSegmentHeader needs (9).  Same underflow-escape as the trace header.
TEST_F(DecoderRegressionTest, SpillShortHeaderIsCorruptNotRawRuntimeError) {
  Bytes bytes = {'J', 'I', 'G', 'S', 1, 0, 0, 0, 3, 0, 0, 0, 0x01, 0x02, 0x03};
  const auto path = Write("short_header.jigs", bytes);
  for (const bool strict : {true, false}) {
    EXPECT_THROW(SpillSegmentReader reader(path, strict), TraceCorruptError);
  }
}

// A segment cut off inside the magic is truncation (a writer that died
// immediately), in both strict and tail modes — and must not leak the
// already-opened FILE* (the fuzz harnesses run this ctor in a loop under
// ASan/LSan, which is where a descriptor leak shows up).
TEST_F(DecoderRegressionTest, SpillTruncatedMagicIsTruncated) {
  const auto path = Write("torn_magic.jigs", Bytes{'J', 'I'});
  for (const bool strict : {true, false}) {
    EXPECT_THROW(SpillSegmentReader reader(path, strict), TraceTruncatedError);
  }
}

// A hostile block length (past kMaxPackedBlockLen) inside an otherwise valid
// segment is corruption in both modes — not an allocation attempt.
TEST_F(DecoderRegressionTest, SpillHostileBlockLengthIsCorrupt) {
  SpillSegmentHeader header;
  header.channel = 1;
  header.sequence = 1;
  const fs::path path = dir_ / "hostile_block.jigs";
  {
    SpillSegmentWriter w(path, header, /*records_per_block=*/4);
    JFrame jf;
    jf.timestamp = 100;
    w.Append(jf);
    w.Finish();
  }
  Bytes bytes = Slurp(path);
  // The first block's length word sits right after magic+version+hdr frame.
  const std::size_t block_len_at = 12 + GetU32(bytes, 8);
  PutU32At(bytes, block_len_at, 0xFFFFFFFFu);
  const auto patched = Write("hostile_block_patched.jigs", bytes);
  for (const bool strict : {true, false}) {
    SpillSegmentReader reader(patched, strict);
    EXPECT_THROW(
        {
          while (reader.Next()) {
          }
        },
        TraceCorruptError);
  }
}

// ---------------------------------------------------------------------------
// .jigc checkpoint loader.

// Re-seals a checkpoint body (everything before the CRC) with a correct
// CRC32, so a patched structure gets past the CRC check.
Bytes SealCheckpoint(Bytes body) {
  const std::uint32_t crc = Crc32(body);
  body.resize(body.size() + 4);
  PutU32At(body, body.size() - 4, crc);
  return body;
}

// Minimized crasher: a CRC-valid 41-byte checkpoint whose frontier count
// is 0xFFFFFFFF with no entries behind it.  The unhardened loader reserved
// the whole table (0x17ffffffe8 bytes) before reading one entry —
// std::bad_alloc without ASan, an allocation-size abort under it.
TEST_F(DecoderRegressionTest, CheckpointHostileFrontierCountIsCorrupt) {
  const fs::path saved = dir_ / "empty.jigc";
  SaveCheckpoint(saved, Checkpoint{});
  Bytes body = Slurp(saved);
  // magic, version, varint name length 0, emitted, active seq and base.
  const std::size_t n_frontiers_at = 4 + 4 + 1 + 3 * 8;
  body.resize(n_frontiers_at + 4);  // cut after the frontier count
  PutU32At(body, n_frontiers_at, 0xFFFFFFFFu);
  const Bytes hostile = SealCheckpoint(body);
  ASSERT_EQ(hostile.size(), 41u);
  EXPECT_THROW(LoadCheckpoint(Write("hostile_frontiers.jigc", hostile)),
               TraceCorruptError);
}

// The same bomb in the segment table: one valid frontier, then a segment
// count of 0xFFFFFFFF and nothing after it.
TEST_F(DecoderRegressionTest, CheckpointHostileSegmentCountIsCorrupt) {
  Checkpoint cp;
  cp.frontiers.push_back({7, 100, true});
  const fs::path saved = dir_ / "one_frontier.jigc";
  SaveCheckpoint(saved, cp);
  Bytes body = Slurp(saved);
  body.resize(body.size() - 4);  // drop the CRC
  PutU32At(body, body.size() - 4, 0xFFFFFFFFu);  // the segment count
  EXPECT_THROW(
      LoadCheckpoint(Write("hostile_segments.jigc", SealCheckpoint(body))),
      TraceCorruptError);
}

// ---------------------------------------------------------------------------
// Cross-reader taxonomy (docs/FORMATS.md taxonomy tables).
//
// Every reader of the [u32 len][LZ block] framing sees the same hostile
// streams: the batch .jigt reader, the .jigt tail reader, the socket
// reader, and the .jigs reader in strict and tail mode.  Each case is one
// mutation of a two-block stream, rendered per reader (.jigt with its index
// trailer, .jigs without, the socket stream behind its hello), and each
// reader's outcome must be the one its table documents.

enum class Outcome { kClean, kNoDataYet, kTruncated, kCorrupt, kEscaped };

const char* Name(Outcome o) {
  switch (o) {
    case Outcome::kClean: return "clean";
    case Outcome::kNoDataYet: return "no-data-yet";
    case Outcome::kTruncated: return "truncated";
    case Outcome::kCorrupt: return "corrupt";
    case Outcome::kEscaped: return "escaped the taxonomy";
  }
  return "?";
}

// A framed stream before rendering: prefix, blocks, finalize marker.
struct Framed {
  Bytes prefix;                       // magic, version, header_len, header
  std::vector<Bytes> payloads;        // each block's LZ payload
  std::vector<std::uint32_t> counts;  // records per block (.jigt index)
  std::vector<std::uint32_t> lens;    // each block's length word
  Bytes after_marker;                 // bytes between marker and index
  std::size_t cut = SIZE_MAX;         // keep only this many bytes
};

void PutU32(Bytes& out, std::uint32_t v) {
  ByteWriter(out).U32(v);
}

Framed MakeFramed(const char* magic, const Bytes& header,
                  const std::vector<Bytes>& raw_blocks,
                  const std::vector<std::uint32_t>& counts) {
  Framed f;
  f.prefix.assign(magic, magic + 4);
  PutU32(f.prefix, 1);
  PutU32(f.prefix, static_cast<std::uint32_t>(header.size()));
  f.prefix.insert(f.prefix.end(), header.begin(), header.end());
  for (const Bytes& raw : raw_blocks) {
    f.payloads.push_back(LzCompress(raw));
    f.lens.push_back(static_cast<std::uint32_t>(f.payloads.back().size()));
  }
  f.counts = counts;
  return f;
}

Framed TraceFramed() {
  TraceHeader header;
  header.radio = 5;
  Bytes hdr;
  SerializeHeader(header, hdr);
  std::vector<Bytes> blocks(2);
  LocalMicros ts = 1000;
  for (Bytes& raw : blocks) {
    LocalMicros prev = 0;  // delta coding restarts per block
    for (int i = 0; i < 3; ++i) {
      CaptureRecord rec;
      rec.timestamp = ts += 100;
      rec.bytes.assign(24, static_cast<std::uint8_t>(ts));
      rec.orig_len = 24;
      SerializeRecord(rec, prev, raw);
      prev = rec.timestamp;
    }
  }
  return MakeFramed(kTraceDataMagic, hdr, blocks, {3, 3});
}

Framed SpillFramed() {
  Bytes hdr;
  ByteWriter w(hdr);
  w.U8(1);   // channel
  w.U64(0);  // sequence
  std::vector<Bytes> blocks(2);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (int i = 0; i < 3; ++i) {
      JFrame jf;
      jf.timestamp = static_cast<UniversalMicros>(100 * (b * 3 + i));
      SerializeJFrame(jf, blocks[b]);
    }
  }
  return MakeFramed(kSpillMagic, hdr, blocks, {3, 3});
}

// The data region: blocks, marker, and whatever follows the marker.  With
// `index`, the .jigt index trailer is appended after that.
Bytes Render(const Framed& f, bool index) {
  Bytes out = f.prefix;
  std::vector<std::uint64_t> offsets;
  for (std::size_t i = 0; i < f.payloads.size(); ++i) {
    offsets.push_back(out.size());
    PutU32(out, f.lens[i]);
    out.insert(out.end(), f.payloads[i].begin(), f.payloads[i].end());
  }
  PutU32(out, 0);
  out.insert(out.end(), f.after_marker.begin(), f.after_marker.end());
  if (index) {
    const std::uint64_t index_offset = out.size();
    ByteWriter w(out);
    w.U32(static_cast<std::uint32_t>(offsets.size()));
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      w.U64(offsets[i]);
      w.U64(0);
      w.U64(0);
      w.U32(f.counts[i]);
    }
    w.U64(index_offset);
    w.Raw(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(kTraceIndexMagic), 4));
  }
  if (out.size() > f.cut) out.resize(f.cut);
  return out;
}

template <typename Drain>
Outcome Classify(Drain&& drain) {
  try {
    return drain();
  } catch (const TraceTruncatedError&) {
    return Outcome::kTruncated;
  } catch (const TraceCorruptError&) {
    return Outcome::kCorrupt;
  } catch (const std::exception&) {
    return Outcome::kEscaped;
  }
}

Outcome DrainFile(const fs::path& path) {
  return Classify([&] {
    TraceFileReader reader(path);
    while (reader.NextRef()) {
    }
    return Outcome::kClean;
  });
}

Outcome DrainTail(const fs::path& path) {
  return Classify([&] {
    auto tail = TailFileTrace::TryOpen(path);
    if (!tail) return Outcome::kNoDataYet;
    while (tail->NextRef()) {
    }
    return tail->Finalized() ? Outcome::kClean : Outcome::kNoDataYet;
  });
}

// The sender writes hello + stream into a socketpair and closes its end,
// so the receiver sees everything followed by EOF.
Outcome DrainSocket(const Bytes& stream) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return Outcome::kEscaped;
  }
  net::Socket receiver(fds[0]);
  {
    net::Socket sender(fds[1]);
    const Bytes hello = EncodeSocketHello(/*source_id=*/0);
    net::SendAll(sender, hello.data(), hello.size());
    net::SendAll(sender, stream.data(), stream.size());
  }
  return Classify([&] {
    auto trace = SocketTrace::Open(std::move(receiver), /*timeout_ms=*/2000);
    while (trace->NextRef()) {
    }
    return trace->Finalized() ? Outcome::kClean : Outcome::kNoDataYet;
  });
}

Outcome DrainSpill(const fs::path& path, bool strict) {
  return Classify([&] {
    SpillSegmentReader reader(path, strict);
    while (reader.Next()) {
    }
    return reader.finalized() ? Outcome::kClean : Outcome::kNoDataYet;
  });
}

struct TaxonomyCase {
  const char* name;
  std::function<void(Framed&)> mutate;
  // file, tail, socket, spill strict, spill tail
  std::array<Outcome, 5> expect;
};

// Where block 1 starts in the data region (prefix + block 0).
std::size_t SecondBlockAt(const Framed& f) {
  return f.prefix.size() + 4 + f.payloads[0].size();
}

TEST_F(DecoderRegressionTest, EveryBlockReaderFollowsItsTaxonomyTable) {
  using O = Outcome;
  const std::vector<TaxonomyCase> cases = {
      {"intact", [](Framed&) {},
       {O::kClean, O::kClean, O::kClean, O::kClean, O::kClean}},
      {"bad magic", [](Framed& f) { f.prefix[0] = 'X'; },
       {O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt}},
      {"bad version", [](Framed& f) { f.prefix[4] = 9; },
       {O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt}},
      {"header underflow",
       [](Framed& f) {
         f.prefix.resize(12 + 3);
         f.prefix[8] = 3;
       },
       {O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt}},
      {"torn length word",
       [](Framed& f) { f.cut = SecondBlockAt(f) + 2; },
       {O::kTruncated, O::kNoDataYet, O::kTruncated, O::kTruncated,
        O::kNoDataYet}},
      {"torn block body",
       [](Framed& f) { f.cut = SecondBlockAt(f) + 4 + 3; },
       {O::kTruncated, O::kNoDataYet, O::kTruncated, O::kTruncated,
        O::kNoDataYet}},
      {"oversized length",
       [](Framed& f) { f.lens[0] = kMaxPackedBlockLen + 1; },
       {O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt, O::kCorrupt}},
      {"LZ payload cut short inside a complete block",
       [](Framed& f) {
         f.payloads[0].pop_back();
         --f.lens[0];
       },
       {O::kTruncated, O::kCorrupt, O::kCorrupt, O::kTruncated,
        O::kCorrupt}},
      {"bytes after the marker",
       [](Framed& f) { f.after_marker = {0xDE, 0xAD, 0xBE, 0xEF, 0x00}; },
       {O::kClean, O::kClean, O::kClean, O::kClean, O::kClean}},
  };
  for (const TaxonomyCase& c : cases) {
    SCOPED_TRACE(c.name);
    Framed trace = TraceFramed();
    Framed spill = SpillFramed();
    c.mutate(trace);
    c.mutate(spill);
    const fs::path jigt = Write("case.jigt", Render(trace, /*index=*/true));
    const fs::path jigs = Write("case.jigs", Render(spill, /*index=*/false));
    const std::array<Outcome, 5> got = {
        DrainFile(jigt), DrainTail(jigt),
        DrainSocket(Render(trace, /*index=*/false)), DrainSpill(jigs, true),
        DrainSpill(jigs, false)};
    const char* readers[5] = {"file", "tail", "socket", "spill strict",
                              "spill tail"};
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r], c.expect[r])
          << readers[r] << ": got " << Name(got[r]) << ", want "
          << Name(c.expect[r]);
    }
  }
}


// ---------------------------------------------------------------------------
// Writer byte pins.
//
// Every writer of the block framing runs one short script and is pinned by
// the size and CRC32 of what it wrote plus its own counters.  The pins
// were taken from the writers as they stood before they shared one
// encoder, so a writer refactor that moves a single byte fails here.

struct WriterOutput {
  Bytes bytes;
  std::uint64_t bytes_counter = 0;  // bytes_written / bytes_sent
  std::uint64_t records = 0;        // records_written / records_sent
};

struct WriterPin {
  const char* name;
  std::function<WriterOutput(const fs::path& dir)> run;
  std::size_t size;
  std::uint32_t crc;
  std::uint64_t bytes_counter;  // kNoByteCounter for .jigt writers
  std::uint64_t records;
};

// TraceFileWriter has no byte counter.
constexpr std::uint64_t kNoByteCounter = 0;

CaptureRecord PinRecord(int i) {
  CaptureRecord rec;
  rec.timestamp = 5000 + i * 173 - (i % 3) * 40;  // not monotone
  rec.outcome = i % 5 == 0 ? RxOutcome::kFcsError : RxOutcome::kOk;
  rec.rssi_dbm = -41.25F - static_cast<float>(i);
  rec.rate = PhyRate::kB11;
  rec.orig_len = 60 + static_cast<std::uint32_t>(i);
  rec.bytes.assign(20 + i % 7, static_cast<std::uint8_t>(0x30 + i));
  return rec;
}

JFrame PinJFrame(int i) {
  JFrame jf;
  jf.timestamp = static_cast<UniversalMicros>(9000 + i * 311);
  jf.dispersion = i;
  jf.wire_len = 80 + static_cast<std::uint32_t>(i);
  jf.digest = 0xFEEDFACEull * static_cast<std::uint64_t>(i + 1);
  jf.frame.sequence = static_cast<std::uint16_t>(i);
  jf.frame.body.assign(12, static_cast<std::uint8_t>(i));
  FrameInstance inst;
  inst.radio = static_cast<RadioId>(i % 4);
  inst.local_timestamp = 7000 + i;
  inst.universal_timestamp = jf.timestamp;
  inst.rssi_dbm = -60.5F;
  jf.instances.push_back(inst);
  return jf;
}

TraceHeader PinHeader() {
  TraceHeader header;
  header.radio = 9;
  header.pod = 2;
  header.monitor = 4;
  header.channel = Channel::kCh6;
  header.ntp_utc_of_local_zero_us = 1'234'567;
  return header;
}

TEST_F(DecoderRegressionTest, EveryBlockWriterKeepsItsBytes) {
  const std::vector<WriterPin> pins = {
      {".jigt, Sync mid-block, then Finish",
       [](const fs::path& dir) {
         const fs::path path = dir / "sync.jigt";
         WriterOutput out;
         {
           TraceFileWriter w(path, PinHeader(), /*records_per_block=*/4);
           for (int i = 0; i < 6; ++i) w.Append(PinRecord(i));
           w.Sync();
           for (int i = 6; i < 9; ++i) w.Append(PinRecord(i));
           w.Finish();
           out.records = w.records_written();
         }
         out.bytes = Slurp(path);
         return out;
       },
       276, 0x127E0F2Bu, kNoByteCounter, 9},
      {".jigt, finished by its destructor",
       [](const fs::path& dir) {
         const fs::path path = dir / "dtor.jigt";
         WriterOutput out;
         {
           TraceFileWriter w(path, PinHeader());
           for (int i = 0; i < 5; ++i) w.Append(PinRecord(i));
           out.records = w.records_written();
         }
         out.bytes = Slurp(path);
         return out;
       },
       152, 0xA6F45918u, kNoByteCounter, 5},
      {"socket stream over a socketpair",
       [](const fs::path&) {
         WriterOutput out;
         int fds[2];
         if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
           ADD_FAILURE() << "socketpair failed";
           return out;
         }
         net::Socket receiver(fds[0]);
         {
           SocketTraceWriter w(net::Socket(fds[1]), PinHeader(),
                               /*source_id=*/7, /*records_per_block=*/4);
           for (int i = 0; i < 10; ++i) w.Append(PinRecord(i));
           w.Sync();
           w.Append(PinRecord(10));
           w.Finish();
           out.bytes_counter = w.bytes_sent();
           out.records = w.records_sent();
         }  // closes the sender: the reads below end at EOF
         std::uint8_t chunk[4096];
         for (ssize_t n;
              (n = ::recv(receiver.fd(), chunk, sizeof chunk, 0)) > 0;) {
           out.bytes.insert(out.bytes.end(), chunk, chunk + n);
         }
         return out;
       },
       222, 0x74CBD453u, 222, 11},
      {".jigs, Sync cut, then Finish",
       [](const fs::path& dir) {
         const fs::path path = dir / "sync.jigs";
         WriterOutput out;
         {
           SpillSegmentWriter w(path, {6, 3}, /*records_per_block=*/4);
           for (int i = 0; i < 6; ++i) w.Append(PinJFrame(i));
           w.Sync();
           for (int i = 6; i < 8; ++i) w.Append(PinJFrame(i));
           w.Finish();
           out.bytes_counter = w.bytes_written();
           out.records = w.records_written();
         }
         out.bytes = Slurp(path);
         return out;
       },
       487, 0xA456EB4Fu, 487, 8},
      {".jigs, Abandoned with records pending",
       [](const fs::path& dir) {
         const fs::path path = dir / "abandon.jigs";
         WriterOutput out;
         {
           SpillSegmentWriter w(path, {11, 0}, /*records_per_block=*/4);
           for (int i = 0; i < 6; ++i) w.Append(PinJFrame(i));
           w.Abandon();
           out.bytes_counter = w.bytes_written();
           out.records = w.records_written();
         }
         out.bytes = Slurp(path);
         return out;
       },
       237, 0xA0B682D4u, 237, 6},
  };
  for (const WriterPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const WriterOutput out = pin.run(dir_);
    EXPECT_EQ(out.bytes.size(), pin.size);
    EXPECT_EQ(Crc32(out.bytes), pin.crc);
    EXPECT_EQ(out.bytes_counter, pin.bytes_counter);
    EXPECT_EQ(out.records, pin.records);
  }
}

// /dev/full accepts the open and every buffered write, then fails the
// flush that publishes the header.  A writer must report that instead of
// constructing as if its header had landed.
TEST(WriterRegression, FailedHeaderPublishThrows) {
  const fs::path full = "/dev/full";
  if (!fs::exists(full)) GTEST_SKIP() << "no /dev/full on this system";
  EXPECT_THROW(TraceFileWriter(full, PinHeader()), std::runtime_error);
  EXPECT_THROW(SpillSegmentWriter(full, {1, 0}), std::runtime_error);
}

}  // namespace
}  // namespace jig
