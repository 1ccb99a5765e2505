#include "trace/trace_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <utility>
#include <vector>

#include "trace/tail_trace.h"
#include "trace/trace_set.h"
#include "util/rng.h"

namespace jig {
namespace {

namespace fs = std::filesystem;

class TraceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("jigt_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static TraceHeader Header(RadioId radio = 3) {
    TraceHeader h;
    h.radio = radio;
    h.pod = 1;
    h.monitor = 2;
    h.channel = Channel::kCh6;
    h.ntp_utc_of_local_zero_us = 123456789;
    return h;
  }

  static std::vector<CaptureRecord> MakeRecords(std::size_t n,
                                                std::uint64_t seed = 5) {
    Rng rng(seed);
    std::vector<CaptureRecord> records;
    LocalMicros ts = 1000;
    for (std::size_t i = 0; i < n; ++i) {
      CaptureRecord rec;
      ts += rng.NextInt(1, 2000);
      rec.timestamp = ts;
      rec.outcome = i % 7 == 0 ? RxOutcome::kFcsError
                    : i % 11 == 0 ? RxOutcome::kPhyError
                                  : RxOutcome::kOk;
      rec.rssi_dbm = static_cast<float>(-40 - rng.NextInt(0, 50));
      rec.rate = static_cast<PhyRate>(rng.NextBelow(12));
      if (rec.outcome != RxOutcome::kPhyError) {
        rec.bytes.resize(14 + rng.NextBelow(200));
        for (auto& b : rec.bytes) {
          b = static_cast<std::uint8_t>(rng.NextBelow(256));
        }
        rec.orig_len = static_cast<std::uint32_t>(rec.bytes.size());
      }
      records.push_back(std::move(rec));
    }
    return records;
  }

  fs::path dir_;
};

TEST_F(TraceFileTest, RoundtripPreservesRecords) {
  const auto path = dir_ / "r3.jigt";
  const auto records = MakeRecords(1500);
  {
    TraceFileWriter writer(path, Header(), /*records_per_block=*/128);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
    EXPECT_EQ(writer.records_written(), records.size());
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.header().radio, 3);
  EXPECT_EQ(reader.header().channel, Channel::kCh6);
  EXPECT_EQ(reader.header().ntp_utc_of_local_zero_us, 123456789);
  EXPECT_EQ(reader.TotalRecords(), records.size());
  for (const auto& expected : records) {
    const auto got = reader.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->timestamp, expected.timestamp);
    EXPECT_EQ(got->outcome, expected.outcome);
    EXPECT_EQ(got->rate, expected.rate);
    EXPECT_EQ(got->orig_len, expected.orig_len);
    EXPECT_EQ(got->bytes, expected.bytes);
    EXPECT_NEAR(got->rssi_dbm, expected.rssi_dbm, 0.25F);
  }
  EXPECT_FALSE(reader.Next().has_value());
}

TEST_F(TraceFileTest, EmptyTrace) {
  const auto path = dir_ / "empty.jigt";
  {
    TraceFileWriter writer(path, Header());
    writer.Finish();
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.TotalRecords(), 0u);
  EXPECT_FALSE(reader.Next().has_value());
}

TEST_F(TraceFileTest, IndexCoversAllBlocks) {
  const auto path = dir_ / "r.jigt";
  const auto records = MakeRecords(1000);
  {
    TraceFileWriter writer(path, Header(), 100);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.index().size(), 10u);
  std::uint64_t total = 0;
  for (const auto& e : reader.index()) {
    EXPECT_LE(e.first_timestamp, e.last_timestamp);
    total += e.record_count;
  }
  EXPECT_EQ(total, 1000u);
}

TEST_F(TraceFileTest, SeekToTimestamp) {
  const auto path = dir_ / "r.jigt";
  const auto records = MakeRecords(800);
  {
    TraceFileWriter writer(path, Header(), 64);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
  }
  TraceFileReader reader(path);
  const LocalMicros target = records[400].timestamp;
  reader.SeekToTimestamp(target);
  const auto got = reader.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, target);
  // Seek past the end yields nothing.
  reader.SeekToTimestamp(records.back().timestamp + 1);
  EXPECT_FALSE(reader.Next().has_value());
  // Rewind restarts from the first record.
  reader.Rewind();
  EXPECT_EQ(reader.Next()->timestamp, records.front().timestamp);
}

TEST_F(TraceFileTest, CompressionShrinksCaptures) {
  // Realistic captures (repeated headers) must compress.
  const auto path = dir_ / "r.jigt";
  std::vector<CaptureRecord> records;
  for (int i = 0; i < 2000; ++i) {
    CaptureRecord rec;
    rec.timestamp = 1000 + i * 400;
    rec.outcome = RxOutcome::kOk;
    rec.rate = PhyRate::kB2;
    rec.bytes.assign(80, 0xAA);
    rec.bytes[30] = static_cast<std::uint8_t>(i);
    rec.orig_len = 80;
    records.push_back(rec);
  }
  {
    TraceFileWriter writer(path, Header(), 256);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
  }
  const auto file_size = fs::file_size(path);
  const std::size_t raw_size = 2000 * (80 + 16);
  EXPECT_LT(file_size, raw_size / 4);
}

TEST_F(TraceFileTest, UnfinishedFileRejected) {
  const auto path = dir_ / "bad.jigt";
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    std::fwrite("JIGT\x01\x00\x00\x00", 1, 8, f);
    std::fclose(f);
  }
  EXPECT_THROW(TraceFileReader reader(path), std::runtime_error);
}

// The error-taxonomy regression pins (fail on the pre-fix reader, which
// threw one undifferentiated runtime_error for all of these):

// A partial write — the file ends mid-structure — must be reported as
// truncation, distinctly from corruption: the caller's remedy is to wait
// for the writer (or tail-follow), not to discard the trace.
TEST_F(TraceFileTest, TruncatedFileReportsTruncationNotCorruption) {
  const auto path = dir_ / "cut.jigt";
  const auto records = MakeRecords(400);
  {
    TraceFileWriter writer(path, Header(), 64);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
  }
  // Cut into the index trailer: an in-progress (or torn) finalize.
  fs::resize_file(path, fs::file_size(path) - 5);
  EXPECT_THROW(TraceFileReader reader(path), TraceTruncatedError);

  // Magic-only stub (a writer that died right after open): also truncated.
  const auto stub = dir_ / "stub.jigt";
  std::FILE* f = std::fopen(stub.string().c_str(), "wb");
  std::fwrite("JIGT\x01\x00\x00\x00", 1, 8, f);
  std::fclose(f);
  EXPECT_THROW(TraceFileReader reader(stub), TraceTruncatedError);

  // Garbage magic is corruption — expressly NOT the truncated class.
  const auto junk = dir_ / "junk.jigt";
  f = std::fopen(junk.string().c_str(), "wb");
  std::fwrite("PCAPPCAPPCAPPCAP", 1, 16, f);
  std::fclose(f);
  try {
    TraceFileReader reader(junk);
    FAIL() << "corrupt magic accepted";
  } catch (const TraceTruncatedError&) {
    FAIL() << "corrupt magic misreported as truncation";
  } catch (const TraceCorruptError&) {
    // correct
  }
}

// A truncated *trailing record*: the index promises a block the data
// region does not fully contain.  Every earlier record must still read
// cleanly (distinct from EOF), and the failure must be the truncated
// class (distinct from corruption).
TEST_F(TraceFileTest, TruncatedTrailingRecordDistinctFromEofAndCorruption) {
  const auto path = dir_ / "torn.jigt";
  const auto records = MakeRecords(640);
  {
    TraceFileWriter writer(path, Header(), 64);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
  }
  std::uint64_t last_block_offset = 0;
  std::uint32_t last_block_records = 0;
  {
    TraceFileReader reader(path);
    ASSERT_EQ(reader.index().size(), 10u);
    last_block_offset = reader.index().back().file_offset;
    last_block_records = reader.index().back().record_count;
  }
  // Overstate the last block's length: plausible (under the sanity bound)
  // but beyond what the file holds — exactly what a torn tail write looks
  // like to a reader with an intact index.
  {
    std::FILE* f = std::fopen(path.string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(last_block_offset), SEEK_SET),
              0);
    const std::uint8_t big_len[4] = {0x00, 0x00, 0x10, 0x00};  // 1 MiB
    std::fwrite(big_len, 1, 4, f);
    std::fclose(f);
  }
  TraceFileReader reader(path);
  const std::size_t intact = records.size() - last_block_records;
  for (std::size_t i = 0; i < intact; ++i) {
    const auto got = reader.Next();  // everything before the tear is fine
    ASSERT_TRUE(got.has_value()) << "record " << i;
    EXPECT_EQ(got->timestamp, records[i].timestamp);
  }
  try {
    reader.Next();
    FAIL() << "torn trailing block read as data or EOF";
  } catch (const TraceCorruptError&) {
    FAIL() << "torn trailing block misreported as corruption";
  } catch (const TraceTruncatedError&) {
    // correct: distinctly truncated — not EOF, not corruption
  }
}

// Garbage inside an indexed block (absurd length word, malformed
// compression) is the corrupt class: re-reading cannot help.
TEST_F(TraceFileTest, GarbageBlockContentsReportCorruption) {
  const auto path = dir_ / "garbage.jigt";
  const auto records = MakeRecords(128);
  {
    TraceFileWriter writer(path, Header(), 64);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
  }
  std::uint64_t block0_offset = 0;
  {
    TraceFileReader reader(path);
    block0_offset = reader.index().front().file_offset;
  }
  {
    std::FILE* f = std::fopen(path.string().c_str(), "r+b");
    ASSERT_EQ(std::fseek(f, static_cast<long>(block0_offset), SEEK_SET), 0);
    const std::uint8_t garbage_len[4] = {0xFF, 0xFF, 0xFF, 0x7F};
    std::fwrite(garbage_len, 1, 4, f);
    std::fclose(f);
  }
  TraceFileReader reader(path);
  EXPECT_THROW(reader.Next(), TraceCorruptError);
}

// Regression: the pre-fix tail reader reset finalized_ = false in
// Rewind(), so a consumer that saw Finalized() == true, rewound for the
// global late-bootstrap pass, and drained the replay would observe the
// trace flap back to "still capturing" — and a socket/wing consumer that
// tears down its re-poll loop on the first true would hang forever.
// Finalize must latch across Rewind(), and the replay must still yield
// every record.
TEST_F(TraceFileTest, TailFinalizeLatchesAcrossRewind) {
  const auto path = dir_ / "latch.jigt";
  const auto records = MakeRecords(300);
  {
    TraceFileWriter writer(path, Header(), /*records_per_block=*/64);
    for (const auto& rec : records) writer.Append(rec);
    writer.Finish();
  }
  auto tail = TailFileTrace::TryOpen(path);
  ASSERT_NE(tail, nullptr);
  std::size_t n = 0;
  while (tail->Next().has_value()) ++n;
  ASSERT_EQ(n, records.size());
  ASSERT_TRUE(tail->Finalized());

  tail->Rewind();
  // The latch: Finalized() must NOT flap back to false after Rewind.
  EXPECT_TRUE(tail->Finalized());

  // And the rewind must still replay the full capture, stopping cleanly
  // at the (already consumed) finalize marker.
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto got = tail->Next();
    ASSERT_TRUE(got.has_value()) << "record " << i << " lost after rewind";
    EXPECT_EQ(got->timestamp, records[i].timestamp);
    EXPECT_EQ(got->bytes, records[i].bytes);
  }
  EXPECT_FALSE(tail->Next().has_value());
  EXPECT_TRUE(tail->Finalized());
}

// The relay form of each stream (RecordStream::NextUnit).  File and tail
// readers hand over the blocks the writer cut, as stored, with their
// record counts; the tail keeps its no-data-yet / finalized states.  A
// stream that stores no blocks re-encodes the block a writer would cut.
TEST_F(TraceFileTest, StreamsHandOverTheUnitsTheWriterCut) {
  const auto path = dir_ / "units.jigt";
  const auto records = MakeRecords(100);
  const auto units_of = [](RecordStream& s) {
    std::vector<std::pair<Bytes, std::uint32_t>> units;
    Bytes scratch;
    while (const auto unit = s.NextUnit(1000, scratch)) {
      units.emplace_back(Bytes(unit->payload.begin(), unit->payload.end()),
                         unit->records);
    }
    return units;
  };
  TraceFileWriter writer(path, Header(), /*records_per_block=*/32);
  for (std::size_t i = 0; i < 10; ++i) writer.Append(records[i]);
  writer.Sync();
  for (std::size_t i = 10; i < 50; ++i) writer.Append(records[i]);
  writer.Sync();  // blocks of 10, 32 and 8 published; nothing pending
  auto tail = TailFileTrace::TryOpen(path);
  ASSERT_NE(tail, nullptr);
  auto tailed = units_of(*tail);
  EXPECT_EQ(tailed.size(), 3u);
  EXPECT_FALSE(tail->Finalized());
  for (std::size_t i = 50; i < records.size(); ++i) writer.Append(records[i]);
  writer.Finish();  // blocks of 32 and 18, then the marker
  for (auto& unit : units_of(*tail)) tailed.push_back(std::move(unit));
  EXPECT_TRUE(tail->Finalized());

  FileTrace file(path);
  const auto stored = units_of(file);
  ASSERT_EQ(stored, tailed);
  std::vector<std::uint32_t> counts;
  std::size_t next = 0;
  for (const auto& [payload, n] : stored) {
    counts.push_back(n);
    block_codec::DecodeRecords(
        payload, block_codec::TornPayload::kCorrupt, "units",
        [&](CaptureRecord&& rec) {
          ASSERT_LT(next, records.size());
          EXPECT_EQ(rec.timestamp, records[next].timestamp);
          EXPECT_EQ(rec.bytes, records[next].bytes);
          ++next;
        });
  }
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{10, 32, 8, 32, 18}));
  EXPECT_EQ(next, records.size());

  // Re-encoded from memory, ten records make the writer's first block.
  MemoryTrace memory(Header(), records);
  Bytes scratch;
  const auto first = memory.NextUnit(10, scratch);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->records, 10u);
  EXPECT_EQ(Bytes(first->payload.begin(), first->payload.end()),
            stored.front().first);
}

TEST_F(TraceFileTest, MissingFileRejected) {
  EXPECT_THROW(TraceFileReader reader(dir_ / "nope.jigt"),
               std::runtime_error);
}

TEST_F(TraceFileTest, TraceSetDirectoryRoundtrip) {
  TraceSet set;
  for (RadioId r = 0; r < 5; ++r) {
    auto header = Header(r);
    set.Add(std::make_unique<MemoryTrace>(header, MakeRecords(100, r)));
  }
  const auto paths = set.WriteDirectory(dir_ / "traces");
  EXPECT_EQ(paths.size(), 5u);

  TraceSet loaded = TraceSet::OpenDirectory(dir_ / "traces");
  ASSERT_EQ(loaded.size(), 5u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.at(i).header().radio, static_cast<RadioId>(i));
    // Contents must match the in-memory source.
    set.at(i).Rewind();
    std::size_t count = 0;
    while (auto expected = set.at(i).Next()) {
      const auto got = loaded.at(i).Next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->timestamp, expected->timestamp);
      EXPECT_EQ(got->bytes, expected->bytes);
      ++count;
    }
    EXPECT_FALSE(loaded.at(i).Next().has_value());
    EXPECT_EQ(count, 100u);
  }
}

}  // namespace
}  // namespace jig
