// .jigs segment pins (src/jigsaw/spill.{h,cc}): the format the monitoring
// service's durable output log is written in.
//
// Two contracts:
//   1. Losslessness: SerializeJFrame round-trips every jframe field
//      bit-exactly, in one block and across block boundaries.
//   2. Recovery: a truncated or corrupt trailing segment surfaces
//      TraceTruncatedError / TraceCorruptError exactly like .jigt files —
//      a crash mid-write is detected, never silently read as a clean end.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "jframe_equality.h"
#include "jigsaw/spill.h"

namespace jig {
namespace {

namespace fs = std::filesystem;
using testing::ExpectIdenticalStreams;

JFrame SampleJFrame(int salt) {
  JFrame jf;
  jf.timestamp = 1'000'000 + salt;
  jf.dispersion = 7 + salt;
  jf.channel = Channel::kCh6;
  jf.rate = PhyRate::kG54;
  jf.wire_len = 142;
  jf.digest = 0xDEADBEEFCAFEF00Dull + static_cast<std::uint64_t>(salt);
  jf.frame = MakeData(MacAddress::Client(3), MacAddress::Ap(1),
                      MacAddress::Ap(1), static_cast<std::uint16_t>(salt),
                      Bytes{9, 8, 7, 6, 5}, PhyRate::kG54,
                      /*from_ds=*/true, /*to_ds=*/false);
  jf.frame.retry = (salt % 2) != 0;
  for (int i = 0; i < 3; ++i) {
    FrameInstance inst;
    inst.radio = static_cast<RadioId>(10 + i);
    inst.local_timestamp = 900'000 + salt + i;
    inst.universal_timestamp = jf.timestamp + i;
    inst.rssi_dbm = -61.25F - static_cast<float>(i);
    inst.outcome = i == 2 ? RxOutcome::kFcsError : RxOutcome::kOk;
    jf.instances.push_back(inst);
  }
  return jf;
}

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("spill_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Serialization + segment format.

TEST_F(SpillTest, JFrameRoundtripIsLossless) {
  const JFrame original = SampleJFrame(17);
  Bytes buf;
  SerializeJFrame(original, buf);
  ByteReader r(buf);
  const JFrame back = DeserializeJFrame(r);
  EXPECT_TRUE(r.AtEnd());
  ExpectIdenticalStreams({original}, {back});
  // The comparator skips the decoded frame's non-wire fields; check the
  // remainder explicitly so the segment encoding can never shave a field.
  EXPECT_EQ(back.frame.rate, original.frame.rate);
  EXPECT_EQ(back.frame.retry, original.frame.retry);
  EXPECT_EQ(back.frame.from_ds, original.frame.from_ds);
  EXPECT_EQ(back.frame.to_ds, original.frame.to_ds);
  EXPECT_EQ(back.frame.duration_us, original.frame.duration_us);
}

TEST_F(SpillTest, SegmentRoundtripAcrossBlocks) {
  const auto path = dir_ / "ch6-0.jigs";
  SpillSegmentHeader header;
  header.channel = 6;
  header.sequence = 4;
  {
    SpillSegmentWriter writer(path, header, /*records_per_block=*/8);
    for (int i = 0; i < 50; ++i) writer.Append(SampleJFrame(i));
    writer.Finish();
  }
  SpillSegmentReader reader(path);
  EXPECT_EQ(reader.header().channel, 6);
  EXPECT_EQ(reader.header().sequence, 4u);
  std::vector<JFrame> got;
  while (auto jf = reader.Next()) got.push_back(std::move(*jf));
  EXPECT_TRUE(reader.finalized());
  ASSERT_EQ(got.size(), 50u);
  EXPECT_GE(reader.blocks_read(), 6u);  // really crossed block boundaries
  for (int i = 0; i < 50; ++i) {
    SCOPED_TRACE(i);
    ExpectIdenticalStreams({SampleJFrame(i)}, {got[static_cast<size_t>(i)]});
  }
}

// Fail-on-pre-fix style, mirroring trace_file_test.cc: each corruption
// class must surface its own error, and truncation must never be read as
// clean end-of-segment.

TEST_F(SpillTest, TruncatedTrailingSegmentReportsTruncationNotEof) {
  const auto path = dir_ / "ch1-0.jigs";
  {
    SpillSegmentWriter writer(path, {}, /*records_per_block=*/8);
    for (int i = 0; i < 20; ++i) writer.Append(SampleJFrame(i));
    writer.Finish();
  }
  const auto full = fs::file_size(path);
  // Cut exactly at a structure boundary (drop only the finalize marker):
  // truncation — the writer died between blocks.
  fs::resize_file(path, full - 4);
  {
    SpillSegmentReader reader(path);
    std::size_t n = 0;
    EXPECT_THROW(
        {
          while (reader.Next()) ++n;
        },
        TraceTruncatedError);
    EXPECT_GT(n, 0u);  // the complete blocks still read
  }
  // Cut mid-way through the trailing block: still a crash mid-write.
  fs::resize_file(path, full - 9);
  {
    SpillSegmentReader reader(path);
    EXPECT_THROW(
        {
          while (reader.Next()) {
          }
        },
        TraceTruncatedError);
  }
}

TEST_F(SpillTest, CorruptSegmentReportsCorruptionNotTruncation) {
  // Bad magic.
  const auto bad_magic = dir_ / "bad-magic.jigs";
  std::FILE* f = std::fopen(bad_magic.string().c_str(), "wb");
  std::fwrite("NOTASPILLSEGMENT", 1, 16, f);
  std::fclose(f);
  EXPECT_THROW(SpillSegmentReader{bad_magic}, TraceCorruptError);

  // Garbage block length after a valid prefix (the writer's destructor
  // finalizes, so drop the terminator before appending the junk word).
  const auto garbage = dir_ / "garbage-len.jigs";
  {
    SpillSegmentWriter writer(garbage, {}, /*records_per_block=*/4);
    for (int i = 0; i < 4; ++i) writer.Append(SampleJFrame(i));
    writer.Sync();
  }
  fs::resize_file(garbage, fs::file_size(garbage) - 4);
  f = std::fopen(garbage.string().c_str(), "ab");
  const std::uint8_t junk[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  std::fwrite(junk, 1, 4, f);
  std::fclose(f);
  {
    SpillSegmentReader reader(garbage);
    std::size_t n = 0;
    EXPECT_THROW(
        {
          while (reader.Next()) ++n;
        },
        TraceCorruptError);
    EXPECT_EQ(n, 4u);
  }

  // Unsupported version.
  const auto bad_version = dir_ / "bad-version.jigs";
  f = std::fopen(bad_version.string().c_str(), "wb");
  std::fwrite(kSpillMagic, 1, 4, f);
  const std::uint8_t v99[4] = {99, 0, 0, 0};
  std::fwrite(v99, 1, 4, f);
  std::fclose(f);
  EXPECT_THROW(SpillSegmentReader{bad_version}, TraceCorruptError);
}

}  // namespace
}  // namespace jig
