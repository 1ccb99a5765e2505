#include "util/compression.h"

#include "util/byte_io.h"

#include <gtest/gtest.h>

#include <string>

#include "lz_reference.h"
#include "util/rng.h"

namespace jig {
namespace {

Bytes RandomBytes(std::size_t n, std::uint64_t seed, int alphabet = 256) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBelow(alphabet));
  }
  return out;
}

TEST(Compression, EmptyRoundtrip) {
  const Bytes empty;
  const auto packed = LzCompress(empty);
  EXPECT_EQ(LzDecompress(packed), empty);
}

TEST(Compression, RepetitiveDataShrinks) {
  Bytes data(10000, 0xAB);
  const auto packed = LzCompress(data);
  EXPECT_LT(packed.size(), data.size() / 10);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, CaptureLikeDataShrinks) {
  // 802.11 captures repeat headers heavily: simulate with a repeating
  // 36-byte header + varying payload bytes.
  Bytes data;
  Rng rng(5);
  for (int frame = 0; frame < 200; ++frame) {
    for (int i = 0; i < 36; ++i) data.push_back(static_cast<std::uint8_t>(i));
    for (int i = 0; i < 20; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.NextBelow(256)));
    }
  }
  const auto packed = LzCompress(data);
  EXPECT_LT(packed.size(), data.size() * 2 / 3);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, IncompressibleDataSurvives) {
  const auto data = RandomBytes(4096, 99);
  const auto packed = LzCompress(data);
  EXPECT_EQ(LzDecompress(packed), data);
  // Worst-case expansion is bounded (1 control byte per 128 literals + hdr).
  EXPECT_LT(packed.size(), data.size() + data.size() / 64 + 64);
}

TEST(Compression, OverlappingMatchRun) {
  // "abcabcabc..." forces overlapping match copies (dist < len).
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back("abc"[i % 3]);
  const auto packed = LzCompress(data);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, RejectsTruncatedHeader) {
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), std::runtime_error);
}

TEST(Compression, RejectsCorruptStream) {
  Bytes data(1000, 0x77);
  auto packed = LzCompress(data);
  // Declare a larger raw size than the stream produces.
  packed[0] ^= 0xFF;
  EXPECT_THROW(LzDecompress(packed), std::runtime_error);
}

TEST(Compression, RejectsBadDistance) {
  // Hand-craft: raw_size=4, match token with distance beyond output.
  Bytes bad = {4, 0, 0, 0, 0x80, 9, 0};
  EXPECT_THROW(LzDecompress(bad), std::runtime_error);
}

class CompressionRoundtripTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(CompressionRoundtripTest, Roundtrip) {
  const auto [size, alphabet] = GetParam();
  const auto data = RandomBytes(size, size * 131 + alphabet, alphabet);
  EXPECT_EQ(LzDecompress(LzCompress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, CompressionRoundtripTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 15, 16, 17, 100, 1000,
                                         65535, 65536, 200000),
                       ::testing::Values(2, 16, 256)));

// ---- compression levels ---------------------------------------------------

TEST(CompressionLevels, FastLevelRoundtripsEveryShape) {
  for (std::size_t size : {1u, 5u, 100u, 65536u, 200000u}) {
    for (int alphabet : {2, 16, 256}) {
      const auto data = RandomBytes(size, size * 733 + alphabet, alphabet);
      EXPECT_EQ(LzDecompress(LzCompress(data, LzLevel::kFast)), data)
          << "size " << size << " alphabet " << alphabet;
    }
  }
}

TEST(CompressionLevels, LevelsShareOneTokenFormat) {
  // Both levels feed the same decoder and reproduce the same bytes; the
  // deeper finder only ever finds better matches, never a new format.
  Bytes data;
  Rng rng(17);
  for (int frame = 0; frame < 300; ++frame) {
    for (int i = 0; i < 36; ++i) data.push_back(static_cast<std::uint8_t>(i));
    for (int i = 0; i < 24; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.NextBelow(64)));
    }
  }
  const auto fast = LzCompress(data, LzLevel::kFast);
  const auto deep = LzCompress(data, LzLevel::kDefault);
  EXPECT_EQ(LzDecompress(fast), data);
  EXPECT_EQ(LzDecompress(deep), data);
  EXPECT_LE(deep.size(), fast.size());
}

TEST(CompressionLevels, CompressionIsDeterministicPerLevel) {
  const auto data = RandomBytes(50000, 4242, 32);
  EXPECT_EQ(LzCompress(data, LzLevel::kFast),
            LzCompress(data, LzLevel::kFast));
  EXPECT_EQ(LzCompress(data, LzLevel::kDefault),
            LzCompress(data, LzLevel::kDefault));
}

TEST(CompressionLevels, DecodesLegacyGreedyFixture) {
  // Hand-assembled stream in the frozen on-disk token format (the bytes
  // the original greedy matcher emitted for "abcdabcd"): a 4-literal run
  // then a length-4 match at distance 4.  Blocks written before the
  // hash-chain finder must keep decoding forever.
  const Bytes fixture = {8,    0,   0,   0,    // raw_size = 8
                         0x03, 'a', 'b', 'c', 'd',
                         0x80, 4,   0};        // match len 4, dist 4
  const Bytes expected = {'a', 'b', 'c', 'd', 'a', 'b', 'c', 'd'};
  EXPECT_EQ(LzDecompress(fixture), expected);
}

// ---- error taxonomy -------------------------------------------------------
//
// Truncation (more bytes could repair it) and corruption (no bytes ever
// could) surface as distinct types so the trace layer can map them onto
// TraceTruncatedError / TraceCorruptError.

TEST(CompressionErrors, ShortHeaderIsTruncated) {
  EXPECT_THROW(LzDecompress(Bytes{}), LzTruncatedError);
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), LzTruncatedError);
}

TEST(CompressionErrors, CutLiteralRunIsTruncated) {
  const Bytes cut = {4, 0, 0, 0, 0x03, 'a'};  // run promises 4, holds 1
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, CutMatchTokenIsTruncated) {
  const Bytes cut = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                     0x80, 4};  // one distance byte missing
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, ShortOutputIsTruncated) {
  const Bytes cut = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd'};  // 4 of 8
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, BadDistanceIsCorrupt) {
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}), LzCorruptError);
  const Bytes zero_dist = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                           0x80, 0, 0};
  EXPECT_THROW(LzDecompress(zero_dist), LzCorruptError);
}

TEST(CompressionErrors, OverlongOutputIsCorrupt) {
  // Declared raw size 4 but the stream produces 8: garbage, not a torn
  // write — waiting for more bytes cannot fix it.
  const Bytes overlong = {4, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                          0x80, 1, 0};
  EXPECT_THROW(LzDecompress(overlong), LzCorruptError);
}

TEST(CompressionErrors, BothKindsAreLzErrorsAndRuntimeErrors) {
  // Pre-taxonomy call sites caught std::runtime_error; that must keep
  // working.
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), LzError);
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), std::runtime_error);
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}), LzError);
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}),
               std::runtime_error);
}

// ---- the chunked-copy kernel against the byte-at-a-time reference -------
//
// LzDecompress copies literals and far matches in 16-byte chunks through a
// buffer with slack; testing::LzDecompressReference is the decoder it
// replaced.  On every stream the two must produce the same bytes, or throw
// the same type with the same message.

// A decoder's verdict on one stream: its output, or what it threw.
struct Outcome {
  Bytes bytes;
  std::string error;  // "<kind>: <message>"; empty when it decoded

  bool operator==(const Outcome&) const = default;
};

template <typename Decode>
Outcome Decoded(Decode decode, const Bytes& packed) {
  try {
    return {decode(packed), ""};
  } catch (const LzTruncatedError& e) {
    return {{}, std::string("truncated: ") + e.what()};
  } catch (const LzCorruptError& e) {
    return {{}, std::string("corrupt: ") + e.what()};
  }
}

void ExpectKernelMatchesReference(const Bytes& packed) {
  const Outcome want = Decoded(testing::LzDecompressReference, packed);
  const Outcome got = Decoded(
      [](const Bytes& p) { return LzDecompress(p); }, packed);
  EXPECT_EQ(got.error, want.error);
  EXPECT_TRUE(got.bytes == want.bytes) << "output differs";
}

// Hand-assembled token streams in the fixed format.
struct TokenStream {
  Bytes packed = {0, 0, 0, 0};
  std::uint32_t raw = 0;

  void Literals(const Bytes& bytes) {
    packed.push_back(static_cast<std::uint8_t>(bytes.size() - 1));
    packed.insert(packed.end(), bytes.begin(), bytes.end());
    raw += static_cast<std::uint32_t>(bytes.size());
  }
  void Match(std::size_t len, std::size_t dist) {
    packed.push_back(static_cast<std::uint8_t>(0x80u | (len - kLzMinMatch)));
    packed.push_back(static_cast<std::uint8_t>(dist));
    packed.push_back(static_cast<std::uint8_t>(dist >> 8));
    raw += static_cast<std::uint32_t>(len);
  }
  // Stamps the declared raw size: what the tokens produce.
  const Bytes& Done() {
    for (int i = 0; i < 4; ++i) {
      packed[i] = static_cast<std::uint8_t>(raw >> (8 * i));
    }
    return packed;
  }
};

TEST(LzKernel, EveryShortDistanceAndLengthMatchesTheReference) {
  const Bytes prefix = RandomBytes(20, 7);
  for (std::size_t dist = 1; dist <= 20; ++dist) {
    for (std::size_t len = kLzMinMatch; len <= kLzMaxMatch; ++len) {
      TokenStream s;
      s.Literals(prefix);
      s.Match(len, dist);
      // A literal and a second match after it: both land on bytes the
      // first match's chunked copy may have over-written.
      s.Literals({0xA5, 0x5A, 0x3C});
      s.Match(kLzMinMatch + 1, dist);
      const Bytes& packed = s.Done();
      ExpectKernelMatchesReference(packed);
      EXPECT_EQ(LzDecompress(packed).size(), s.raw)
          << "dist " << dist << " len " << len;
    }
  }
}

TEST(LzKernel, LiteralRunsEndingOnTheLastInputByteMatchTheReference) {
  // The run's own bytes end the stream, so a 16-byte copy of a short run
  // would read past the input; the kernel must copy its exact length.
  // Preceding runs of every short length put the final run at each
  // distance from the end.
  const Bytes pool = RandomBytes(256, 11);
  for (std::size_t last = 1; last <= 0x80; ++last) {
    for (std::size_t before = 0; before <= 20; ++before) {
      TokenStream s;
      if (before > 0) s.Literals(Bytes(pool.begin(), pool.begin() + before));
      s.Literals(Bytes(pool.begin() + 100, pool.begin() + 100 + last));
      const Bytes& packed = s.Done();
      ExpectKernelMatchesReference(packed);
      const Bytes out = LzDecompress(packed);
      ASSERT_EQ(out.size(), before + last);
      EXPECT_TRUE(std::equal(out.end() - static_cast<std::ptrdiff_t>(last),
                             out.end(), pool.begin() + 100));
    }
  }
}

TEST(LzKernel, OutputPastThePresizeGrowsTheBuffer) {
  // The buffer starts at 1 MiB; a 3 MiB block must grow it as output
  // arrives, far matches and literals alike.
  const std::size_t size = (3u << 20) + 12345;
  for (const int alphabet : {4, 256}) {
    const Bytes data = RandomBytes(size, 21 + alphabet, alphabet);
    for (const LzLevel level : {LzLevel::kFast, LzLevel::kDefault}) {
      const Bytes packed = LzCompress(data, level);
      const Bytes out = LzDecompress(packed);
      EXPECT_TRUE(out == data) << "alphabet " << alphabet;
      EXPECT_TRUE(out == testing::LzDecompressReference(packed));
    }
  }
}

TEST(LzKernel, RandomRoundTripsAtBothLevelsMatchTheReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t size = rng.NextBelow(5000);
    const int alphabet = static_cast<int>(1 + rng.NextBelow(256));
    const Bytes data = RandomBytes(size, 1000 + trial, alphabet);
    for (const LzLevel level : {LzLevel::kFast, LzLevel::kDefault}) {
      const Bytes packed = LzCompress(data, level);
      EXPECT_TRUE(LzDecompress(packed) == data)
          << "trial " << trial << " size " << size;
      ExpectKernelMatchesReference(packed);
    }
  }
}

TEST(LzKernel, DamagedStreamsFailLikeTheReference) {
  // Flipped, cut and re-sized streams: every error is the same type with
  // the same message, and whatever still decodes decodes the same.
  Rng rng(99);
  const Bytes data = RandomBytes(3000, 5, 8);
  const Bytes packed = LzCompress(data);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes damaged = packed;
    switch (trial % 3) {
      case 0:
        damaged[rng.NextBelow(damaged.size())] ^=
            static_cast<std::uint8_t>(1 + rng.NextBelow(255));
        break;
      case 1:
        damaged.resize(rng.NextBelow(damaged.size()));
        break;
      default:
        damaged[rng.NextBelow(4)] =
            static_cast<std::uint8_t>(rng.NextBelow(256));
        break;
    }
    ExpectKernelMatchesReference(damaged);
  }
}

}  // namespace
}  // namespace jig
