// The byte-at-a-time LZ decoder LzDecompress replaced, kept as the
// reference the chunked-copy kernel is checked against
// (tests/compression_test.cc, fuzz/fuzz_lz_decode.cc).  Every check runs in
// the same order and throws the same type with the same message as the
// kernel's, so the two agree on bytes and on errors for every input.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/compression.h"

namespace jig::testing {

inline std::vector<std::uint8_t> LzDecompressReference(
    std::span<const std::uint8_t> packed) {
  if (packed.size() < 4) {
    throw LzTruncatedError("LzDecompress: short header");
  }
  const std::uint32_t raw_size = static_cast<std::uint32_t>(packed[0]) |
                                 (static_cast<std::uint32_t>(packed[1]) << 8) |
                                 (static_cast<std::uint32_t>(packed[2]) << 16) |
                                 (static_cast<std::uint32_t>(packed[3]) << 24);
  if (raw_size > (packed.size() - 4) * kLzMaxMatch) {
    throw LzCorruptError("LzDecompress: declared raw size unreachable");
  }
  constexpr std::size_t kReserveCap = 1u << 20;
  std::vector<std::uint8_t> out;
  out.reserve(std::min<std::size_t>(raw_size, kReserveCap));
  std::size_t pos = 4;
  const std::size_t n = packed.size();
  while (pos < n) {
    const std::uint8_t control = packed[pos++];
    if (control < 0x80) {
      const std::size_t run = static_cast<std::size_t>(control) + 1;
      if (pos + run > n) {
        throw LzTruncatedError("LzDecompress: literal run truncated");
      }
      if (out.size() + run > raw_size) {
        throw LzCorruptError("LzDecompress: output exceeds declared raw size");
      }
      out.insert(out.end(), packed.begin() + pos, packed.begin() + pos + run);
      pos += run;
    } else {
      const std::size_t len = (control & 0x7Fu) + kLzMinMatch;
      if (pos + 2 > n) {
        throw LzTruncatedError("LzDecompress: match token truncated");
      }
      const std::size_t dist = static_cast<std::size_t>(packed[pos]) |
                               (static_cast<std::size_t>(packed[pos + 1]) << 8);
      pos += 2;
      if (dist == 0 || dist > out.size()) {
        throw LzCorruptError("LzDecompress: bad match distance");
      }
      if (out.size() + len > raw_size) {
        throw LzCorruptError("LzDecompress: output exceeds declared raw size");
      }
      // Overlapping matches (dist < len) are legal and encode runs, so
      // each byte is read after the one before it is written.
      const std::size_t src = out.size() - dist;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    }
  }
  if (out.size() != raw_size) {
    throw LzTruncatedError(
        "LzDecompress: stream ends before declared raw size");
  }
  return out;
}

}  // namespace jig::testing
