// Shared stdio write primitives for the on-disk formats (.jigt traces and
// .jigs spill segments — docs/FORMATS.md): little-endian length words and
// raw bytes into a stdio stream, a short write surfacing as
// std::runtime_error.  `what` names the format for error messages ("trace
// file", "spill segment").  Reading goes through trace/block_codec.h.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace jig::framed_io {

inline void WriteAll(std::FILE* f, const void* data, std::size_t n,
                     const char* what) {
  if (std::fwrite(data, 1, n, f) != n) {
    throw std::runtime_error(std::string(what) + ": short write");
  }
}

inline void WriteU32(std::FILE* f, std::uint32_t v, const char* what) {
  std::uint8_t buf[4] = {static_cast<std::uint8_t>(v),
                         static_cast<std::uint8_t>(v >> 8),
                         static_cast<std::uint8_t>(v >> 16),
                         static_cast<std::uint8_t>(v >> 24)};
  WriteAll(f, buf, 4, what);
}

inline void WriteU64(std::FILE* f, std::uint64_t v, const char* what) {
  WriteU32(f, static_cast<std::uint32_t>(v), what);
  WriteU32(f, static_cast<std::uint32_t>(v >> 32), what);
}

}  // namespace jig::framed_io
