// Fuzz harness for the LZ block decoder (src/util/compression.h).
//
// Invariant under test: for ANY input bytes, LzDecompress either returns a
// decoded buffer or throws exactly the documented taxonomy (LzError:
// LzTruncatedError / LzCorruptError).  Anything else — a crash, a hang, an
// OOM from a hostile declared size, or a different exception type — is a
// bug.  The chunked-copy kernel must also agree with the byte-at-a-time
// reference decoder (tests/lz_reference.h): equal bytes where the input
// decodes, the same LzError subtype where it throws.  On success, a
// compress→decompress round trip of the decoded bytes must reproduce them
// exactly.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lz_reference.h"
#include "util/compression.h"

#include "standalone_driver.h"

namespace {

enum class Verdict { kDecoded, kTruncated, kCorrupt };

// What a decoder made of the input, with its output when it decoded.
template <typename Decode>
Verdict Run(Decode decode, std::span<const std::uint8_t> packed,
            std::optional<std::vector<std::uint8_t>>& out) {
  try {
    out = decode(packed);
    return Verdict::kDecoded;
  } catch (const jig::LzTruncatedError&) {
    return Verdict::kTruncated;
  } catch (const jig::LzCorruptError&) {
    return Verdict::kCorrupt;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> packed(data, size);
  std::optional<std::vector<std::uint8_t>> raw;
  std::optional<std::vector<std::uint8_t>> want;
  const Verdict got = Run(
      [](std::span<const std::uint8_t> p) { return jig::LzDecompress(p); },
      packed, raw);
  const Verdict expected =
      Run(jig::testing::LzDecompressReference, packed, want);
  if (got != expected || raw != want) __builtin_trap();
  if (got == Verdict::kDecoded) {
    // Decoded OK: the codec must round-trip its own output.
    const auto again = jig::LzDecompress(jig::LzCompress(*raw));
    if (again != *raw) __builtin_trap();
  }
  return 0;
}
