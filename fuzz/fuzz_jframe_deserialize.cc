// Fuzz harness for DeserializeJFrame (src/jigsaw/spill.h).
//
// Invariant under test: for ANY input bytes, DeserializeJFrame either
// decodes a JFrame or throws std::runtime_error — the documented failure
// mode for malformed .jigs payloads (ByteReader underflow, varint overflow,
// inconsistent instance counts).  std::bad_alloc or std::length_error from
// a hostile declared count is NOT acceptable: the decoder must validate
// counts against the input before allocating.  On success the frame must
// re-serialize without throwing, and decoding those bytes again must
// consume them exactly.
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "jigsaw/spill.h"
#include "util/byte_io.h"

#include "standalone_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  jig::Bytes input(data, data + size);
  jig::ByteReader r(input);
  try {
    const jig::JFrame jf = jig::DeserializeJFrame(r);
    // Decoded OK: round-trip must hold (serialize cannot throw for a frame
    // the decoder accepted, and the re-decoded bytes must all be consumed).
    jig::Bytes out;
    jig::SerializeJFrame(jf, out);
    jig::ByteReader r2(out);
    (void)jig::DeserializeJFrame(r2);
    if (!r2.AtEnd()) __builtin_trap();
  } catch (const std::runtime_error&) {
    // Documented taxonomy — expected for malformed input.
  }
  return 0;
}
