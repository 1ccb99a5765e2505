// Fuzz harness for the .jigs segment reader (src/jigsaw/spill.h).
//
// Invariant under test: for ANY file contents, SpillSegmentReader either
// replays to end-of-segment or throws exactly the documented taxonomy
// (TraceError subtypes).  Both modes are driven: strict (batch replay — a
// torn structure is TraceTruncatedError) and tail (live replay — a torn
// frontier is "no data yet", so Next() returning nullopt is the expected
// outcome and must not spin or throw raw errors).
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "jigsaw/spill.h"

#include "standalone_driver.h"

namespace {

const std::filesystem::path& ScratchPath() {
  static const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("jig_fuzz_spill_" + std::to_string(::getpid()) + ".jigs");
  return path;
}

void Drive(const std::filesystem::path& path, bool strict) {
  try {
    jig::SpillSegmentReader reader(path, strict);
    // Tail mode parks at the frontier (Next() -> nullopt) instead of
    // throwing on truncation, so a plain drain terminates in both modes.
    while (reader.Next()) {
    }
  } catch (const jig::TraceError&) {
    // Documented taxonomy — expected for malformed input.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto& path = ScratchPath();
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  }
  Drive(path, /*strict=*/true);
  Drive(path, /*strict=*/false);
  std::error_code ec;  // the next input rewrites it; leave nothing behind
  std::filesystem::remove(path, ec);
  return 0;
}
