// Fuzz harness for the .jigc checkpoint loader (src/jigsaw/service.h).
//
// Invariant under test: for ANY file contents, LoadCheckpoint either
// returns a checkpoint or throws the documented taxonomy (TraceError
// subtypes) — no other exception, no crash, no allocation sized by an
// untrusted count.  A random mutation almost never keeps the trailing
// CRC32 valid, so each input is loaded twice: verbatim (the size and CRC
// checks), and with a correct CRC32 appended (the structure parser behind
// them).  The seeds are checkpoint bodies without their CRC, so the second
// load of an unmutated seed is a valid checkpoint.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "jigsaw/service.h"
#include "util/crc32.h"

#include "standalone_driver.h"

namespace {

const std::filesystem::path& ScratchPath() {
  static const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("jig_fuzz_checkpoint_" + std::to_string(::getpid()) + ".jigc");
  return path;
}

void Load(const std::uint8_t* data, std::size_t size, bool append_crc) {
  const auto& path = ScratchPath();
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
    if (append_crc) {
      const std::uint32_t crc = jig::Crc32({data, size});
      const char le[4] = {static_cast<char>(crc), static_cast<char>(crc >> 8),
                          static_cast<char>(crc >> 16),
                          static_cast<char>(crc >> 24)};
      f.write(le, sizeof le);
    }
  }
  try {
    jig::LoadCheckpoint(path);
  } catch (const jig::TraceError&) {
    // Documented taxonomy — expected for malformed input.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Load(data, size, /*append_crc=*/false);
  Load(data, size, /*append_crc=*/true);
  std::error_code ec;  // the next input rewrites it; leave nothing behind
  std::filesystem::remove(ScratchPath(), ec);
  return 0;
}
