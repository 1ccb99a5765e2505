// Fuzz harness for the .jigt trace reader (src/trace/trace_file.h).
//
// Invariant under test: for ANY file contents, TraceFileReader either
// iterates to end-of-trace or throws exactly the documented taxonomy
// (TraceError: TraceTruncatedError / TraceCorruptError).  A crash, hang,
// descriptor leak (ASan reports leaked stdio buffers at exit), OOM from
// hostile index counts, or any other exception type is a bug.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "trace/trace_file.h"

#include "standalone_driver.h"

namespace {

// One scratch file per process, rewritten per input and removed after it.
const std::filesystem::path& ScratchPath() {
  static const std::filesystem::path path = [] {
    auto p = std::filesystem::temp_directory_path() /
             ("jig_fuzz_trace_" + std::to_string(::getpid()) + ".jigt");
    return p;
  }();
  return path;
}

void Drive(const std::filesystem::path& path) {
  try {
    jig::TraceFileReader reader(path);
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
  Drive(path);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return 0;
}
