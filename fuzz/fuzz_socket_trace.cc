// Fuzz harness for the socket trace reader (src/trace/socket_trace.h).
//
// Invariant under test: for ANY bytes a peer sends — hello, .jigt prefix,
// framed blocks, or garbage — SocketTrace::Open plus a drain either reaches
// the finalize marker or throws exactly the documented taxonomy
// (TraceError: TraceTruncatedError / TraceCorruptError).  The input is
// written into one end of a socketpair whose write side is then closed, so
// the reader sees the whole input followed by EOF: the drain always ends,
// and a stream cut before its marker must surface as truncation, never as
// a hang.  A crash, hang, leak or any other exception type is a bug.
#include <sys/socket.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "trace/net.h"
#include "trace/socket_trace.h"

#include "standalone_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Inputs past this would block the single-threaded send on the
  // socketpair's buffer before the reader drains it.
  constexpr std::size_t kMaxInput = 64 * 1024;
  size = std::min(size, kMaxInput);
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) std::abort();
  jig::net::Socket receiver(fds[0]);
  {
    jig::net::Socket sender(fds[1]);
    if (size > 0) jig::net::SendAll(sender, data, size);
  }
  try {
    auto trace = jig::SocketTrace::Open(std::move(receiver),
                                        /*header_timeout_ms=*/1000);
    while (trace->NextRef() != nullptr) {
    }
  } catch (const jig::TraceError&) {
    // Documented taxonomy — expected for malformed input.
  }
  return 0;
}
