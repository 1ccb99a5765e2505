// Exit-code contract of the jigtool CLI (documented in examples/jigtool.cpp
// and docs/OBSERVABILITY.md): 0 success, 1 unreadable/missing input or
// unreachable peer, 2 usage error, 3 corrupt or truncated input.  The
// contract covers the network doors too: serve-trace maps a refused
// connection to 1 and a mid-stream disconnect (either direction) to 3.
// Monitoring wrappers and the CI bench gate branch on these, so they are
// pinned here, together with `serve` following a directory that is still
// being written — the one live door.
//
// The jigtool binary is located via the JIGTOOL environment variable, or
// ./jigtool relative to the test's working directory (ctest runs from the
// build root, where every target lands).  Skips if neither resolves.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "reference_merge.h"
#include "trace/net.h"
#include "trace/trace_file.h"
#include "trace/trace_set.h"

namespace {

namespace fs = std::filesystem;

std::string JigtoolPath() {
  if (const char* env = std::getenv("JIGTOOL")) return env;
  if (fs::exists("./jigtool")) return "./jigtool";
  return "";
}

// Runs jigtool with `args`, returns its exit code (-1 on system() failure).
int RunJigtool(const std::string& args) {
  const std::string cmd = JigtoolPath() + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (JigtoolPath().empty()) {
      GTEST_SKIP() << "jigtool binary not found (set JIGTOOL)";
    }
    dir_ = fs::temp_directory_path() /
           ("jig_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void WriteGarbage(const fs::path& path) {
    std::ofstream out(path, std::ios::binary);
    // Arbitrary non-magic bytes: enough to open, wrong from byte 0.
    for (int i = 0; i < 64; ++i) out.put(static_cast<char>(i * 7 + 1));
  }

  // A small, valid, finalized single-radio trace for the network tests.
  fs::path WriteValidTrace(const std::string& name, int records = 100) {
    const fs::path path = dir_ / name;
    jig::TraceHeader header;
    header.radio = 1;
    jig::TraceFileWriter writer(path, header, /*records_per_block=*/16);
    jig::CaptureRecord rec;
    rec.bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
    rec.orig_len = 14;
    for (int i = 0; i < records; ++i) {
      rec.timestamp = 1'000 * (i + 1);
      writer.Append(rec);
    }
    writer.Finish();
    return path;
  }

  // A port with nothing listening on it: bind an ephemeral listener, note
  // the port, close it again.
  static std::uint16_t UnusedPort() {
    jig::net::Listener probe("127.0.0.1", 0);
    return probe.port();
  }

  fs::path dir_;
};

TEST_F(CliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunJigtool(""), 2);
  EXPECT_EQ(RunJigtool("frobnicate " + dir_.string()), 2);
  EXPECT_EQ(RunJigtool("merge " + dir_.string() + " --spill-dir"), 2);
  EXPECT_EQ(RunJigtool("merge " + dir_.string() + " --stats-json"), 2);
}

// A mistyped or retired flag is a usage error, never a positional: over a
// valid directory the merge would otherwise run (exit 0) with
// atol("--stat-json") = 0 as its threads count and write no metrics file.
TEST_F(CliTest, UnknownFlagExitsTwo) {
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteValidTrace("traces/r1.jigt");
  ASSERT_EQ(RunJigtool("merge " + traces.string()), 0);
  const fs::path json = dir_ / "out.json";
  EXPECT_EQ(RunJigtool("merge " + traces.string() + " --stat-json " +
                       json.string()),
            2);
  EXPECT_FALSE(fs::exists(json));
  EXPECT_EQ(RunJigtool("merge " + traces.string() + " --spill-dir " +
                       (dir_ / "x").string()),
            2);
}

// Every batch door over a trace directory maps a missing or empty
// directory to 1 and a corrupt trace to 3 — never an uncaught exception.
TEST_F(CliTest, BatchDoorsOnMissingEmptyOrCorruptInput) {
  const fs::path empty = dir_ / "empty";
  const fs::path corrupt = dir_ / "corrupt";
  fs::create_directories(empty);
  fs::create_directories(corrupt);
  WriteGarbage(corrupt / "bad.jigt");
  for (const char* cmd : {"merge", "info", "timeline"}) {
    SCOPED_TRACE(cmd);
    const std::string door = std::string(cmd) + " ";
    EXPECT_EQ(RunJigtool(door + (dir_ / "nonexistent").string()), 1);
    EXPECT_EQ(RunJigtool(door + empty.string()), 1);  // no .jigt files
    EXPECT_EQ(RunJigtool(door + corrupt.string()), 3);
  }
}

TEST_F(CliTest, InspectSpillOnMissingOrEmptyInputExitsOne) {
  EXPECT_EQ(RunJigtool("inspect-spill " + (dir_ / "nonexistent").string()),
            1);
  EXPECT_EQ(RunJigtool("inspect-spill " + dir_.string()), 1);  // no .jigs
}

TEST_F(CliTest, InspectSpillOnCorruptSegmentExitsThree) {
  WriteGarbage(dir_ / "ch1-0.jigs");
  EXPECT_EQ(RunJigtool("inspect-spill " + dir_.string()), 3);
}

// ------------------------------------------------------------------------
// Network doors.

TEST_F(CliTest, ServeTraceUsageErrorsExitTwo) {
  const fs::path trace = WriteValidTrace("r1.jigt");
  EXPECT_EQ(RunJigtool("serve-trace " + trace.string()), 2);  // no host/port
  EXPECT_EQ(RunJigtool("serve-trace " + trace.string() + " 127.0.0.1"), 2);
  EXPECT_EQ(RunJigtool("collect " + dir_.string() + " 12345"), 2);  // no n
  EXPECT_EQ(RunJigtool("demo-live " + dir_.string() + " 1 10 --tcp"), 2);
}

TEST_F(CliTest, ServeTraceMissingFileExitsOne) {
  EXPECT_EQ(RunJigtool("serve-trace " + (dir_ / "nope.jigt").string() +
                       " 127.0.0.1 1"),
            1);
}

TEST_F(CliTest, ServeTraceConnectionRefusedExitsOne) {
  const fs::path trace = WriteValidTrace("r1.jigt");
  EXPECT_EQ(RunJigtool("serve-trace " + trace.string() + " 127.0.0.1 " +
                       std::to_string(UnusedPort())),
            1);
}

TEST_F(CliTest, WingUsageErrorsExitTwo) {
  EXPECT_EQ(RunJigtool("wing " + dir_.string()), 2);  // no root host/port
  EXPECT_EQ(RunJigtool("wing " + dir_.string() + " 127.0.0.1"), 2);
}

TEST_F(CliTest, WingOnMissingOrEmptyInputExitsOne) {
  // Refused before dialing, so no root need listen.
  const std::string root = " 127.0.0.1 " + std::to_string(UnusedPort());
  EXPECT_EQ(RunJigtool("wing " + (dir_ / "nonexistent").string() + root), 1);
  EXPECT_EQ(RunJigtool("wing " + dir_.string() + root), 1);  // no .jigt files
}

std::string ReadText(const fs::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// The first `n` whitespace-delimited tokens after `label` in a jigtool
// summary: `events: 45098 (36938 valid, ...)` with n = 2 gives
// "45098 (36938".  Empty if the label is absent.
std::string SummaryTokens(const std::string& text, const std::string& label,
                          int n) {
  const auto at = text.find(label);
  if (at == std::string::npos) return "";
  std::istringstream line(text.substr(at + label.size()));
  std::string out;
  std::string token;
  for (int i = 0; i < n && line >> token; ++i) out += (i ? " " : "") + token;
  return out;
}

// The distributed door end to end: `demo` writes a deployment, two `wing`
// processes relay a pod split of it to one `root`, and the root's summary
// equals `merge`'s over the whole directory.
TEST_F(CliTest, RootWithTwoWingsMatchesMerge) {
  const fs::path traces = dir_ / "traces";
  ASSERT_EQ(RunJigtool("demo " + traces.string()), 0);
  std::vector<std::pair<std::uint16_t, fs::path>> by_pod;
  for (const auto& entry : fs::directory_iterator(traces)) {
    by_pod.emplace_back(jig::TraceFileReader(entry.path()).header().pod,
                        entry.path());
  }
  ASSERT_GT(by_pod.size(), 2u);
  std::sort(by_pod.begin(), by_pod.end());
  const std::uint16_t cut = by_pod[by_pod.size() / 2].first;
  const fs::path wings[2] = {dir_ / "w1", dir_ / "w2"};
  for (const fs::path& w : wings) fs::create_directories(w);
  for (const auto& [pod, path] : by_pod) {
    fs::copy_file(path, wings[pod < cut ? 0 : 1] / path.filename());
  }
  ASSERT_FALSE(fs::is_empty(wings[0]));
  ASSERT_FALSE(fs::is_empty(wings[1]));

  const std::string tool = JigtoolPath();
  const fs::path merge_out = dir_ / "merge.txt";
  ASSERT_EQ(std::system((tool + " merge " + traces.string() + " > " +
                         merge_out.string() + " 2>/dev/null")
                            .c_str()),
            0);
  // The wings retry their dial until the root listens.
  const fs::path root_out = dir_ / "root.txt";
  const std::string p = std::to_string(UnusedPort());
  const std::string cmd =
      tool + " root " + p + " " + std::to_string(by_pod.size()) + " > " +
      root_out.string() + " 2>/dev/null & rpid=$!; " + tool + " wing " +
      wings[0].string() + " 127.0.0.1 " + p + " 1 >/dev/null 2>&1 & " +
      "w1=$!; " + tool + " wing " + wings[1].string() + " 127.0.0.1 " + p +
      " 2 >/dev/null 2>&1; w2=$?; wait $w1; w1=$?; wait $rpid; r=$?; " +
      "exit $((r * 100 + w1 * 10 + w2))";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0)
      << "root exit " << WEXITSTATUS(status) / 100 << ", wing exits "
      << WEXITSTATUS(status) / 10 % 10 << " " << WEXITSTATUS(status) % 10;

  const std::string merge = ReadText(merge_out);
  const std::string root = ReadText(root_out);
  // Radios synced, events in and valid events in, jframes out.
  for (const auto& [label, n] : {std::pair{"radios synced:", 1},
                                 std::pair{"events:", 2},
                                 std::pair{"jframes:", 1}}) {
    EXPECT_NE(SummaryTokens(merge, label, n), "") << label;
    EXPECT_EQ(SummaryTokens(root, label, n), SummaryTokens(merge, label, n))
        << label;
  }
}

TEST_F(CliTest, ServeTraceCorruptSourceExitsThree) {
  WriteGarbage(dir_ / "bad.jigt");
  // Corruption is detected before the dial, so no collector is needed.
  EXPECT_EQ(RunJigtool("serve-trace " + (dir_ / "bad.jigt").string() +
                       " 127.0.0.1 1"),
            3);
}

// Shell fragment that blocks until `file` exists (up to ~10 s) — the
// readiness door: collect/serve write their ready/snapshot file once
// actually listening, so no fixed sleep has to guess startup latency.
std::string WaitForFile(const std::string& file) {
  return "i=0; while [ ! -e " + file +
         " ] && [ $i -lt 1000 ]; do sleep 0.01; i=$((i+1)); done; ";
}

// Composite runner for one collect (background) + one serve-trace
// (foreground) against the same port: returns serve_exit * 10 +
// collect_exit, so a single assertion pins both ends of the wire.  The
// sender dials only after the collector's --ready-file appears.
int RunServeCollectPair(const std::string& tool, const fs::path& trace,
                        const fs::path& out_dir, std::uint16_t port) {
  const std::string p = std::to_string(port);
  const std::string ready = out_dir.string() + ".ready";
  const std::string cmd = tool + " collect " + out_dir.string() + " " + p +
                          " 1 --ready-file " + ready +
                          " >/dev/null 2>&1 & cpid=$!; " +
                          WaitForFile(ready) + tool + " serve-trace " +
                          trace.string() + " 127.0.0.1 " + p +
                          " >/dev/null 2>&1; s=$?; wait $cpid; c=$?; "
                          "exit $((s * 10 + c))";
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(CliTest, ServeTraceToCollectRoundTripExitsZeroBothEnds) {
  const fs::path trace = WriteValidTrace("r1.jigt");
  const int combined = RunServeCollectPair(JigtoolPath(), trace,
                                           dir_ / "out", UnusedPort());
  EXPECT_EQ(combined, 0) << "serve exit " << combined / 10
                         << ", collect exit " << combined % 10;
  // The collector persisted the stream (byte-identical: same records,
  // same block framing, same index).
  EXPECT_TRUE(fs::exists(dir_ / "out" / "r1.jigt"));
}

TEST_F(CliTest, MidStreamDisconnectExitsThreeBothEnds) {
  // Truncate a valid trace mid-block: serve-trace relays the complete
  // blocks then closes WITHOUT the finalize marker (exit 3), and the
  // collector observes a genuine mid-stream disconnect (exit 3).
  const fs::path trace = WriteValidTrace("r1.jigt", 200);
  const auto full = fs::file_size(trace);
  fs::resize_file(trace, full / 2);
  const int combined = RunServeCollectPair(JigtoolPath(), trace,
                                           dir_ / "out", UnusedPort());
  EXPECT_EQ(combined, 33) << "serve exit " << combined / 10
                          << ", collect exit " << combined % 10;
}

// demo-live's TCP door end to end: every simulated radio dials one
// collector and streams its capture, and the collector persists each
// stream as a .jigt.
TEST_F(CliTest, DemoLiveTcpToCollectExitsZeroBothEnds) {
  constexpr int kRadios = 156;  // the demo deployment
  const std::string tool = JigtoolPath();
  const fs::path out = dir_ / "out";
  const std::string ready = (dir_ / "out.ready").string();
  const std::string p = std::to_string(UnusedPort());
  const std::string cmd =
      tool + " collect " + out.string() + " " + p + " " +
      std::to_string(kRadios) + " --ready-file " + ready +
      " >/dev/null 2>&1 & cpid=$!; " + WaitForFile(ready) + tool +
      " demo-live " + (dir_ / "unused").string() + " 1 10 --tcp " + p +
      " >/dev/null 2>&1; d=$?; wait $cpid; c=$?; exit $((d * 10 + c))";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0)
      << "demo-live exit " << WEXITSTATUS(status) / 10 << ", collect exit "
      << WEXITSTATUS(status) % 10;
  int traces = 0;
  for (const auto& entry : fs::directory_iterator(out)) {
    if (entry.path().extension() == ".jigt") ++traces;
  }
  EXPECT_EQ(traces, kRadios);
}

// A silent connection that reaches the collector before the sender is
// dropped, not taken for the one stream.  Pre-fix collect parsed it as the
// first stream's handshake and exited 3 once it closed.
TEST_F(CliTest, SilentStrayBeforeTheSenderDoesNotFailCollect) {
  const fs::path trace = WriteValidTrace("r1.jigt");
  const fs::path out = dir_ / "out";
  const fs::path ready = dir_ / "out.ready";
  const fs::path collect_exit = dir_ / "collect.exit";
  const std::uint16_t port = UnusedPort();
  const std::string p = std::to_string(port);
  // The collector runs in the background and leaves its exit code behind.
  ASSERT_EQ(std::system(("(" + JigtoolPath() + " collect " + out.string() +
                         " " + p + " 1 --ready-file " + ready.string() +
                         " >/dev/null 2>&1; echo $? > " +
                         collect_exit.string() + ") &")
                            .c_str()),
            0);
  const auto wait_for = [](const fs::path& file) {
    for (int i = 0; i < 1000 && !fs::exists(file); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  wait_for(ready);
  {
    jig::net::Socket stray = jig::net::ConnectTo("127.0.0.1", port);
    EXPECT_EQ(RunJigtool("serve-trace " + trace.string() + " 127.0.0.1 " + p),
              0);
  }  // the stray closes without a word
  std::string code;  // empty until the shell has written it
  for (int i = 0; i < 1000 && code.empty(); ++i) {
    wait_for(collect_exit);
    std::ifstream(collect_exit) >> code;
    if (code.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(code, "0");
  EXPECT_TRUE(fs::exists(out / "r1.jigt"));
}

// ------------------------------------------------------------------------
// The always-on service (`jigtool serve`).

TEST_F(CliTest, ServeUsageErrorsExitTwo) {
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string()), 2);
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string() + " " +
                       dir_.string() + " --expected"),
            2);
}

TEST_F(CliTest, ServeMissingTraceDirExitsOne) {
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string() + " " +
                       (dir_ / "nonexistent").string() + " --until-done"),
            1);
}

TEST_F(CliTest, ServeCorruptCheckpointExitsThree) {
  // A deployment whose recorded state cannot be loaded must refuse to
  // start (silently discarding a checkpoint would break the restart
  // determinism contract).
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteValidTrace("traces/r1.jigt");
  const fs::path state = dir_ / "state" / "traces";
  fs::create_directories(state);
  WriteGarbage(state / "checkpoint.jigc");
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string() + " " +
                       traces.string() + " --until-done --expected 1"),
            3);
}

TEST_F(CliTest, ServeCorruptTraceExitsThree) {
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteGarbage(traces / "bad.jigt");
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string() + " " +
                       traces.string() + " --until-done --expected 1"),
            3);
}

TEST_F(CliTest, ServeUntilDoneExitsZeroAndWritesSnapshot) {
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteValidTrace("traces/r1.jigt");
  const fs::path state = dir_ / "state";
  EXPECT_EQ(RunJigtool("serve " + state.string() + " " + traces.string() +
                       " --until-done --expected 1"),
            0);
  EXPECT_TRUE(fs::exists(state / "snapshot.json"));
  EXPECT_TRUE(fs::exists(state / "metrics.prom"));
  EXPECT_TRUE(fs::exists(state / "traces" / "checkpoint.jigc"));
}

TEST_F(CliTest, ServeSigtermShutsDownCleanly) {
  // The SIGTERM door: start the daemon, wait for the snapshot exposition
  // (the readiness signal), signal it, and pin the clean-exit contract —
  // exit 0 after a final snapshot flush.  No fixed startup sleep: the
  // snapshot file IS the readiness door.
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteValidTrace("traces/r1.jigt");
  const fs::path state = dir_ / "state";
  const std::string snapshot = (state / "snapshot.json").string();
  const std::string cmd =
      JigtoolPath() + " serve " + state.string() + " " + traces.string() +
      " --expected 1 --interval-ms 50 >/dev/null 2>&1 & spid=$!; " +
      WaitForFile(snapshot) + "kill -TERM $spid; wait $spid";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(fs::exists(state / "snapshot.json"));
}

// The value of `"key":<n>` in a one-deployment snapshot.json (-1 if the
// key is absent).
long long SnapshotField(const fs::path& snapshot, const std::string& key) {
  std::ifstream in(snapshot);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string needle = "\"" + key + "\":";
  const auto at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + needle.size());
}

// The live door end to end: serve follows a directory while demo-live is
// still writing it, and once every radio finalizes its durable stream
// holds exactly the jframes a batch merge of the finished files yields.
TEST_F(CliTest, ServeFollowsLiveWriter) {
  const fs::path traces = dir_ / "traces";
  const fs::path state = dir_ / "state";
  // serve refuses a directory that does not exist yet (exit 1).
  fs::create_directories(traces);
  const std::string tool = JigtoolPath();
  const std::string cmd =
      tool + " demo-live " + traces.string() +
      " 2 50 >/dev/null 2>&1 & wpid=$!; " + tool + " serve " +
      state.string() + " " + traces.string() +
      " --expected 156 --analysis --until-done >/dev/null 2>&1; s=$?; "
      "wait $wpid; w=$?; exit $((s * 10 + w))";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0)
      << "serve exit " << WEXITSTATUS(status) / 10 << ", demo-live exit "
      << WEXITSTATUS(status) % 10;

  jig::TraceSet finished = jig::TraceSet::OpenDirectory(traces);
  ASSERT_EQ(finished.size(), 156u);
  const auto reference = jig::testing::ReferenceMerge(finished);
  ASSERT_FALSE(reference.jframes.empty());
  EXPECT_EQ(SnapshotField(state / "snapshot.json", "jframes"),
            static_cast<long long>(reference.jframes.size()));
}

}  // namespace
