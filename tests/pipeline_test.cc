// Merge-pipeline tests: configuration validation, shard-mergeable stats,
// channel partitioning, and the determinism contract — the channel-sharded
// merge must emit, for every `threads` setting, a stream byte-identical to
// the independent reference merge (reference_merge.h).
#include "jigsaw/pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "jframe_equality.h"
#include "reference_merge.h"
#include "sim/scenario.h"
#include "synthetic.h"

namespace jig {
namespace {

using testing::ExpectEqualStats;
using testing::ExpectIdenticalStreams;
using testing::MultiChannelNetwork;
using testing::ReferenceMerge;

TEST(MergeConfigValidation, RejectsHorizonNotExceedingSearchWindow) {
  TraceSet empty;
  MergeConfig cfg;
  cfg.unifier.search_window = Milliseconds(10);
  cfg.reorder_horizon = Milliseconds(10);  // == window: out-of-order hazard
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
  EXPECT_THROW(MergeTracesStreaming(empty, cfg, [](JFrame&&) {}),
               std::invalid_argument);
  cfg.reorder_horizon = Milliseconds(5);  // < window
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
}

TEST(MergeConfigValidation, RejectsNonPositiveSearchWindow) {
  TraceSet empty;
  MergeConfig cfg;
  cfg.unifier.search_window = 0;
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
}

TEST(MergeConfigValidation, AcceptsDefaultAndWideConfigs) {
  MergeConfig cfg;
  EXPECT_NO_THROW(ValidateMergeConfig(cfg));
  cfg.unifier.search_window = Milliseconds(100);
  cfg.reorder_horizon = Milliseconds(200);
  EXPECT_NO_THROW(ValidateMergeConfig(cfg));
}

TEST(UnifyStatsTest, OperatorPlusEqualsSumsEveryCounter) {
  UnifyStats a;
  a.events_in = 10;
  a.valid_in = 8;
  a.fcs_error_in = 1;
  a.phy_error_in = 1;
  a.events_unified = 7;
  a.jframes = 4;
  a.error_instances_attached = 1;
  a.error_events_dropped = 2;
  a.resyncs = 3;
  UnifyStats b = a;
  b.events_in = 5;
  b.jframes = 2;
  a += b;
  EXPECT_EQ(a.events_in, 15u);
  EXPECT_EQ(a.valid_in, 16u);
  EXPECT_EQ(a.fcs_error_in, 2u);
  EXPECT_EQ(a.phy_error_in, 2u);
  EXPECT_EQ(a.events_unified, 14u);
  EXPECT_EQ(a.jframes, 6u);
  EXPECT_EQ(a.error_instances_attached, 2u);
  EXPECT_EQ(a.error_events_dropped, 4u);
  EXPECT_EQ(a.resyncs, 6u);
  EXPECT_DOUBLE_EQ(a.EventsPerJframe(), 14.0 / 6.0);
}

TEST(UnifyStatsTest, ShardMergedStatsEqualSinglePass) {
  // The sharded merge sums per-shard UnifyStats with operator+=; the sum
  // must equal the stats of one global unifier pass over the same
  // multi-channel scenario.
  auto single_traces = MultiChannelNetwork(11).Build();
  auto sharded_traces = MultiChannelNetwork(11).Build();
  MergeConfig sharded_cfg;
  sharded_cfg.threads = 3;
  const auto single = ReferenceMerge(single_traces);
  const auto sharded = MergeTraces(sharded_traces, sharded_cfg);
  ASSERT_GT(single.stats.jframes, 100u);
  ExpectEqualStats(single.stats, sharded.stats);
}

TEST(BootstrapResultTest, SliceThenMergeReassembles) {
  BootstrapResult full;
  full.offset_us = {1.0, 2.0, 3.0, 4.0};
  full.synced = {true, false, true, true};
  full.reference_frames_considered = 40;
  full.sync_set_size = 3;
  full.max_bfs_depth = 2;

  BootstrapResult merged = full.Slice({0, 2});
  merged += full.Slice({1, 3});
  ASSERT_EQ(merged.offset_us.size(), 4u);
  EXPECT_EQ(merged.offset_us, (std::vector<double>{1.0, 3.0, 2.0, 4.0}));
  EXPECT_EQ(merged.synced, (std::vector<bool>{true, true, false, true}));
  EXPECT_EQ(merged.SyncedCount(), 3u);
  EXPECT_EQ(merged.reference_frames_considered, 80u);
  EXPECT_EQ(merged.max_bfs_depth, 2);
}

TEST(TraceSetPartition, RoundTripsThroughShards) {
  auto traces = MultiChannelNetwork(5).Build();
  ASSERT_EQ(traces.size(), 6u);
  std::vector<RadioId> original_radios;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    original_radios.push_back(traces.at(i).header().radio);
  }

  auto shards = traces.PartitionByChannel();
  EXPECT_TRUE(traces.empty());
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].channel, Channel::kCh1);
  EXPECT_EQ(shards[1].channel, Channel::kCh6);
  EXPECT_EQ(shards[2].channel, Channel::kCh11);
  for (const auto& shard : shards) {
    ASSERT_EQ(shard.traces.size(), 2u);
    ASSERT_EQ(shard.source_index.size(), 2u);
    for (std::size_t i = 0; i < shard.traces.size(); ++i) {
      EXPECT_EQ(shard.traces.at(i).header().channel, shard.channel);
      EXPECT_EQ(shard.traces.at(i).header().radio,
                original_radios[shard.source_index[i]]);
    }
  }

  traces.AdoptShards(std::move(shards));
  ASSERT_EQ(traces.size(), 6u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces.at(i).header().radio, original_radios[i]);
  }
}

// The determinism contract, satellite-mandated across >= 3 seeded
// multi-channel scenarios: every thread setting produces the same stream.
class ParallelDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDeterminism, ByteIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  auto base_traces = MultiChannelNetwork(seed).Build();
  const auto base = ReferenceMerge(base_traces);
  ASSERT_GT(base.jframes.size(), 100u);

  for (unsigned threads : {1u, 2u, 3u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto traces = MultiChannelNetwork(seed).Build();
    MergeConfig cfg;
    cfg.threads = threads;
    const auto parallel = MergeTraces(traces, cfg);
    ExpectIdenticalStreams(base.jframes, parallel.jframes);
    ExpectEqualStats(base.stats, parallel.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Values(1u, 2u, 3u, 17u));

// The observability contract: metrics are write-only from the pipeline's
// point of view, so toggling the registry on/off must not change a single
// emitted byte — with the shards stepped inline or on a worker pool.
TEST(MetricsDeterminism, StreamIsByteIdenticalWithMetricsToggled) {
  for (unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MergeConfig cfg;
    cfg.threads = threads;

    obs::SetEnabled(true);
    auto on_traces = MultiChannelNetwork(7).Build();
    const auto with_metrics = MergeTraces(on_traces, cfg);
    ASSERT_GT(with_metrics.jframes.size(), 100u);

    obs::SetEnabled(false);
    auto off_traces = MultiChannelNetwork(7).Build();
    const auto without_metrics = MergeTraces(off_traces, cfg);
    obs::SetEnabled(true);

    ExpectIdenticalStreams(with_metrics.jframes, without_metrics.jframes);
    ExpectEqualStats(with_metrics.stats, without_metrics.stats);
  }
}

TEST(ParallelMerge, ScenarioStreamMatchesReference) {
  // End-to-end on the full simulator (39-pod channel plan 1/6/1/11): the
  // sharded merge must reproduce the reference stream exactly.
  ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.duration = Seconds(2);
  cfg.clients = 10;
  cfg.pods_enabled = 6;
  Scenario scenario(cfg);
  scenario.Run();
  auto traces = scenario.TakeTraces();

  const auto reference = ReferenceMerge(traces);
  MergeConfig pcfg;
  pcfg.threads = 0;  // auto
  const auto parallel = MergeTraces(traces, pcfg);
  ASSERT_GT(reference.jframes.size(), 500u);
  ExpectIdenticalStreams(reference.jframes, parallel.jframes);
  ExpectEqualStats(reference.stats, parallel.stats);
  // The trace set must be usable again after the parallel run (partition
  // is reversed internally): a third merge sees the same stream.
  const auto again = MergeTraces(traces, pcfg);
  ExpectIdenticalStreams(reference.jframes, again.jframes);
}

// The performance-knob matrix: thread count is a pure speed knob — every
// setting must emit the reference stream, byte for byte.  The traces go
// through a .jigt round trip so the merge reads them through the file
// reader.
TEST(PerfKnobMatrix, ByteIdenticalAcrossThreads) {
  namespace fs = std::filesystem;
  auto mem_traces = MultiChannelNetwork(21).Build();
  const auto base = ReferenceMerge(mem_traces);
  ASSERT_GT(base.jframes.size(), 100u);
  const fs::path dir =
      fs::temp_directory_path() / "jig_pipeline_knob_matrix";
  fs::remove_all(dir);
  mem_traces.WriteDirectory(dir);

  for (unsigned threads : {1u, 2u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TraceSet traces = TraceSet::OpenDirectory(dir);
    ASSERT_EQ(traces.size(), mem_traces.size());
    MergeConfig cfg;
    cfg.threads = threads;
    const auto result = MergeTraces(traces, cfg);
    ExpectIdenticalStreams(base.jframes, result.jframes);
    ExpectEqualStats(base.stats, result.stats);
  }
  fs::remove_all(dir);
}

// Time to first output with one worker: the inline round steps only the
// shards that gate the k-way merge, so a cold batch session starts emitting
// early instead of unifying every shard's whole available prefix first.
TEST(ParallelMerge, InlineMergeEmitsBeforeHalfTheInput) {
  auto traces = MultiChannelNetwork(31).Build();
  MergeConfig cfg;
  cfg.threads = 1;
  std::optional<std::uint64_t> events_at_first;
  MergeSession session(traces, cfg, [&](JFrame&&) {
    if (!events_at_first) events_at_first = session.stats().events_in;
  });
  ASSERT_EQ(session.Poll(), MergeSession::Status::kDone);
  const std::uint64_t total = session.stats().events_in;
  ASSERT_GT(session.jframes_emitted(), 100u);
  ASSERT_TRUE(events_at_first.has_value());
  EXPECT_LT(2 * *events_at_first, total)
      << "first jframe after " << *events_at_first << " of " << total
      << " events";
}

TEST(ParallelMerge, SinkRunsOnCallingThread) {
  auto traces = MultiChannelNetwork(9).Build();
  MergeConfig cfg;
  cfg.threads = 3;
  const auto caller = std::this_thread::get_id();
  std::size_t delivered = 0;
  bool all_on_caller = true;
  MergeTracesStreaming(traces, cfg, [&](JFrame&&) {
    ++delivered;
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_GT(delivered, 100u);
  EXPECT_TRUE(all_on_caller);
}

TEST(ParallelMerge, SinkExceptionPropagatesAndAbortsWorkers) {
  auto traces = MultiChannelNetwork(13).Build();
  MergeConfig cfg;
  cfg.threads = 3;
  std::size_t delivered = 0;
  EXPECT_THROW(MergeTracesStreaming(traces, cfg,
                                    [&](JFrame&&) {
                                      if (++delivered == 10) {
                                        throw std::runtime_error("sink");
                                      }
                                    }),
               std::runtime_error);
  EXPECT_EQ(delivered, 10u);
}

}  // namespace
}  // namespace jig
