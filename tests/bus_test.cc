// AnalysisBus: one streaming pass must reproduce exactly what the batch
// collect-then-rescan analyses computed.
#include "jigsaw/analysis/bus.h"

#include <gtest/gtest.h>

#include "jframe_equality.h"
#include "jigsaw/pipeline.h"
#include "link_equality.h"
#include "sim/scenario.h"
#include "synthetic.h"

namespace jig {
namespace {

using jig::testing::ExpectLinkIdentical;

class BusEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.seed = 21;
    cfg.duration = Seconds(3);
    cfg.clients = 12;
    cfg.pods_enabled = 8;
    scenario_ = new Scenario(cfg);
    scenario_->Run();
    traces_ = new TraceSet(scenario_->TakeTraces());
    batch_ = new MergeResult(MergeTraces(*traces_));
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete traces_;
    delete scenario_;
    batch_ = nullptr;
    traces_ = nullptr;
    scenario_ = nullptr;
  }

  static Scenario* scenario_;
  static TraceSet* traces_;
  static MergeResult* batch_;
};

Scenario* BusEquivalence::scenario_ = nullptr;
TraceSet* BusEquivalence::traces_ = nullptr;
MergeResult* BusEquivalence::batch_ = nullptr;

TEST_F(BusEquivalence, SinglePassMatchesBatchAnalyses) {
  AnalysisBus bus;
  auto& dispersion = bus.Emplace<DispersionConsumer>();
  auto& activity = bus.Emplace<ActivityConsumer>(Seconds(1));
  auto& coverage =
      bus.Emplace<WiredCoverageConsumer>(scenario_->wired_records());
  ASSERT_EQ(bus.consumer_count(), 3u);

  MergeConfig cfg;
  cfg.threads = 0;  // the parallel merge feeds the bus
  MergeTracesStreaming(*traces_, cfg, bus.Sink());
  bus.Finish();

  // The stream the bus saw is the batch stream.
  ASSERT_EQ(bus.jframes_seen(), batch_->jframes.size());

  // Dispersion: identical distribution.
  const auto batch_disp = DispersionDistribution(batch_->jframes);
  ASSERT_EQ(dispersion.distribution().size(), batch_disp.size());
  if (!batch_disp.empty()) {
    EXPECT_DOUBLE_EQ(dispersion.distribution().Quantile(0.9),
                     batch_disp.Quantile(0.9));
    EXPECT_DOUBLE_EQ(dispersion.distribution().Mean(), batch_disp.Mean());
  }

  // Activity: identical series, bin by bin.
  const auto batch_act = ComputeActivity(batch_->jframes, Seconds(1));
  const auto& streamed_act = activity.series();
  ASSERT_EQ(streamed_act.Bins(), batch_act.Bins());
  EXPECT_EQ(streamed_act.origin, batch_act.origin);
  for (std::size_t i = 0; i < batch_act.Bins(); ++i) {
    EXPECT_EQ(streamed_act.active_clients[i], batch_act.active_clients[i]);
    EXPECT_EQ(streamed_act.active_aps[i], batch_act.active_aps[i]);
    EXPECT_DOUBLE_EQ(streamed_act.data_bytes[i], batch_act.data_bytes[i]);
    EXPECT_DOUBLE_EQ(streamed_act.mgmt_bytes[i], batch_act.mgmt_bytes[i]);
    EXPECT_DOUBLE_EQ(streamed_act.beacon_bytes[i], batch_act.beacon_bytes[i]);
    EXPECT_DOUBLE_EQ(streamed_act.arp_bytes[i], batch_act.arp_bytes[i]);
    EXPECT_DOUBLE_EQ(streamed_act.broadcast_airtime_fraction[i],
                     batch_act.broadcast_airtime_fraction[i]);
  }

  // Coverage: identical aggregate match.
  const auto batch_cov =
      ComputeWiredCoverage(scenario_->wired_records(), batch_->jframes);
  EXPECT_EQ(coverage.report().wired_packets, batch_cov.wired_packets);
  EXPECT_EQ(coverage.report().matched_packets, batch_cov.matched_packets);
  EXPECT_EQ(coverage.report().stations.size(), batch_cov.stations.size());

  // Link reconstruction and TCP loss ride the windowed LinkConsumer:
  // WindowedLinkPathMatchesBatchWithoutCollector pins them.
}

TEST_F(BusEquivalence, WindowedLinkPathMatchesBatchWithoutCollector) {
  // Windowed link reconstruction feeding the streaming interference and
  // TCP-loss consumers, with no jframe vector anywhere.  Everything must
  // be byte-identical to the batch path over the full jframe vector.
  AnalysisBus bus;
  auto& link = bus.Emplace<LinkConsumer>();
  auto& interference = bus.Emplace<InterferenceConsumer>(link);
  auto& tcp_loss = bus.Emplace<TcpLossConsumer>(link);
  ReconstructionObserver reconstruction(link);
  MergeConfig cfg;
  cfg.threads = 0;
  MergeTracesStreaming(*traces_, cfg, bus.Sink());
  bus.Finish();

  // The windowed path must actually window: peak retention below the
  // full-trace buffer it replaces.
  EXPECT_GT(bus.peak_retained_jframes(), 0u);
  EXPECT_LT(bus.peak_retained_jframes(), batch_->jframes.size());

  const auto batch_link = ReconstructLink(batch_->jframes);
  ExpectLinkIdentical(reconstruction.link(), batch_link);

  const auto batch_transport =
      ReconstructTransport(batch_->jframes, batch_link);
  const auto& streamed_transport = reconstruction.transport();
  ASSERT_EQ(streamed_transport.flows.size(), batch_transport.flows.size());
  EXPECT_EQ(streamed_transport.stats.tcp_segments,
            batch_transport.stats.tcp_segments);
  EXPECT_EQ(streamed_transport.stats.loss_events,
            batch_transport.stats.loss_events);
  EXPECT_EQ(streamed_transport.stats.wireless_losses,
            batch_transport.stats.wireless_losses);
  EXPECT_EQ(streamed_transport.stats.wired_losses,
            batch_transport.stats.wired_losses);
  EXPECT_EQ(streamed_transport.stats.covering_ack_resolutions,
            batch_transport.stats.covering_ack_resolutions);
  EXPECT_EQ(streamed_transport.stats.inferred_missing_segments,
            batch_transport.stats.inferred_missing_segments);
  ASSERT_EQ(streamed_transport.exchange_delivered.size(),
            batch_transport.exchange_delivered.size());
  EXPECT_EQ(streamed_transport.exchange_delivered,
            batch_transport.exchange_delivered);

  // Interference: the streaming per-channel sweep + incremental pair
  // counters equal the batch overlap scan.
  const auto batch_if = ComputeInterference(batch_->jframes, batch_link);
  const auto& streamed_if = interference.report();
  EXPECT_EQ(streamed_if.total_pairs_seen, batch_if.total_pairs_seen);
  ASSERT_EQ(streamed_if.pairs.size(), batch_if.pairs.size());
  for (std::size_t i = 0; i < batch_if.pairs.size(); ++i) {
    const auto& s = streamed_if.pairs[i];
    const auto& b = batch_if.pairs[i];
    EXPECT_EQ(s.sender, b.sender);
    EXPECT_EQ(s.receiver, b.receiver);
    EXPECT_EQ(s.n, b.n);
    EXPECT_EQ(s.n0, b.n0);
    EXPECT_EQ(s.nl0, b.nl0);
    EXPECT_EQ(s.nx, b.nx);
    EXPECT_EQ(s.nlx, b.nlx);
  }
  EXPECT_DOUBLE_EQ(streamed_if.mean_background_loss,
                   batch_if.mean_background_loss);
  EXPECT_DOUBLE_EQ(streamed_if.fraction_pairs_interfered,
                   batch_if.fraction_pairs_interfered);

  // TCP loss riding the incremental flow updates.
  const auto batch_loss = ComputeTcpLoss(batch_transport);
  EXPECT_EQ(tcp_loss.report().flows_considered, batch_loss.flows_considered);
  EXPECT_DOUBLE_EQ(tcp_loss.report().aggregate_loss_rate,
                   batch_loss.aggregate_loss_rate);
  EXPECT_DOUBLE_EQ(tcp_loss.report().aggregate_wireless_rate,
                   batch_loss.aggregate_wireless_rate);
  EXPECT_DOUBLE_EQ(tcp_loss.report().aggregate_wired_rate,
                   batch_loss.aggregate_wired_rate);
}

TEST(LinkConsumerStreaming, MatchesBatchAcrossSeededMultiChannelScenarios) {
  // The seeded multi-channel synthetic deployments (three channels, six
  // radios, randomized unified/corrupted/duplicate traffic) through the
  // full sharded merge: the windowed LinkConsumer must emit attempt and
  // exchange vectors byte-identical to batch ReconstructLink, including
  // exchanges straddling window boundaries.
  for (const std::uint64_t seed : {11ull, 21ull, 31ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    auto net = jig::testing::MultiChannelNetwork(seed, Seconds(4));
    TraceSet streaming_traces = net.Build();
    TraceSet batch_traces = net.Build();

    AnalysisBus bus;
    auto& link = bus.Emplace<LinkConsumer>();
    ReconstructionObserver reconstruction(link);
    MergeConfig cfg;
    cfg.threads = 0;
    MergeTracesStreaming(streaming_traces, cfg, bus.Sink());
    bus.Finish();

    const auto batch_merge = MergeTraces(batch_traces);
    const auto batch_link = ReconstructLink(batch_merge.jframes);
    ExpectLinkIdentical(reconstruction.link(), batch_link);
    EXPECT_EQ(link.min_live_jframe(), batch_merge.jframes.size());
  }
}

TEST_F(BusEquivalence, OnlineMonitorRidesTheBus) {
  AnalysisBus bus;
  std::uint64_t windows = 0;
  std::uint64_t jframes_in_windows = 0;
  auto& online = bus.Emplace<OnlineMonitorConsumer>(
      Seconds(1), [&](const OnlineWindowStats& w) {
        ++windows;
        jframes_in_windows += w.jframes;
      });
  MergeTracesStreaming(*traces_, {}, bus.Sink());
  bus.Finish();
  EXPECT_EQ(windows, online.monitor().windows_emitted());
  EXPECT_GT(windows, 1u);
  EXPECT_EQ(jframes_in_windows, bus.jframes_seen());
}

// ---------------------------------------------------------------------------
// The retention contract: the bus owns each jframe once, keeps what some
// consumer's retain_from() still covers, and retires everything else.

// Pins ordinal `k` and, on every later jframe, reads it back from the bus.
class PinningConsumer final : public JFrameConsumer {
 public:
  explicit PinningConsumer(std::uint64_t k) : k_(k) {}
  const char* name() const override { return "pin"; }
  void OnJFrame(const JFrame&) override {
    if (++seen_ > k_ + 1) read_back_ = bus().At(k_);
  }
  std::uint64_t retain_from() const override { return k_; }

  std::uint64_t seen() const { return seen_; }
  const JFrame& read_back() const { return read_back_; }

 private:
  std::uint64_t k_;
  std::uint64_t seen_ = 0;
  JFrame read_back_;
};

TEST_F(BusEquivalence, PinnedOrdinalReadsBackTheBatchJFrame) {
  ASSERT_GT(batch_->jframes.size(), 100u);
  const std::uint64_t k = 37;
  AnalysisBus bus;
  auto& pin = bus.Emplace<PinningConsumer>(k);
  MergeConfig cfg;
  cfg.threads = 0;
  MergeTracesStreaming(*traces_, cfg, bus.Sink());
  EXPECT_EQ(pin.seen(), batch_->jframes.size());
  // Everything from the pin on is still held before Finish().
  EXPECT_EQ(bus.retained_jframes(), batch_->jframes.size() - k);
  jig::testing::ExpectIdenticalStreams({pin.read_back()},
                                       {batch_->jframes[k]});
  jig::testing::ExpectIdenticalStreams({bus.At(k)}, {batch_->jframes[k]});
  bus.Finish();
  EXPECT_EQ(bus.retained_jframes(), 0u);
}

TEST_F(BusEquivalence, ConsumersThatRetainNothingHoldOneJFrame) {
  AnalysisBus bus;
  bus.Emplace<DispersionConsumer>();
  MergeTracesStreaming(*traces_, {}, bus.Sink());
  EXPECT_EQ(bus.jframes_seen(), batch_->jframes.size());
  EXPECT_EQ(bus.peak_retained_jframes(), 1u);
  EXPECT_EQ(bus.retained_jframes(), 0u);
}

TEST_F(BusEquivalence, LinkWindowIsEmptyAfterFinish) {
  AnalysisBus bus;
  auto& link = bus.Emplace<LinkConsumer>();
  MergeTracesStreaming(*traces_, {}, bus.Sink());
  EXPECT_GT(bus.retained_jframes(), 0u);  // exchanges still pending
  bus.Finish();
  EXPECT_EQ(link.min_live_jframe(), batch_->jframes.size());
  EXPECT_EQ(bus.retained_jframes(), 0u);
}

}  // namespace
}  // namespace jig
