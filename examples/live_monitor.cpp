// Live monitor: streaming merge feeding per-second network statistics.
//
// Demonstrates the online path the paper's architecture was built for:
// MergeTracesStreaming delivers time-ordered jframes as the single-pass
// merge produces them (no trace-sized buffering) — here with the
// channel-sharded parallel merge, so the pipeline keeps up with deployments
// far larger than one core could serve — and the AnalysisBus fans the
// stream out to the OnlineMonitor (windowed health stats — activity,
// traffic mix, utilization, synchronization quality — exactly what a NOC
// dashboard would poll) and a dispersion CDF, all in the same pass.
//
// To follow radios that are *still capturing*, run `jigtool serve` over
// their trace directory (README.md, "Live ingest").
//
// Usage: ./build/examples/live_monitor [seconds] [threads]
#include <cstdio>
#include <cstdlib>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/pipeline.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace jig;
  const Micros duration = Seconds(argc > 1 ? std::atol(argv[1]) : 15);
  const auto threads =
      static_cast<unsigned>(argc > 2 ? std::atol(argv[2]) : 0);

  ScenarioConfig config;
  config.seed = 6;
  config.duration = duration;
  config.clients = 28;
  config.workload.web_per_min = 4.0;
  Scenario scenario(config);
  scenario.Run();
  TraceSet traces = scenario.TakeTraces();

  std::printf("  %8s %8s %7s %7s %7s %8s %8s %7s %7s %9s\n", "window",
              "jframes", "data", "mgmt", "ctrl", "clients", "APs", "util",
              "bcast", "sync-disp");

  UniversalMicros origin = 0;
  AnalysisBus bus;
  auto& online = bus.Emplace<OnlineMonitorConsumer>(
      Seconds(1), [&](const OnlineWindowStats& w) {
        if (origin == 0) origin = w.window_start;
        std::printf("  %6llds %8llu %7llu %7llu %7llu %8d %8d %6.1f%% "
                    "%6.1f%% %7lldus\n",
                    static_cast<long long>((w.window_start - origin) /
                                           kMicrosPerSecond),
                    static_cast<unsigned long long>(w.jframes),
                    static_cast<unsigned long long>(w.data_frames),
                    static_cast<unsigned long long>(w.mgmt_frames),
                    static_cast<unsigned long long>(w.ctrl_frames),
                    w.active_clients, w.active_aps,
                    100.0 * w.airtime_fraction,
                    100.0 * w.broadcast_airtime_fraction,
                    static_cast<long long>(w.worst_dispersion));
      });
  auto& dispersion = bus.Emplace<DispersionConsumer>();
  // Link + TCP-loss health ride the windowed reconstructor in the same
  // pass: exactly what a NOC would alarm on, still with no trace-sized
  // buffer (peak jframe retention is bounded by the 500 ms exchange
  // timeout).
  auto& link = bus.Emplace<LinkConsumer>();
  auto& tcp_loss = bus.Emplace<TcpLossConsumer>(link);

  // The streaming path: no jframe vector is ever materialized.
  MergeConfig mcfg;
  mcfg.threads = threads;
  const auto stats = MergeTracesStreaming(traces, mcfg, bus.Sink());
  bus.Finish();

  std::printf("\n%llu windows; merged %llu events one-pass "
              "(%zu/%zu radios synced); sync p90 %.0f us over %llu "
              "multi-instance jframes\n",
              static_cast<unsigned long long>(
                  online.monitor().windows_emitted()),
              static_cast<unsigned long long>(stats.stats.events_in),
              stats.bootstrap.SyncedCount(), stats.bootstrap.synced.size(),
              dispersion.distribution().empty()
                  ? 0.0
                  : dispersion.distribution().Quantile(0.90),
              static_cast<unsigned long long>(
                  dispersion.distribution().size()));
  std::printf("link health: %llu exchanges (%.2f%% inferred); TCP loss "
              "%.4f over %llu flows (%.4f wireless); peak window %zu "
              "jframes\n",
              static_cast<unsigned long long>(link.stats().exchanges),
              100.0 * link.stats().ExchangeInferenceRate(),
              tcp_loss.report().aggregate_loss_rate,
              static_cast<unsigned long long>(
                  tcp_loss.report().flows_considered),
              tcp_loss.report().aggregate_wireless_rate,
              bus.peak_retained_jframes());
  return 0;
}
