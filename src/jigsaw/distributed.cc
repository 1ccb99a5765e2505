#include "jigsaw/distributed.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace jig {
namespace {

// Retry the root connection for up to timeout_ms: in a distributed
// bring-up the wings routinely start before the root's listener is bound.
net::Socket ConnectWithRetry(const std::string& host, std::uint16_t port,
                             int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    try {
      return net::ConnectTo(host, port);
    } catch (const std::runtime_error&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

std::string WingLabel(std::uint32_t wing_id) {
  return "wing=\"" + std::to_string(wing_id) + "\"";
}

}  // namespace

struct WingSession::Impl {
  WingConfig config;
  TraceSet& traces;
  std::vector<std::unique_ptr<SocketTraceWriter>> uplinks;
  std::uint64_t records_relayed = 0;
  std::uint64_t bytes_relayed = 0;

  obs::Counter& uplink_records;
  obs::Counter& uplink_bytes;

  Impl(TraceSet& local, const WingConfig& cfg)
      : config(cfg),
        traces(local),
        uplink_records(obs::MetricRegistry::Global().GetCounter(
            "jig_wing_uplink_records_total",
            "Records relayed to the root, per wing",
            WingLabel(cfg.wing_id))),
        uplink_bytes(obs::MetricRegistry::Global().GetCounter(
            "jig_wing_uplink_bytes_total",
            "Framed bytes relayed to the root, per wing",
            WingLabel(cfg.wing_id))) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      uplinks.push_back(std::make_unique<SocketTraceWriter>(
          ConnectWithRetry(config.root_host, config.root_port,
                           config.connect_timeout_ms),
          traces.at(i).header(), config.wing_id, config.records_per_block));
    }
  }

  void PublishProgress() {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    for (const auto& uplink : uplinks) {
      records += uplink->records_sent();
      bytes += uplink->bytes_sent();
    }
    uplink_records.Add(records - records_relayed);
    uplink_bytes.Add(bytes - bytes_relayed);
    records_relayed = records;
    bytes_relayed = bytes;
  }
};

WingSession::WingSession(TraceSet& traces, const WingConfig& config)
    : impl_(std::make_unique<Impl>(traces, config)) {}

WingSession::~WingSession() = default;

std::uint64_t WingSession::records_relayed() const {
  return impl_->records_relayed;
}

std::uint64_t WingSession::bytes_relayed() const {
  return impl_->bytes_relayed;
}

void WingSession::Run() {
  Impl& impl = *impl_;
  const std::size_t per_round =
      std::max<std::size_t>(1, impl.config.records_per_block);
  Bytes scratch;  // a re-encoded unit, for sources that store none
  std::vector<bool> finished(impl.uplinks.size(), false);
  std::size_t open = impl.uplinks.size();
  while (open > 0) {
    bool moved = false;
    for (std::size_t i = 0; i < impl.uplinks.size(); ++i) {
      if (finished[i]) continue;
      RecordStream& source = impl.traces.at(i);
      SocketTraceWriter& uplink = *impl.uplinks[i];
      if (const auto unit = source.NextUnit(per_round, scratch)) {
        uplink.AppendUnit(*unit);
        uplink.Sync();
        moved = true;
      } else if (source.Finalized()) {
        // Probed past the end of a finalized capture: everything the
        // radio will ever hold is relayed.  Finish its uplink now — like
        // a capture daemon shutting down — so the root's watermark never
        // waits on a radio that has said everything while its wing-mates
        // keep going.
        uplink.Finish();
        finished[i] = true;
        --open;
      }
    }
    impl.PublishProgress();
    // Live sources: wait for the writers to append more.
    if (!moved && open > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

struct RootSession::Impl {
  RootConfig config;
  net::Listener listener;
  std::uint64_t boundary_jframes = 0;
  std::uint64_t jframes = 0;

  obs::Counter& boundary_counter = obs::MetricRegistry::Global().GetCounter(
      "jig_root_boundary_jframes_total",
      "JFrames unifying frame copies heard on more than one wing");

  explicit Impl(const RootConfig& cfg)
      : config(cfg), listener(cfg.host, cfg.port) {}
};

RootSession::RootSession(const RootConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

RootSession::~RootSession() = default;

std::uint16_t RootSession::port() const { return impl_->listener.port(); }

std::uint64_t RootSession::boundary_jframes() const {
  return impl_->boundary_jframes;
}

std::uint64_t RootSession::jframes() const { return impl_->jframes; }

MergeStreamStats RootSession::Run(std::function<void(JFrame&&)> sink) {
  Impl& impl = *impl_;
  SocketDoor door(impl.listener, impl.config.n_streams,
                  impl.config.accept_timeout_ms, /*resumable=*/true);
  TraceSet& traces = door.Accept();
  // Which wing each radio's stream arrived from, indexed by radio id: the
  // boundary-overlap attribution for the reconciliation counter below.
  std::vector<std::uint32_t> wing_of;
  for (const SocketTrace* s : door.streams()) {
    const RadioId radio = s->header().radio;
    if (radio >= wing_of.size()) wing_of.resize(radio + std::size_t{1});
    wing_of[radio] = s->source_id();
  }

  // The boundary-overlap reconciliation pass: the global unifier groups
  // every radio's copy of a frame regardless of which wing relayed it, so
  // a frame heard across the wing boundary collapses into ONE jframe here
  // (on a wing alone it would have produced partial groups).  The wrapper
  // makes that visible: count jframes whose instances span wings.  Every
  // instance comes from one of the accepted streams, so each radio has a
  // wing.
  const auto counting_sink = [&impl, &wing_of, &sink](JFrame&& jf) {
    ++impl.jframes;
    const auto other_wing = [&wing_of, &jf](const FrameInstance& inst) {
      return wing_of[inst.radio] != wing_of[jf.instances.front().radio];
    };
    if (std::ranges::any_of(jf.instances, other_wing)) {
      ++impl.boundary_jframes;
      impl.boundary_counter.Add(1);
    }
    sink(std::move(jf));
  };

  MergeStreamStats result;
  MergeSession session(traces, impl.config.merge, counting_sink);
  for (;;) {
    // Re-dialing wings resume their parked streams, strays are dropped,
    // and every uplink is drained before the merge pulls.
    door.Step();
    if (session.Poll() == MergeSession::Status::kDone) break;
    // Starved: the wings have not relayed further yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.bootstrap = session.bootstrap();
  result.stats = session.stats();
  return result;
}

}  // namespace jig
