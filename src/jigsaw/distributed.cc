#include "jigsaw/distributed.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
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
  std::vector<bool> finished(impl.uplinks.size(), false);
  std::size_t open = impl.uplinks.size();
  while (open > 0) {
    bool moved = false;
    for (std::size_t i = 0; i < impl.uplinks.size(); ++i) {
      if (finished[i]) continue;
      RecordStream& source = impl.traces.at(i);
      SocketTraceWriter& uplink = *impl.uplinks[i];
      const CaptureRecord* rec = nullptr;
      std::size_t n = 0;
      while (n < per_round && (rec = source.NextRef()) != nullptr) {
        uplink.Append(*rec);
        ++n;
      }
      if (n > 0) {
        uplink.Sync();
        moved = true;
      }
      // Probed past the end of a finalized capture: everything the radio
      // will ever hold is relayed.  Finish its uplink now — like a capture
      // daemon shutting down — so the root's watermark never waits on a
      // radio that has said everything while its wing-mates keep going.
      if (rec == nullptr && source.Finalized()) {
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
  TraceSet traces = AcceptTraces(impl.listener, impl.config.n_streams,
                                 impl.config.accept_timeout_ms,
                                 impl.config.resume_reconnects);
  // Which wing each radio's stream arrived from: the boundary-overlap
  // attribution for the reconciliation counter below.
  std::unordered_map<RadioId, std::uint32_t> wing_of;
  std::vector<SocketTrace*> sockets;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto& st = dynamic_cast<SocketTrace&>(traces.at(i));
    wing_of.emplace(st.header().radio, st.source_id());
    sockets.push_back(&st);
  }

  // The boundary-overlap reconciliation pass: the global unifier groups
  // every radio's copy of a frame regardless of which wing relayed it, so
  // a frame heard across the wing boundary collapses into ONE jframe here
  // (on a wing alone it would have produced partial groups).  The wrapper
  // makes that visible: count jframes whose instances span wings.
  const auto counting_sink = [&impl, &wing_of, &sink](JFrame&& jf) {
    ++impl.jframes;
    std::set<std::uint32_t> wings;
    for (const FrameInstance& inst : jf.instances) {
      const auto it = wing_of.find(inst.radio);
      if (it != wing_of.end()) wings.insert(it->second);
    }
    if (wings.size() > 1) {
      ++impl.boundary_jframes;
      impl.boundary_counter.Add(1);
    }
    sink(std::move(jf));
  };

  MergeStreamStats result;
  MergeSession session(traces, impl.config.merge, counting_sink);
  for (;;) {
    // Pick up re-dialing wings before pulling data: a dead uplink's
    // stream is parked (resumable) and only a resumed connection can
    // unpark it.  A connection with an unknown identity mid-run is not
    // one of our n_streams — drop it rather than let a stray dial wedge
    // or grow the merge.
    if (impl.config.resume_reconnects) {
      for (;;) {
        net::Socket fresh = impl.listener.TryAccept();
        if (!fresh.valid()) break;
        auto stranger = SocketTrace::OpenOrResume(
            std::move(fresh), sockets, impl.config.accept_timeout_ms);
        if (stranger) {
          std::fprintf(stderr,
                       "root: dropping unexpected stream (source %u "
                       "radio %u) — not a resume of any known uplink\n",
                       stranger->source_id(), stranger->header().radio);
        }
      }
    }
    // Drain every wing uplink first — see SocketTrace::Ingest for why
    // skipping currently-unneeded streams can deadlock the senders.
    for (SocketTrace* s : sockets) s->Ingest();
    const auto status = session.Poll();
    if (status == MergeSession::Status::kDone) break;
    // Starved: the wings have not relayed further yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.bootstrap = session.bootstrap();
  result.stats = session.stats();
  return result;
}

}  // namespace jig
