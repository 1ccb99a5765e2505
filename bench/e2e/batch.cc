// jigbench's batch workloads: offline (the paper's post-hoc merge) and
// distributed (two wings relaying over loopback to a root).
#include <array>
#include <exception>
#include <set>
#include <stdexcept>
#include <thread>

#include "jigsaw/distributed.h"
#include "jigsaw/pipeline.h"
#include "layers.h"

namespace jigbench {
namespace {

// Cold starts taken after each measured pair (setup_s).  None come before
// the first pair: the first cold starts of a process also pay its one-time
// warm-up (heap growth, first sockets), which made distributed's first
// eight read 70-100 ms against 30 ms for the rest.
constexpr int kColdStartsPerStep = 4;

jig::TraceSet OpenFiles(const std::vector<fs::path>& files) {
  jig::TraceSet set;
  for (const fs::path& f : files) set.Add(std::make_unique<jig::FileTrace>(f));
  return set;
}

double OfflineColdStart(const Capture& cap) {
  const auto t0 = Clock::now();
  double first = -1;
  jig::TraceSet traces = jig::TraceSet::OpenDirectory(cap.prefix_dir());
  jig::MergeConfig config;
  config.threads = 0;
  jig::MergeSession session(traces, config, [&](JFrame&&) {
    if (first < 0) first = Elapsed(t0, Clock::now());
  });
  session.Drain();
  if (first < 0) throw std::runtime_error("offline cold start: no output");
  return first;
}

// Medians over the measured passes of one batch workload: the workload's
// own passes (`main`) against the interleaved threads=1 single-node ones.
struct BatchTally {
  std::vector<double> main_rates;
  std::vector<double> main_cpu_ns;
  std::vector<double> single_rates;
  std::vector<double> ratios;  // main ÷ single, per pair

  // The end-to-end metrics, plus the single-thread baseline and the
  // same-pair ratio (`ratio_name`), which only batch workloads have.
  void Emit(EndToEnd& e2e, const char* ratio_name, Report& report) const {
    e2e.events_per_s = Median(main_rates);
    e2e.cpu_ns_per_event = Median(main_cpu_ns);
    EmitEndToEnd(report, e2e);
    report.Metric("events_per_s_1t", Median(single_rates), "events/s");
    report.Metric(ratio_name, Median(ratios), "ratio");
  }
};

}  // namespace

void RunOffline(const Capture& cap, double seconds, const fs::path& work,
                Tracer& tracer, int parent, Report& report) {
  const DecodeOnly decode_only = DecodeAll({&cap}, tracer, parent);
  EndToEnd e2e;
  ColdStarts cold(tracer, parent, [&] { return OfflineColdStart(cap); });
  BatchSink sink(report, tracer.on());
  DecodeLedger decode;
  Ledger ledger;
  BatchTally tally;
  const Counters before = Counters::Read();
  RepeatFor(seconds, [&](int pair) {
    double rates[2] = {0, 0};  // [auto, threads=1]
    for (int half = 0; half < 2; ++half) {
      // threads=auto first on even pairs, threads=1 first on odd ones.
      const bool auto_pass = (half == 0) == (pair % 2 == 0);
      const PassStats o =
          MergePass(cap, auto_pass ? 0 : 1, sink,
                    tracer.on() ? &decode : nullptr, ledger, tracer, parent);
      rates[auto_pass ? 0 : 1] = o.rate();
      if (auto_pass) {
        tally.main_rates.push_back(o.rate());
        tally.main_cpu_ns.push_back(o.cpu_ns_per_event());
        sink.AddFreshness(e2e.freshness);
      } else {
        tally.single_rates.push_back(o.rate());
      }
    }
    tally.ratios.push_back(rates[0] / rates[1]);
    cold.Take(kColdStartsPerStep);
  });
  const Counters delta = Counters::Read() - before;
  e2e.setup_s = cold.median();
  tally.Emit(e2e, "speedup_vs_1t", report);
  report.Metric("passes", ledger.passes, "count");
  if (tracer.on()) {
    EmitLayers(report, ledger, decode, delta, decode_only,
               BootstrapSeconds({&cap}, tracer, parent),
               SpillProbe(sink.kept(), work, tracer, parent),
               CheckpointMicros(cap, work));
  }
}

// -------------------------------------------------------- distributed

namespace {

using WingFiles = std::array<std::vector<fs::path>, 2>;

// The two wings: the lower half of the pod ids and the upper half.
WingFiles SplitByPod(const Capture& cap, bool prefix) {
  std::set<std::uint16_t> pods(cap.pods.begin(), cap.pods.end());
  const std::uint16_t cut =
      *std::next(pods.begin(), static_cast<std::ptrdiff_t>(pods.size() / 2));
  WingFiles wings;
  for (std::size_t i = 0; i < cap.files.size(); ++i) {
    wings[cap.pods[i] < cut ? 0 : 1].push_back(prefix ? cap.prefix_files[i]
                                                      : cap.files[i]);
  }
  return wings;
}

struct DistOutcome {
  PassStats pass;
  double first_output_s = -1;
  double root_s = 0;
  double root_cpu_s = 0;
  double wing_cpu_s = 0;
  std::uint64_t relayed = 0;
  std::uint64_t boundary = 0;
};

// Two WingSession threads relay over loopback to an in-process
// RootSession, which merges everything the wings send into `sink`.
DistOutcome DistributedRun(const WingFiles& wings,
                           const std::function<void(JFrame&&)>& sink,
                           DecodeLedger* decode, Tracer& tracer, int parent) {
  DistOutcome out;
  const double cpu0 = ProcessCpu();
  const auto t0 = Clock::now();
  jig::RootConfig rc;
  rc.n_streams = wings[0].size() + wings[1].size();
  rc.merge.threads = 1;
  auto root = std::make_unique<jig::RootSession>(rc);
  const std::uint16_t port = root->port();
  std::array<double, 2> wing_cpu{};
  std::array<std::uint64_t, 2> relayed{};
  std::array<std::exception_ptr, 2> wing_error;
  const auto wing_body = [&](std::size_t w) {
    try {
      Span span(tracer, "wing", parent, 2 + static_cast<int>(w));
      jig::TraceSet files = OpenFiles(wings[w]);
      jig::TraceSet wrapped;
      if (decode != nullptr) wrapped = Wrap(files, *decode);
      jig::WingConfig wc;
      wc.wing_id = static_cast<std::uint32_t>(w + 1);
      wc.root_port = port;
      wc.merge.threads = 1;
      jig::WingSession wing(decode != nullptr ? wrapped : files, wc);
      wing.Run();
      relayed[w] = wing.records_relayed();
    } catch (...) {
      wing_error[w] = std::current_exception();
    }
    wing_cpu[w] = ThreadCpu();
  };
  std::exception_ptr root_error;
  {
    std::jthread w1(wing_body, 0);
    std::jthread w2(wing_body, 1);
    Span span(tracer, "root", parent);
    const double root_cpu0 = ThreadCpu();
    const auto r0 = Clock::now();
    try {
      out.pass.events = root->Run([&](JFrame&& jf) {
                               if (out.first_output_s < 0) {
                                 out.first_output_s =
                                     Elapsed(t0, Clock::now());
                               }
                               sink(std::move(jf));
                             })
                            .stats.events_in;
      out.boundary = root->boundary_jframes();
    } catch (...) {
      root_error = std::current_exception();
    }
    out.root_s = Elapsed(r0, Clock::now());
    out.root_cpu_s = ThreadCpu() - root_cpu0;
    // Closing the listener unblocks a wing still dialing or sending to a
    // root that has given up, so the joins below cannot hang.
    if (root_error) root.reset();
  }
  for (const auto& e : wing_error) {
    if (e) std::rethrow_exception(e);
  }
  if (root_error) std::rethrow_exception(root_error);
  out.pass.wall_s = Elapsed(t0, Clock::now());
  out.pass.cpu_s = ProcessCpu() - cpu0;
  out.wing_cpu_s = wing_cpu[0] + wing_cpu[1];
  out.relayed = relayed[0] + relayed[1];
  return out;
}

double DistributedColdStart(const WingFiles& wings) {
  // No tracer: cold-start wing spans would interleave with the measured
  // passes' threads.
  Tracer quiet(false);
  const DistOutcome o =
      DistributedRun(wings, [](JFrame&&) {}, nullptr, quiet, 0);
  if (o.first_output_s < 0) {
    throw std::runtime_error("distributed cold start: no output");
  }
  return o.first_output_s;
}

}  // namespace

void RunDistributed(const Capture& cap, double seconds, const fs::path& work,
                    Tracer& tracer, int parent, Report& report) {
  const DecodeOnly decode_only = DecodeAll({&cap}, tracer, parent);
  const WingFiles wings = SplitByPod(cap, /*prefix=*/false);
  const WingFiles prefix_wings = SplitByPod(cap, /*prefix=*/true);
  EndToEnd e2e;
  ColdStarts cold(tracer, parent,
                  [&] { return DistributedColdStart(prefix_wings); });
  BatchSink sink(report, tracer.on());
  DecodeLedger decode;
  Ledger ledger;
  BatchTally tally;
  DistOutcome sum;
  const auto uplink_bytes = [] {
    return CounterValue("jig_wing_uplink_bytes_total", Label("wing", "1")) +
           CounterValue("jig_wing_uplink_bytes_total", Label("wing", "2"));
  };
  const std::uint64_t bytes0 = uplink_bytes();
  const Counters before = Counters::Read();
  RepeatFor(seconds, [&](int pair) {
    double rates[2] = {0, 0};  // [distributed, single-node threads=1]
    for (int half = 0; half < 2; ++half) {
      const bool dist_pass = (half == 0) == (pair % 2 == 0);
      if (!dist_pass) {
        const PassStats o =
            MergePass(cap, 1, sink, tracer.on() ? &decode : nullptr, ledger,
                      tracer, parent);
        rates[1] = o.rate();
        tally.single_rates.push_back(o.rate());
        continue;
      }
      Span span(tracer, "pass_distributed", parent);
      sink.Begin(cap, Clock::now());
      const DistOutcome d = DistributedRun(
          wings, [&sink](JFrame&& jf) { sink(std::move(jf)); },
          tracer.on() ? &decode : nullptr, tracer, span.id());
      {
        Span finish(tracer, "finish", span.id());
        sink.Finish(cap.name + " distributed", d.pass.events);
      }
      Account(ledger, d.pass, d.root_s, sink, 0);
      rates[0] = d.pass.rate();
      tally.main_rates.push_back(d.pass.rate());
      tally.main_cpu_ns.push_back(d.pass.cpu_ns_per_event());
      sink.AddFreshness(e2e.freshness);
      sum.root_s += d.root_s;
      sum.root_cpu_s += d.root_cpu_s;
      sum.wing_cpu_s += d.wing_cpu_s;
      sum.relayed += d.relayed;
      sum.boundary += d.boundary;
    }
    tally.ratios.push_back(rates[0] / rates[1]);
    cold.Take(kColdStartsPerStep);
  });
  const Counters delta = Counters::Read() - before;
  const double dist_passes = static_cast<double>(tally.main_rates.size());
  e2e.setup_s = cold.median();
  tally.Emit(e2e, "dist_vs_single", report);
  report.Metric("passes", ledger.passes, "count");
  report.Layer("distributed.wing_cpu_s", sum.wing_cpu_s / dist_passes, "s");
  report.Layer("distributed.root_s", sum.root_s / dist_passes, "s");
  report.Layer("distributed.root_cpu_s", sum.root_cpu_s / dist_passes, "s");
  report.Layer("distributed.uplink_bytes",
               static_cast<double>(uplink_bytes() - bytes0) / dist_passes,
               "bytes");
  report.Layer("distributed.records_relayed",
               static_cast<double>(sum.relayed) / dist_passes, "count");
  report.Layer("distributed.boundary_jframes",
               static_cast<double>(sum.boundary) / dist_passes, "count");
  if (tracer.on()) {
    EmitLayers(report, ledger, decode, delta, decode_only,
               BootstrapSeconds({&cap}, tracer, parent),
               SpillProbe(sink.kept(), work, tracer, parent),
               CheckpointMicros(cap, work));
  }
}

}  // namespace jigbench
