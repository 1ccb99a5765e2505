// jigbench helpers: clocks, statistics, the tracer, the report, and the
// reference every output is checked against.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "jigbench.h"
#include "jigsaw/spill.h"
#include "trace/trace_file.h"

namespace jigbench {

// ------------------------------------------------------------- helpers

double Elapsed(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

namespace {

double CpuSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void JsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double ProcessCpu() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpu() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t CounterValue(const char* name, const std::string& labels) {
  return jig::obs::MetricRegistry::Global().GetCounter(name, "", labels)
      .Value();
}

jig::obs::Gauge& GaugeHandle(const char* name, const std::string& labels) {
  return jig::obs::MetricRegistry::Global().GetGauge(name, "", labels);
}

std::string Label(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + value + "\"";
}

// ------------------------------------------------------------- tracing

Tracer::Tracer(bool on) : on_(on), origin_(Clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::Begin(std::string name, int parent, int tid) {
  if (!on_) return 0;
  const double ts = NowUs();
  std::lock_guard lk(mu_);
  const int id = static_cast<int>(spans_.size()) + 1;
  spans_.push_back({std::move(name), id, parent, tid, ts, ts});
  return id;
}

void Tracer::End(int id) {
  if (id == 0) return;
  const double ts = NowUs();
  std::lock_guard lk(mu_);
  spans_[static_cast<std::size_t>(id) - 1].end_us = ts;
}

void Tracer::Count(std::string name, double value) {
  if (!on_) return;
  const double ts = NowUs();
  std::lock_guard lk(mu_);
  counters_.push_back({std::move(name), ts, value});
}

void Tracer::Write(const fs::path& path, const std::string& run_id) const {
  std::lock_guard lk(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run_id\":";
  JsonString(out, run_id);
  out += "},\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const SpanRecord& s : spans_) {
    sep();
    out += "{\"name\":";
    JsonString(out, s.name);
    out += ",\"cat\":\"jigbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.tid) + ",\"ts\":" + JsonNumber(s.start_us) +
           ",\"dur\":" + JsonNumber(s.end_us - s.start_us) +
           ",\"args\":{\"span_id\":" + std::to_string(s.id) +
           ",\"parent_id\":" + std::to_string(s.parent) + ",\"run_id\":";
    JsonString(out, run_id);
    out += "}}";
  }
  for (const CounterSample& c : counters_) {
    sep();
    out += "{\"name\":";
    JsonString(out, c.name);
    out += ",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" + JsonNumber(c.ts_us) +
           ",\"args\":{\"value\":" + JsonNumber(c.value) + "}}";
  }
  out += "]}\n";
  std::ofstream f(path);
  f << out;
  if (!f) throw std::runtime_error("cannot write trace " + path.string());
}

std::string Tracer::SummaryJson() const {
  std::lock_guard lk(mu_);
  std::map<int, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans_) children[s.parent].push_back(&s);
  struct Sum {
    int count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Sum> by_name;
  for (const SpanRecord& s : spans_) {
    std::vector<std::pair<double, double>> cover;
    for (const SpanRecord* c : children[s.id]) {
      const double a = std::max(c->start_us, s.start_us);
      const double b = std::min(c->end_us, s.end_us);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double reach = s.start_us;
    for (const auto& [a, b] : cover) {
      if (b <= reach) continue;
      covered += b - std::max(a, reach);
      reach = b;
    }
    Sum& sum = by_name[s.name];
    ++sum.count;
    sum.total_us += s.end_us - s.start_us;
    sum.self_us += s.end_us - s.start_us - covered;
  }
  std::string out = "{";
  for (const auto& [name, sum] : by_name) {
    if (out.size() > 1) out += ",";
    JsonString(out, name);
    out += ":{\"count\":" + std::to_string(sum.count) +
           ",\"total_s\":" + JsonNumber(sum.total_us * 1e-6) +
           ",\"self_s\":" + JsonNumber(sum.self_us * 1e-6) + "}";
  }
  return out + "}";
}

// ------------------------------------------------------------- report

void Report::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value, const char* unit) {
  layers_.push_back({name, value, unit});
}

void Report::Fail(std::uint64_t n, const std::string& problem) {
  failed_ += n;
  if (problems_.size() < 16) problems_.push_back(problem);
}

std::string Report::Object(const std::vector<Entry>& entries) {
  std::string out = "{";
  for (const Entry& e : entries) {
    if (out.size() > 1) out += ",";
    JsonString(out, e.name);
    out += ":{\"value\":" + JsonNumber(e.value) + ",\"unit\":";
    JsonString(out, e.unit);
    out += "}";
  }
  return out + "}";
}

std::string Report::Json(const std::string& workload,
                         const Tracer& tracer) const {
  std::string out = "{\"workload\":";
  JsonString(out, workload);
  out += ",\"metrics\":" + Object(metrics_) + ",\"layers\":" +
         Object(layers_) + ",\"check\":{\"attempted\":" +
         std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"problems\":[";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    if (i > 0) out += ",";
    JsonString(out, problems_[i]);
  }
  out += "]}";
  if (tracer.on()) out += ",\"spans\":" + tracer.SummaryJson();
  return out + "}";
}

void FreshnessSummary::Add(const std::vector<double>& ms) {
  if (ms.empty()) return;
  Add(Percentile(ms, 50), Percentile(ms, 99), ms.size());
}

void FreshnessSummary::Add(double p50_ms, double p99_ms, std::size_t samples) {
  samples_ += samples;
  p50s_.push_back(p50_ms);
  p99s_.push_back(p99_ms);
}

double FreshnessSummary::worst_p99() const {
  return p99s_.empty() ? 0.0 : *std::max_element(p99s_.begin(), p99s_.end());
}

// ------------------------------------------------------------ reference

void SaveReference(const fs::path& dir, const Reference& ref) {
  std::ofstream out(dir / "reference.txt");
  const jig::LinkStats& l = ref.link;
  out << "events " << ref.events << "\njframes " << ref.jframes
      << "\nstream_crc " << ref.stream_crc << "\nlink " << l.attempts << ' '
      << l.attempts_inferred << ' ' << l.exchanges << ' '
      << l.exchanges_inferred << ' ' << l.orphan_acks << ' '
      << l.sequence_gaps_flushed << "\noffsets " << ref.offset_us.size();
  for (const std::int64_t o : ref.offset_us) out << ' ' << o;
  out << '\n';
  std::ofstream bin(dir / "jframes.crc", std::ios::binary);
  bin.write(reinterpret_cast<const char*>(ref.jframe_crc.data()),
            static_cast<std::streamsize>(ref.jframe_crc.size() * 4));
  if (!out || !bin) {
    throw std::runtime_error("cannot write reference in " + dir.string());
  }
}

Reference LoadReference(const fs::path& dir) {
  std::ifstream in(dir / "reference.txt");
  if (!in) throw std::runtime_error("missing reference in " + dir.string());
  Reference ref;
  std::string key;
  while (in >> key) {
    if (key == "events") {
      in >> ref.events;
    } else if (key == "jframes") {
      in >> ref.jframes;
    } else if (key == "stream_crc") {
      in >> ref.stream_crc;
    } else if (key == "link") {
      jig::LinkStats& l = ref.link;
      in >> l.attempts >> l.attempts_inferred >> l.exchanges >>
          l.exchanges_inferred >> l.orphan_acks >> l.sequence_gaps_flushed;
    } else if (key == "offsets") {
      std::size_t n = 0;
      in >> n;
      if (n > 65536) throw std::runtime_error("bad reference offsets");
      ref.offset_us.resize(n);
      for (std::int64_t& o : ref.offset_us) in >> o;
    } else {
      throw std::runtime_error("bad reference key '" + key + "'");
    }
  }
  if (ref.jframes > (std::uint64_t{1} << 32)) {
    throw std::runtime_error("bad reference jframe count");
  }
  std::ifstream bin(dir / "jframes.crc", std::ios::binary);
  ref.jframe_crc.resize(ref.jframes);
  bin.read(reinterpret_cast<char*>(ref.jframe_crc.data()),
           static_cast<std::streamsize>(ref.jframes * 4));
  if (!bin) throw std::runtime_error("short jframes.crc in " + dir.string());
  return ref;
}

std::uint32_t Digest::Add(const JFrame& jf) {
  buf_.clear();
  jig::SerializeJFrame(jf, buf_);
  stream_.Update({buf_.data(), buf_.size()});
  return jig::Crc32({buf_.data(), buf_.size()});
}

void Checker::Add(const JFrame& jf) {
  const std::uint32_t crc = digest_.Add(jf);
  if (seen_ < ref_->jframe_crc.size() && crc != ref_->jframe_crc[seen_]) {
    ++mismatched_;
  }
  ++seen_;
}

void Checker::Settle(Report& report, const std::string& what) const {
  report.Attempt(ref_->jframes);
  const std::uint64_t missing =
      seen_ < ref_->jframes ? ref_->jframes - seen_ : 0;
  const std::uint64_t extra = seen_ > ref_->jframes ? seen_ - ref_->jframes : 0;
  // A stream that matched jframe by jframe must also match as a whole.
  const bool stream_ok = digest_.stream() == ref_->stream_crc;
  std::uint64_t bad = missing + extra + mismatched_;
  if (bad == 0 && !stream_ok) bad = 1;
  if (bad > 0) {
    report.Fail(bad, what + ": " + std::to_string(missing) + " missing, " +
                         std::to_string(extra) + " extra, " +
                         std::to_string(mismatched_) +
                         " digest-mismatched jframes" +
                         (stream_ok ? "" : ", stream CRC differs"));
  }
}

bool SameLinkStats(const jig::LinkStats& a, const jig::LinkStats& b) {
  return a.attempts == b.attempts &&
         a.attempts_inferred == b.attempts_inferred &&
         a.exchanges == b.exchanges &&
         a.exchanges_inferred == b.exchanges_inferred &&
         a.orphan_acks == b.orphan_acks &&
         a.sequence_gaps_flushed == b.sequence_gaps_flushed;
}

// ------------------------------------------------------------ captures

std::string FleetName(int k) {
  char name[16];
  std::snprintf(name, sizeof name, "%02d", k);
  return name;
}

Capture LoadCapture(const fs::path& dir, std::string name) {
  Capture cap;
  cap.name = std::move(name);
  cap.dir = dir;
  cap.ref = LoadReference(dir);
  std::vector<std::pair<jig::RadioId, std::uint16_t>> ids;
  std::vector<fs::path> names;
  for (const auto& entry : fs::directory_iterator(cap.traces_dir())) {
    if (entry.path().extension() != ".jigt") continue;
    jig::TraceFileReader reader(entry.path());
    ids.emplace_back(reader.header().radio, reader.header().pod);
    names.push_back(entry.path().filename());
  }
  std::vector<std::size_t> order(ids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ids[a].first < ids[b].first;
  });
  for (const std::size_t i : order) {
    cap.radios.push_back(ids[i].first);
    cap.pods.push_back(ids[i].second);
    cap.files.push_back(cap.traces_dir() / names[i]);
    cap.prefix_files.push_back(cap.prefix_dir() / names[i]);
  }
  if (cap.files.empty() || cap.files.size() != cap.ref.offset_us.size()) {
    throw std::runtime_error("reference and traces disagree in " +
                             dir.string());
  }
  return cap;
}

}  // namespace jigbench
