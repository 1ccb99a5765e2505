#include "trace/trace_set.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>

#include "trace/tail_trace.h"

namespace jig {

std::optional<block_codec::StoredUnit> RecordStream::NextUnit(
    std::size_t max_records, Bytes& scratch) {
  // The encoding AppendRecord gives a block: each timestamp a delta from
  // the block's previous record, from 0 for its first.
  Bytes raw;
  std::uint32_t records = 0;
  LocalMicros prev = 0;
  for (const CaptureRecord* rec = nullptr;
       records < max_records && (rec = NextRef()) != nullptr; ++records) {
    SerializeRecord(*rec, prev, raw);
    prev = rec->timestamp;
  }
  if (records == 0) return std::nullopt;
  scratch = LzCompress(raw, block_codec::kTraceFormat.level);
  return block_codec::StoredUnit{scratch, records};
}

std::vector<ChannelShard> TraceSet::PartitionByChannel() {
  std::map<Channel, ChannelShard> by_channel;  // ordered by channel number
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Channel ch = streams_[i]->header().channel;
    auto [it, inserted] = by_channel.try_emplace(ch);
    if (inserted) it->second.channel = ch;
    it->second.traces.Add(std::move(streams_[i]));
    it->second.source_index.push_back(i);
  }
  streams_.clear();
  std::vector<ChannelShard> shards;
  shards.reserve(by_channel.size());
  for (auto& [ch, shard] : by_channel) shards.push_back(std::move(shard));
  return shards;
}

void TraceSet::AdoptShards(std::vector<ChannelShard> shards) {
  if (!streams_.empty()) {
    throw std::logic_error("AdoptShards: target TraceSet is not empty");
  }
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.traces.size();
  streams_.resize(total);
  for (auto& shard : shards) {
    for (std::size_t i = 0; i < shard.traces.size(); ++i) {
      const std::size_t at = shard.source_index[i];
      if (at >= total || streams_[at]) {
        throw std::logic_error("AdoptShards: inconsistent source indices");
      }
      streams_[at] = std::move(shard.traces.streams_[i]);
    }
  }
}

namespace {

namespace fs = std::filesystem;

// Regular *.jigt files in `dir`, in path order.
std::vector<fs::path> TracePaths(const fs::path& dir, std::error_code& ec) {
  std::vector<fs::path> paths;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code type_ec;
    if (it->is_regular_file(type_ec) && it->path().extension() == ".jigt") {
      paths.push_back(it->path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// Streams opened in path order, stably sorted by radio id: the (radio id,
// path) order every trace set of a directory uses.
void SortByRadio(std::vector<std::unique_ptr<RecordStream>>& streams) {
  std::stable_sort(streams.begin(), streams.end(),
                   [](const auto& a, const auto& b) {
                     return a->header().radio < b->header().radio;
                   });
}

}  // namespace

TraceSet TraceSet::OpenDirectory(const fs::path& dir) {
  std::error_code ec;
  const std::vector<fs::path> paths = TracePaths(dir, ec);
  if (ec) throw fs::filesystem_error("cannot read trace directory", dir, ec);
  std::vector<std::unique_ptr<RecordStream>> opened;
  opened.reserve(paths.size());
  for (const auto& p : paths) opened.push_back(std::make_unique<FileTrace>(p));
  SortByRadio(opened);
  TraceSet set;
  set.streams_ = std::move(opened);
  return set;
}

std::vector<std::unique_ptr<RecordStream>> TraceSet::ScanFollowedDirectory(
    const fs::path& dir, std::size_t expected_traces) {
  const std::size_t complete = std::max<std::size_t>(expected_traces, 1);
  std::error_code ec;
  const std::vector<fs::path> paths = TracePaths(dir, ec);
  if (ec || paths.size() < complete) return {};
  std::vector<std::unique_ptr<RecordStream>> opened;
  opened.reserve(paths.size());
  for (const auto& p : paths) {
    // nullptr: the header is still mid-write, so the file does not count
    // yet.
    if (auto tail = TailFileTrace::TryOpen(p)) {
      opened.push_back(std::move(tail));
    }
  }
  if (opened.size() < complete) return {};
  SortByRadio(opened);
  return opened;
}

TraceSet TraceSet::FollowDirectory(const fs::path& dir,
                                   std::size_t expected_traces) {
  constexpr auto kPollInterval = std::chrono::milliseconds(20);
  constexpr auto kTimeout = std::chrono::seconds(30);
  const auto deadline = std::chrono::steady_clock::now() + kTimeout;
  for (;;) {
    auto streams = ScanFollowedDirectory(dir, expected_traces);
    if (!streams.empty()) {
      TraceSet set;
      set.streams_ = std::move(streams);
      return set;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error(
          "FollowDirectory: timed out waiting for traces in " + dir.string());
    }
    std::this_thread::sleep_for(kPollInterval);
  }
}

std::vector<std::filesystem::path> TraceSet::WriteDirectory(
    const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> paths;
  paths.reserve(streams_.size());
  for (auto& stream : streams_) {
    stream->Rewind();
    // Built with += (not operator+ on a temporary) to sidestep the gcc 12
    // -Wrestrict false positive on "literal" + std::to_string(...) chains.
    std::string name = "r";
    name += std::to_string(stream->header().radio);
    name += ".jigt";
    const auto path = dir / name;
    TraceFileWriter writer(path, stream->header());
    while (auto rec = stream->Next()) writer.Append(*rec);
    writer.Finish();
    stream->Rewind();
    paths.push_back(path);
  }
  return paths;
}

}  // namespace jig
