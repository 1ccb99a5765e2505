#include "jigsaw/unifier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jig {

Unifier::Unifier(TraceSet& traces, const BootstrapResult& bootstrap,
                 UnifierConfig config, JFrameSink sink)
    : traces_(traces), config_(config), sink_(std::move(sink)) {
  const std::size_t n = traces_.size();
  clocks_.reserve(n);
  heads_.resize(n);
  active_.assign(n, false);
  queue_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    clocks_.emplace_back(bootstrap.synced[i] ? bootstrap.offset_us[i] : 0.0,
                         config_.skew_ewma_alpha, config_.min_skew_elapsed,
                         config_.compensate_skew);
    active_[i] = bootstrap.synced[i];
  }
  traces_.RewindAll();
  for (std::size_t i = 0; i < n; ++i) {
    if (active_[i] && !Refill(i)) starved_.push_back(i);
  }
}

void Unifier::QueuePush(QueueEntry entry) {
  queue_.push_back(entry);
  std::push_heap(queue_.begin(), queue_.end(),
                 [](const QueueEntry& a, const QueueEntry& b) { return b < a; });
}

Unifier::QueueEntry Unifier::QueuePopMin() {
  std::pop_heap(queue_.begin(), queue_.end(),
                [](const QueueEntry& a, const QueueEntry& b) { return b < a; });
  const QueueEntry entry = queue_.back();
  queue_.pop_back();
  return entry;
}

bool Unifier::Refill(std::size_t trace) {
  heads_[trace].reset();
  for (;;) {
    const CaptureRecord* rec = traces_.at(trace).NextRef();
    if (!rec) {
      if (!traces_.at(trace).Finalized()) return false;  // live: no data yet
      active_[trace] = false;  // exhausted for good
      return true;
    }
    ++stats_.events_in;
    switch (rec->outcome) {
      case RxOutcome::kOk:
        ++stats_.valid_in;
        break;
      case RxOutcome::kFcsError:
        ++stats_.fcs_error_in;
        break;
      case RxOutcome::kPhyError:
        // PHY errors carry no content to unify; they are trace events only
        // (they count toward Table 1's error fraction).
        ++stats_.phy_error_in;
        continue;
      case RxOutcome::kNotHeard:
        continue;
    }
    Head head;
    head.record = rec;
    head.valid_frame = rec->outcome == RxOutcome::kOk;
    head.unique_reference = head.valid_frame && IsUniqueReference(*rec);
    head.channel = traces_.at(trace).header().channel;
    head.key = MakeContentKey(rec->bytes);
    head.universal = clocks_[trace].ToUniversal(rec->timestamp);
    heads_[trace] = head;
    QueuePush(QueueEntry{head.universal, trace});
    return true;
  }
}

bool Unifier::RefillStarved() {
  if (starved_.empty()) return true;
  std::vector<std::size_t> still_starved;
  for (std::size_t t : starved_) {
    if (!Refill(t)) still_starved.push_back(t);
  }
  starved_ = std::move(still_starved);
  return starved_.empty();
}

UnifyStep Unifier::Step(std::size_t max_jframes) {
  for (std::size_t i = 0; i < max_jframes; ++i) {
    // The group-formation invariant: every active trace has a head queued.
    if (!RefillStarved()) return UnifyStep::kStarved;
    if (queue_.empty()) return UnifyStep::kExhausted;
    ProcessOneGroup();
  }
  if (!queue_.empty() || !starved_.empty()) return UnifyStep::kMore;
  return UnifyStep::kExhausted;
}

void Unifier::Run() {
  for (;;) {
    switch (Step(1024)) {
      case UnifyStep::kMore:
        break;
      case UnifyStep::kExhausted:
        return;
      case UnifyStep::kStarved:
        throw std::logic_error(
            "Unifier::Run over a live trace source; drive it with Step");
    }
  }
}

void Unifier::ProcessOneGroup() {
  // Pop the earliest instance and everything within the search window.
  const QueueEntry seed_entry = QueuePopMin();
  candidates_.clear();
  candidates_.push_back(seed_entry.trace);
  const double window_end =
      seed_entry.universal + static_cast<double>(config_.search_window);
  while (!queue_.empty() && queue_.front().universal <= window_end) {
    candidates_.push_back(QueuePopMin().trace);
  }

  // Choose the representative: the first FCS-valid candidate matching the
  // seed's identity; if the seed itself is corrupted, any valid candidate
  // with the same length/rate stands in.
  const Head& seed = *heads_[seed_entry.trace];
  std::size_t rep_trace = seed_entry.trace;
  if (!seed.valid_frame) {
    for (std::size_t t : candidates_) {
      const Head& h = *heads_[t];
      if (h.valid_frame && h.channel == seed.channel &&
          h.record->orig_len == seed.record->orig_len &&
          h.record->rate == seed.record->rate) {
        rep_trace = t;
        break;
      }
    }
  }
  const Head& rep = *heads_[rep_trace];

  // Partition candidates into the jframe group vs. reinserted leftovers.
  group_.clear();
  leftovers_.clear();
  // Identical bytes can recur quickly for non-unique frames; bound the
  // acceptable spread accordingly.
  const double match_limit =
      rep.unique_reference ? static_cast<double>(config_.search_window)
                           : static_cast<double>(config_.duplicate_window);
  for (std::size_t t : candidates_) {
    const Head& h = *heads_[t];
    bool matches = false;
    const double spread = std::abs(h.universal - rep.universal);
    if (&h == &rep) {
      matches = true;
    } else if (h.channel != rep.channel) {
      // One transmission is only ever captured on one channel (1/6/11 are
      // orthogonal); cross-channel instances are distinct transmissions.
      // This is also what makes channel shards independently unifiable.
      matches = false;
    } else if (spread > match_limit) {
      matches = false;
    } else if (h.valid_frame) {
      // Short-circuit on length/rate/digest; confirm with byte comparison
      // (simultaneous distinct transmissions must not unify).
      matches = rep.valid_frame && h.key == rep.key &&
                h.record->rate == rep.record->rate &&
                h.record->bytes == rep.record->bytes;
    } else {
      // Corrupted instance: attach by physical identity (length + rate);
      // contents are unusable (paper: matched on the transmitter field,
      // never used for higher layers).
      matches = h.record->orig_len == rep.record->orig_len &&
                h.record->rate == rep.record->rate;
    }
    (matches ? group_ : leftovers_).push_back(t);
  }
  for (std::size_t t : leftovers_) {
    QueuePush(QueueEntry{heads_[t]->universal, t});
  }

  if (!rep.valid_frame) {
    // No decodable instance anywhere in the window: the event cannot join a
    // jframe.  (Group is the corrupted seed, possibly plus other corrupted
    // instances — drop them all.)
    for (std::size_t t : group_) {
      ++stats_.error_events_dropped;
      if (!Refill(t)) starved_.push_back(t);
    }
    return;
  }

  // Median timestamp over valid instances.
  valid_times_.clear();
  for (std::size_t t : group_) {
    if (heads_[t]->valid_frame) valid_times_.push_back(heads_[t]->universal);
  }
  std::sort(valid_times_.begin(), valid_times_.end());
  const double median = valid_times_[(valid_times_.size() - 1) / 2];
  const double dispersion = valid_times_.back() - valid_times_.front();

  // Resynchronize from unique frames when dispersion warrants it.
  if (rep.unique_reference &&
      dispersion >= static_cast<double>(config_.resync_dispersion_threshold)) {
    for (std::size_t t : group_) {
      const Head& h = *heads_[t];
      if (!h.valid_frame) continue;
      clocks_[t].ApplyCorrection(h.record->timestamp, median - h.universal);
    }
    ++stats_.resyncs;
  }

  // Build and emit the jframe.
  JFrame jf;
  jf.timestamp = static_cast<UniversalMicros>(median);
  jf.dispersion = static_cast<Micros>(dispersion + 0.5);
  jf.channel = traces_.at(rep_trace).header().channel;
  jf.rate = rep.record->rate;
  jf.wire_len = rep.record->orig_len;
  jf.digest = rep.key.digest;
  if (ParseCaptureInto(*rep.record, parse_scratch_)) {
    jf.frame = std::move(parse_scratch_.frame);
  }
  jf.instances.reserve(group_.size());
  for (std::size_t t : group_) {
    const Head& h = *heads_[t];
    FrameInstance inst;
    inst.radio = traces_.at(t).header().radio;
    inst.local_timestamp = h.record->timestamp;
    inst.universal_timestamp = static_cast<UniversalMicros>(h.universal);
    inst.rssi_dbm = h.record->rssi_dbm;
    inst.outcome = h.record->outcome;
    jf.instances.push_back(inst);
    if (!h.valid_frame) ++stats_.error_instances_attached;
    ++stats_.events_unified;
  }
  ++stats_.jframes;
  // Refill after the jframe is built: advancing a trace invalidates the
  // borrowed record pointers the build above just read.
  for (std::size_t t : group_) {
    if (!Refill(t)) starved_.push_back(t);
  }
  sink_(std::move(jf));
}

}  // namespace jig
