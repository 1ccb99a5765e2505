// The independent reference merge for the determinism pins.
//
// MergeTraces shards by channel and k-way merges the shard outputs for
// every `threads` setting, so comparing one thread count against another
// only checks the pipeline against itself.  This is the plain form of the
// same contract, with no shards, no reorder buffer and no session: global
// bootstrap, one Unifier over the whole set run to completion, then a
// stable sort on (timestamp, channel).  Stable, so jframes with equal keys
// keep the unifier's emission order — the tie rule the pipeline's reorder
// buffers and k-way merge preserve.
#pragma once

#include <algorithm>
#include <tuple>
#include <utility>

#include "jigsaw/bootstrap.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/unifier.h"

namespace jig::testing {

// Batch-only: every trace must be finished (Unifier::Run throws on a live
// source).  Only `config.bootstrap` and `config.unifier` are read.
inline MergeResult ReferenceMerge(TraceSet& traces,
                                  const MergeConfig& config = {}) {
  MergeResult result;
  result.bootstrap = BootstrapSynchronize(traces, config.bootstrap);
  Unifier unifier(traces, result.bootstrap, config.unifier,
                  [&result](JFrame&& jf) {
                    result.jframes.push_back(std::move(jf));
                  });
  unifier.Run();
  result.stats = unifier.stats();
  std::stable_sort(result.jframes.begin(), result.jframes.end(),
                   [](const JFrame& a, const JFrame& b) {
                     return std::tie(a.timestamp, a.channel) <
                            std::tie(b.timestamp, b.channel);
                   });
  return result;
}

}  // namespace jig::testing
