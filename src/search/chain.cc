#include "search/chain.h"

#include <algorithm>
#include <atomic>

#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/timer.h"

namespace cafe {
namespace {

std::atomic<obs::Counter*> g_invocations{nullptr};
std::atomic<obs::Counter*> g_anchors{nullptr};
std::atomic<obs::Counter*> g_kept{nullptr};
std::atomic<obs::Counter*> g_dropped{nullptr};

// Length of the longest collinear chain: anchors usable one after
// another with strictly increasing query AND subject positions.
// Classic reduction to longest-strictly-increasing-subsequence: after
// sorting by (qpos asc, spos desc), a strictly increasing subsequence
// of spos can never take two anchors with equal qpos, so patience
// tails with lower_bound give the answer in O(m log m).
uint32_t LongestChain(std::vector<SeedAnchor>* anchors) {
  std::sort(anchors->begin(), anchors->end(),
            [](const SeedAnchor& a, const SeedAnchor& b) {
              if (a.qpos != b.qpos) return a.qpos < b.qpos;
              return a.spos > b.spos;
            });
  std::vector<uint32_t> tails;
  for (const SeedAnchor& a : *anchors) {
    auto it = std::lower_bound(tails.begin(), tails.end(), a.spos);
    if (it == tails.end()) {
      tails.push_back(a.spos);
    } else {
      *it = a.spos;
    }
  }
  return static_cast<uint32_t>(tails.size());
}

ChainOutcome Passthrough(std::vector<CoarseCandidate> candidates, int band) {
  ChainOutcome out;
  out.kept = std::move(candidates);
  out.band_hints.assign(out.kept.size(), band);
  return out;
}

}  // namespace

ChainOutcome ChainCandidates(std::string_view query,
                             std::vector<CoarseCandidate> candidates,
                             const PostingSource& index,
                             const SearchOptions& options,
                             obs::SearchTrace* trace) {
  const IndexOptions& iopt = index.options();
  if (options.chain_mode != ChainMode::kFilter || candidates.empty() ||
      iopt.granularity != IndexGranularity::kPositional) {
    return Passthrough(std::move(candidates), options.band);
  }
  Result<SeedExtractor> extractor =
      SeedExtractor::Create(iopt.interval_length, iopt.spaced_seed);
  if (!extractor.ok()) {
    // A loaded index has validated options; unreachable in practice.
    return Passthrough(std::move(candidates), options.band);
  }
  WallTimer timer;
  obs::Span chain_span(options.spans, "chain.filter");

  // Diagonal ranking hands each candidate the anchors of its best
  // (frame, frame + 1) window. Candidates ranked without them
  // (hit-count mode) get them from one pass over the postings lists,
  // windowed by the same code.
  const uint32_t frame_width =
      options.frame_width == 0 ? 16 : options.frame_width;
  CollectWindowAnchors(query, index, frame_width, &candidates);

  const int64_t qlen = static_cast<int64_t>(query.size());
  ChainOutcome out;
  out.kept.reserve(candidates.size());
  uint64_t total_anchors = 0;
  std::vector<SeedAnchor> filtered;
  for (CoarseCandidate& cand : candidates) {
    total_anchors += cand.doc_anchors;
    uint32_t chain_len = 0;
    int hint = options.band;
    if (!cand.window_anchors.empty()) {
      filtered = cand.window_anchors;
      chain_len = LongestChain(&filtered);

      // Band hint: half-width covering the window's diagonal range
      // (plus the seed's own span) around the candidate's diagonal.
      // The window's first frame is the frame of its first anchor.
      const SeedAnchor& first = cand.window_anchors.front();
      const int64_t best_frame =
          (static_cast<int64_t>(first.spos) -
           static_cast<int64_t>(first.qpos) + qlen) /
          frame_width;
      const int64_t lo = best_frame * frame_width - qlen;
      const int64_t hi =
          (best_frame + 2) * frame_width - qlen + extractor->window();
      const int64_t center =
          cand.has_diagonal ? cand.diagonal : (lo + hi) / 2;
      const int64_t spread = std::max(center - lo, hi - center);
      hint = static_cast<int>(std::max<int64_t>(options.band, spread));
    }
    if (chain_len >= options.min_chain_score) {
      out.kept.push_back(std::move(cand));
      out.band_hints.push_back(hint);
    }
  }

  const uint64_t dropped = candidates.size() - out.kept.size();
  trace->chain_candidates_in += candidates.size();
  trace->chain_anchors += total_anchors;
  trace->chain_candidates_kept += out.kept.size();
  trace->chain_candidates_dropped += dropped;
  internal::RecordChain(total_anchors, out.kept.size(), dropped);
  trace->chain_micros += timer.Micros();
  return out;
}

void AttachChainMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    g_invocations.store(nullptr, std::memory_order_release);
    g_anchors.store(nullptr, std::memory_order_release);
    g_kept.store(nullptr, std::memory_order_release);
    g_dropped.store(nullptr, std::memory_order_release);
    return;
  }
  g_invocations.store(registry->GetCounter("chain.invocations"),
                      std::memory_order_release);
  g_anchors.store(registry->GetCounter("chain.anchors"),
                  std::memory_order_release);
  g_kept.store(registry->GetCounter("chain.candidates_kept"),
               std::memory_order_release);
  g_dropped.store(registry->GetCounter("chain.candidates_dropped"),
                  std::memory_order_release);
}

namespace internal {

void RecordChain(uint64_t anchors, uint64_t kept, uint64_t dropped) {
  obs::Counter* invocations = g_invocations.load(std::memory_order_acquire);
  if (invocations == nullptr) return;
  invocations->Increment();
  if (anchors != 0) {
    g_anchors.load(std::memory_order_acquire)->Add(anchors);
  }
  if (kept != 0) {
    g_kept.load(std::memory_order_acquire)->Add(kept);
  }
  if (dropped != 0) {
    g_dropped.load(std::memory_order_acquire)->Add(dropped);
  }
}

}  // namespace internal

}  // namespace cafe
