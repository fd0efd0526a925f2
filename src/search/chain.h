// The chaining middle stage of partitioned search: between the coarse
// interval ranking and the fine (DP) alignment phase, take each coarse
// candidate's seed matches in its best diagonal window as (query
// position, subject position) anchors and keep only the candidates
// whose anchors form a collinear chain — the localization step the
// positional-index DNA engines build on (arXiv:1307.0194,
// arXiv:1006.4114). It shrinks the fine phase's candidate count.
//
// Diagonal ranking already windows every sequence's anchors, so its
// candidates carry their best-window anchors (CoarseCandidate::
// window_anchors) and this stage decodes no postings. Hit-count
// candidates carry none; for them the stage makes one pass over the
// query's postings lists, restricted to the candidates, through the
// same windowing code (CollectWindowAnchors).
//
// The stage is deliberately conservative: it only *drops* candidates
// (never reorders or rescores them), and its band hints only widen the
// traceback window (candidate scoring keeps the caller's band), so the
// surviving hits are byte-identical to what the same options produce
// with chaining off whenever the dropped candidates were not going to
// be reported — the property bench/baselines/chain.json gates.

#ifndef CAFE_SEARCH_CHAIN_H_
#define CAFE_SEARCH_CHAIN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "index/posting_source.h"
#include "search/coarse.h"
#include "search/engine.h"

namespace cafe {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Output of the chaining stage.
struct ChainOutcome {
  /// Surviving candidates, in the coarse ranking's order.
  std::vector<CoarseCandidate> kept;
  /// Per-kept-candidate banded-alignment hint, parallel to `kept`: a
  /// half-width covering the diagonal window the candidate's filtered
  /// anchors span, never below the requested band. Consumed by the
  /// traceback step so reported alignments are not clipped to a window
  /// narrower than the chain; candidate *scoring* keeps the caller's
  /// band so the ranking is identical with chaining on or off.
  std::vector<int> band_hints;
};

/// Runs the diagonal-filter + collinear-chaining stage on the anchors
/// each candidate carries from CoarseRanker::Rank, which must have
/// ranked at options.frame_width. Candidates without carried anchors
/// (doc_anchors == 0, as hit-count ranking leaves them) get theirs
/// from one pass over the postings lists. Passes every candidate
/// through untouched (hints = options.band) when chaining is off, the
/// index lacks positions, or there are no candidates; when active,
/// adds the chain.* funnel to `trace` (chain_micros,
/// chain_candidates_in/anchors/kept/dropped, where chain_anchors counts
/// every anchor of each candidate's sequence; must be non-null) and the
/// process-wide chain.* counters. Deterministic: depends only on
/// (query, index, candidates, options), never on thread count.
ChainOutcome ChainCandidates(std::string_view query,
                             std::vector<CoarseCandidate> candidates,
                             const PostingSource& index,
                             const SearchOptions& options,
                             obs::SearchTrace* trace);

/// Mirrors the chaining stage's process-wide counters into `registry`
/// (chain.invocations, chain.anchors, chain.candidates_kept,
/// chain.candidates_dropped). Null detaches. Same idiom as
/// AttachPackedScanMetrics: relaxed-atomic counter pointers, zero cost
/// when detached.
void AttachChainMetrics(obs::MetricsRegistry* registry);

namespace internal {
/// Hot-path hook behind AttachChainMetrics; no-op when detached.
void RecordChain(uint64_t anchors, uint64_t kept, uint64_t dropped);
}  // namespace internal

}  // namespace cafe

#endif  // CAFE_SEARCH_CHAIN_H_
