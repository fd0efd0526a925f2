// The coarse phase of partitioned search: rank collection sequences by
// interval evidence against the query, using only the compressed inverted
// index — no sequence data is touched.

#ifndef CAFE_SEARCH_COARSE_H_
#define CAFE_SEARCH_COARSE_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/posting_source.h"
#include "search/engine.h"

namespace cafe {

/// One seed match between the query and a sequence: the query and
/// subject positions of the same interval.
struct SeedAnchor {
  uint32_t qpos = 0;
  uint32_t spos = 0;

  bool operator==(const SeedAnchor&) const = default;
};

/// A sequence the coarse phase considers promising.
struct CoarseCandidate {
  uint32_t doc = 0;
  /// Interval-evidence score (hit count, or best combined frame count).
  double score = 0.0;
  /// Best-evidence alignment diagonal (target pos - query pos); only
  /// meaningful when has_diagonal is set (diagonal mode on a positional
  /// index). It is the centre of the best window:
  /// (frame + 1) * frame_width - query length.
  int64_t diagonal = 0;
  bool has_diagonal = false;
  /// Diagonal evidence carried to the chaining stage (search/chain.h),
  /// so it need not decode the postings again. window_anchors holds
  /// the anchors of the best (frame, frame + 1) window, in frame
  /// order; doc_anchors counts every anchor of the sequence, in all
  /// frames. Both are empty/0 in hit-count mode.
  std::vector<SeedAnchor> window_anchors;
  uint64_t doc_anchors = 0;
};

/// The query's interval occurrences grouped by term (term -> query
/// positions), so each postings list is decoded once per pass.
using TermPositions = std::unordered_map<uint32_t, std::vector<uint32_t>>;

/// Extracts the query's TermPositions following the index's own plan
/// (contiguous intervals or its spaced-seed pattern) at stride 1. Empty
/// when `options` holds no valid plan, which a built or loaded index
/// never does.
TermPositions QueryTermPositions(std::string_view query,
                                 const IndexOptions& options);

class CoarseRanker {
 public:
  explicit CoarseRanker(const PostingSource* index) : index_(index) {}

  /// Ranks all matching sequences and returns the best `limit` in
  /// descending score order (ties: smaller doc first). `mode` falls
  /// back to kHitCount when the index lacks positions.
  ///
  /// Diagonal mode makes one pass over the query's postings lists. It
  /// appends one (doc, frame, qpos, spos) anchor per (subject position,
  /// query position) pair of each posting to a per-thread array, where
  /// frame = (spos - qpos + query length) / frame_width. It sorts the
  /// array by (doc, frame) and takes each sequence's best
  /// (frame, frame + 1) window in one linear pass. The score is the
  /// window's anchor count. Ties between equal windows go to the
  /// smallest frame, so the ranking does not depend on the order in
  /// which terms are scanned. Each returned candidate carries the
  /// window's anchors and its sequence's anchor count. Adds the coarse stages of the pruning funnel
  /// to `trace` (interval/term counts, lists touched, postings decoded,
  /// candidates ranked/kept/discarded, coarse_micros); `trace` must be
  /// non-null. When `spans` is non-null, records the coarse.rank span
  /// with a nested index.postings span around the postings decode loop.
  std::vector<CoarseCandidate> Rank(std::string_view query,
                                    CoarseRankMode mode, uint32_t limit,
                                    uint32_t frame_width,
                                    obs::SearchTrace* trace,
                                    obs::SpanRecorder* spans = nullptr) const;

 private:
  std::vector<CoarseCandidate> RankHitCount(std::string_view query,
                                            uint32_t limit,
                                            obs::SearchTrace* trace,
                                            obs::SpanRecorder* spans) const;
  std::vector<CoarseCandidate> RankDiagonal(std::string_view query,
                                            uint32_t limit,
                                            uint32_t frame_width,
                                            obs::SearchTrace* trace,
                                            obs::SpanRecorder* spans) const;

  const PostingSource* index_;
};

/// Fills window_anchors and doc_anchors of every candidate whose
/// doc_anchors is 0, exactly as diagonal ranking at `frame_width`
/// would: one pass over the query's postings lists, restricted to
/// those candidates' sequences, through the same sort-and-window step.
/// Other fields are untouched. For candidates ranked without diagonal
/// evidence (hit-count mode) that the chaining stage still filters.
/// No-op unless the index is positional.
void CollectWindowAnchors(std::string_view query, const PostingSource& index,
                          uint32_t frame_width,
                          std::vector<CoarseCandidate>* candidates);

}  // namespace cafe

#endif  // CAFE_SEARCH_COARSE_H_
