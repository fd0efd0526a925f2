// The traced run: replays queries stage by stage through each layer's
// public functions — CoarseRanker::Rank, ChainCandidates, then
// SequenceCollection::GetSequence and Aligner::BandedScore per survivor,
// then TopHits — recording one span per call from this file, and checks
// the replay's hits against PartitionedSearch::Search.

#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include <string>
#include <vector>

#include "collection/collection.h"
#include "index/posting_source.h"
#include "workloads.h"

namespace perfbench {

/// Per-layer figures of a replay, each averaged per query.
struct ReplayFigures {
  double decode_ms = 0.0;          ///< ScanPostings, no-op callback
  double lists_per_query = 0.0;
  double postings_per_query = 0.0;
  double mpostings_per_s = 0.0;
  double rank_ms = 0.0;            ///< CoarseRanker::Rank
  double candidates_ranked = 0.0;
  double chain_ms = 0.0;           ///< ChainCandidates
  double anchors_per_query = 0.0;
  double chain_kept_frac = 0.0;    ///< kept / in, over all queries
  double fetch_ms = 0.0;           ///< GetSequence, all survivors
  double bases_fetched_per_query = 0.0;
  double dp_ms = 0.0;              ///< BandedScore / ScoreOnly
  double cells_per_query = 0.0;
  double fine_ms = 0.0;            ///< whole fine stage incl. top-k
  double report_frac = 0.0;        ///< reported / aligned
  double replay_ms = 0.0;          ///< whole traced replay of a query
  double engine_ms = 0.0;          ///< PartitionedSearch::Search, untraced
  bool hits_match = false;         ///< replay == engine for every query
  std::string chrome_trace_json;   ///< all spans of the replay
};

/// Replays `queries` (forward strand, `spec`'s server options) over
/// `collection` and `index`, timing PartitionedSearch::Search on each
/// query right after its replay.
cafe::Result<ReplayFigures> ReplayQueries(
    const WorkloadSpec& spec, const cafe::SequenceCollection& collection,
    const cafe::PostingSource& index, const std::vector<std::string>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
