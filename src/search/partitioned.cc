#include "search/partitioned.h"

#include <algorithm>
#include <cstddef>
#include <optional>

#include "align/smith_waterman.h"
#include "index/inverted_index.h"
#include "obs/span.h"
#include "search/chain.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cafe {
namespace {

// Per-worker fine-phase state: its own aligner (DP scratch is
// per-instance), its own top-k, and its own counters, merged
// sequentially after the loop so results are identical to the
// single-threaded path.
struct FineWorker {
  FineWorker(const ScoringScheme& scheme, uint32_t limit)
      : aligner(scheme), top(limit) {}

  Aligner aligner;
  TopHits top;
  std::string seq;
  uint64_t aligned = 0;
  // fine.worker span stamps: first/last candidate touched on this
  // worker and the pool thread that ran it. Recorded via AddSpan after
  // the join (a worker span must carry the pool thread's tid, but only
  // the coordinating thread may assemble the timeline).
  uint64_t span_begin_ns = 0;
  uint64_t span_end_ns = 0;
  uint32_t span_tid = 0;
  // Set when the deadline fired before this worker's share was done.
  bool truncated = false;
  // Lowest candidate index that failed, mirroring the sequential path's
  // fail-on-first-error behaviour deterministically.
  size_t error_index = SIZE_MAX;
  Status error = Status::OK();
};

void AlignCandidate(const SequenceCollection& collection,
                    std::string_view query, const SearchOptions& options,
                    const CoarseCandidate& cand, size_t index,
                    FineWorker* w) {
  if (w->error_index != SIZE_MAX && index > w->error_index) return;
  // Deadline poll between candidates: one clock read (~ns) against an
  // alignment (~µs+), so the fine phase stops within one candidate of
  // the deadline instead of finishing the whole budget.
  if (options.deadline != nullptr &&
      (w->truncated || options.deadline->Expired())) {
    w->truncated = true;
    return;
  }
  Status s = collection.GetSequence(cand.doc, &w->seq);
  if (!s.ok()) {
    if (index < w->error_index) {
      w->error_index = index;
      w->error = s;
    }
    return;
  }
  int score =
      cand.has_diagonal
          ? w->aligner.BandedScore(query, w->seq, cand.diagonal,
                                   options.band)
          : w->aligner.ScoreOnly(query, w->seq);
  ++w->aligned;
  if (score < options.min_score) return;
  SearchHit hit;
  hit.seq_id = cand.doc;
  hit.score = score;
  hit.coarse_score = cand.score;
  w->top.Add(std::move(hit));
}

}  // namespace

Result<SearchResult> PartitionedSearch::Search(std::string_view query,
                                               const SearchOptions& options) {
  CAFE_RETURN_IF_ERROR(options.Validate());
  if (query.size() < static_cast<size_t>(index_->options().interval_length)) {
    return Status::InvalidArgument(
        "query shorter than the index interval length");
  }
  if (!options.seed_pattern.empty()) {
    // A caller that pins the seed shape gets a hard error instead of
    // silently wrong terms when the index was built differently.
    const IndexOptions& iopt = index_->options();
    const std::string effective =
        iopt.spaced_seed.empty()
            ? std::string(static_cast<size_t>(iopt.interval_length), '1')
            : iopt.spaced_seed;
    if (options.seed_pattern != effective) {
      return Status::InvalidArgument("seed_pattern does not match the index "
                                     "(index extracts with '" +
                                     effective + "')");
    }
  }

  WallTimer total;
  obs::SpanRecorder* spans = options.spans;
  obs::Span search_span(spans, "search");
  SearchResult result;
  obs::SearchTrace& trace = result.trace;
  trace.queries = 1;

  // Deadline poll at entry: a request that spent its whole budget
  // queued (or on the forward strand) returns immediately.
  if (options.deadline != nullptr && options.deadline->Expired()) {
    result.truncated = true;
    trace.total_micros = total.Micros();
    return result;
  }

  // Coarse phase: rank by interval evidence, keep the fine-search budget.
  std::vector<CoarseCandidate> candidates = ranker_.Rank(
      query, options.coarse_mode, options.fine_candidates,
      options.frame_width, &trace, spans);

  // Phase boundary: when the deadline fired during the coarse phase,
  // skip fine alignment entirely rather than starting work we cannot
  // finish. The per-candidate polls inside the fine loop handle a
  // deadline that fires mid-phase.
  if (options.deadline != nullptr && options.deadline->Expired()) {
    result.truncated = true;
    candidates.clear();
  }

  // Chaining middle stage: chain the (qpos, spos) anchors of each
  // candidate's best diagonal window, which the coarse phase carried
  // here, and drop candidates without a collinear chain of
  // min_chain_score seeds. A pure pass-through when chaining is off or
  // the index lacks positions. Sequential and deterministic, like the
  // coarse phase.
  ChainOutcome chained = ChainCandidates(query, std::move(candidates),
                                         *index_, options, &trace);
  const std::vector<CoarseCandidate>& survivors = chained.kept;

  // Fine phase: local alignment on the candidates only. Each candidate
  // is independent, so with threads > 1 the candidates are spread over a
  // pool of workers, each with its own aligner; per-worker top-k sets
  // and counters are merged in worker order. Top-k selection under the
  // total order (score desc, seq_id asc) is a pure function of the hit
  // set, so the merged ranking is bit-identical to the sequential one.
  WallTimer fine;
  const uint32_t requested = options.threads == 0
                                 ? ThreadPool::HardwareThreads()
                                 : options.threads;
  const size_t workers =
      std::min<size_t>(std::max<uint32_t>(requested, 1), survivors.size());

  {
    // fine.align covers alignment plus merge; each participating worker
    // additionally gets one fine.worker child (first-to-last candidate
    // on that worker, stamped with the running thread). The sequential
    // path emits the same span names as the pooled one so the timeline
    // shape is thread-count invariant (span_test asserts this).
    obs::Span fine_span(spans, "fine.align");
    if (workers <= 1) {
      // Sequential reference path (--threads 1): no pool is created.
      FineWorker w(options.scoring, options.max_results);
      if (spans != nullptr && !survivors.empty()) {
        w.span_begin_ns = obs::SpanRecorder::NowNanos();
        w.span_tid = obs::DenseThreadId();
      }
      for (size_t i = 0; i < survivors.size(); ++i) {
        AlignCandidate(*collection_, query, options, survivors[i], i, &w);
        if (w.error_index != SIZE_MAX) return w.error;
      }
      if (spans != nullptr && !survivors.empty()) {
        w.span_end_ns = obs::SpanRecorder::NowNanos();
        spans->AddSpan("fine.worker", fine_span.id(), w.span_tid,
                       w.span_begin_ns, w.span_end_ns);
      }
      obs::Span merge_span(spans, "fine.merge");
      result.hits = w.top.Take();
      trace.candidates_aligned += w.aligned;
      trace.cells_computed += w.aligner.cells_computed();
      result.truncated = result.truncated || w.truncated;
    } else {
      std::vector<FineWorker> states;
      states.reserve(workers);
      for (size_t w = 0; w < workers; ++w) {
        states.emplace_back(options.scoring, options.max_results);
      }
      ThreadPool pool(static_cast<unsigned>(workers));
      pool.ParallelFor(survivors.size(), [&](size_t i, unsigned w) {
        FineWorker& state = states[w];
        if (spans != nullptr && state.span_begin_ns == 0) {
          state.span_begin_ns = obs::SpanRecorder::NowNanos();
          state.span_tid = obs::DenseThreadId();
        }
        AlignCandidate(*collection_, query, options, survivors[i], i,
                       &state);
        if (spans != nullptr) {
          state.span_end_ns = obs::SpanRecorder::NowNanos();
        }
      });
      const FineWorker* failed = nullptr;
      for (const FineWorker& w : states) {
        if (w.error_index != SIZE_MAX &&
            (failed == nullptr || w.error_index < failed->error_index)) {
          failed = &w;
        }
      }
      if (failed != nullptr) return failed->error;
      if (spans != nullptr) {
        // The pool has joined, so the stamps are visible here and the
        // coordinating thread can assemble the worker spans.
        for (const FineWorker& w : states) {
          if (w.span_begin_ns == 0) continue;  // never ran a candidate
          spans->AddSpan("fine.worker", fine_span.id(), w.span_tid,
                         w.span_begin_ns, w.span_end_ns);
        }
      }
      obs::Span merge_span(spans, "fine.merge");
      TopHits top(options.max_results);
      for (FineWorker& w : states) {
        for (SearchHit& hit : w.top.Take()) top.Add(std::move(hit));
        trace.candidates_aligned += w.aligned;
        trace.cells_computed += w.aligner.cells_computed();
        result.truncated = result.truncated || w.truncated;
      }
      result.hits = top.Take();
    }
  }

  trace.fine_micros = fine.Micros();

  // Post-processing on the reported hits (at most max_results of them)
  // stays sequential: it is cheap, and keeping it single-threaded keeps
  // the output trivially deterministic. A truncated result skips it —
  // the contract after a deadline is "return what you have, fast".
  WallTimer post;
  obs::Span post_process_span(spans, "post.process");
  // Built only when post-processing aligns: an Aligner fills a
  // 256 x 256 pair-score table (~0.5 ms), most of a short default query.
  std::optional<Aligner> post_aligner;
  if (options.rescore_full || options.traceback) {
    post_aligner.emplace(options.scoring);
  }
  std::string seq;
  if (options.rescore_full && !result.truncated) {
    // Remove band clipping from the reported scores: one full DP per
    // reported hit (cheap — max_results sequences, not the collection).
    for (SearchHit& hit : result.hits) {
      CAFE_RETURN_IF_ERROR(collection_->GetSequence(hit.seq_id, &seq));
      hit.score = post_aligner->ScoreOnly(query, seq);
    }
    std::sort(result.hits.begin(), result.hits.end(),
              [](const SearchHit& a, const SearchHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.seq_id < b.seq_id;
              });
  }

  if (options.traceback && !result.truncated) {
    for (SearchHit& hit : result.hits) {
      CAFE_RETURN_IF_ERROR(collection_->GetSequence(hit.seq_id, &seq));
      // Re-derive the candidate diagonal for a banded traceback; fall
      // back to the full matrix when the coarse phase had no positions.
      // The chain's band hint (>= options.band) widens the traceback
      // window so the reported alignment is not clipped to a band
      // narrower than the anchors it chained.
      const CoarseCandidate* cand = nullptr;
      int traceback_band = options.band;
      for (size_t ci = 0; ci < survivors.size(); ++ci) {
        if (survivors[ci].doc == hit.seq_id) {
          cand = &survivors[ci];
          traceback_band = chained.band_hints[ci];
          break;
        }
      }
      if (cand != nullptr && cand->has_diagonal) {
        Result<LocalAlignment> aln = post_aligner->BandedAlign(
            query, seq, cand->diagonal, traceback_band);
        if (!aln.ok()) return aln.status();
        hit.alignment = std::move(*aln);
      } else {
        Result<LocalAlignment> aln = post_aligner->Align(query, seq);
        if (!aln.ok()) return aln.status();
        hit.alignment = std::move(*aln);
      }
    }
  }

  if (post_aligner.has_value()) {
    trace.cells_computed += post_aligner->cells_computed();
  }
  trace.hits_reported = result.hits.size();
  if (options.statistics.has_value()) {
    AnnotateStatistics(&result, query.size(), collection_->TotalBases(),
                       *options.statistics);
  }
  trace.post_micros = post.Micros();
  trace.total_micros = total.Micros();
  return result;
}

}  // namespace cafe
