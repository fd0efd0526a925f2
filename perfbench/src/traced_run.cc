#include "traced_run.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "align/smith_waterman.h"
#include "bench_math.h"
#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "load.h"
#include "obs/span.h"
#include "search/chain.h"
#include "search/coarse.h"
#include "search/partitioned.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// PostingSource decorator that times ScanPostings. Single-threaded: the
// replay drives it from one thread.
class TimedPostingSource final : public cafe::PostingSource {
 public:
  explicit TimedPostingSource(const cafe::PostingSource* inner)
      : inner_(inner) {}

  const cafe::IndexOptions& options() const override {
    return inner_->options();
  }
  uint32_t num_docs() const override { return inner_->num_docs(); }
  const cafe::TermEntry* FindTerm(uint32_t term) const override {
    return inner_->FindTerm(term);
  }
  void ScanPostings(uint32_t term,
                    const cafe::PostingCallback& fn) const override {
    const Clock::time_point start = Clock::now();
    inner_->ScanPostings(term, fn);
    nanos_ += NanosSince(start);
  }

  uint64_t nanos() const { return nanos_; }

 private:
  const cafe::PostingSource* inner_;
  mutable uint64_t nanos_ = 0;
};

// The query's distinct terms, extracted the way the coarse phase does.
std::vector<uint32_t> DistinctTerms(std::string_view query,
                                    const cafe::IndexOptions& options) {
  std::vector<uint32_t> terms;
  cafe::Result<cafe::SeedExtractor> extractor = cafe::SeedExtractor::Create(
      options.interval_length, options.spaced_seed);
  if (!extractor.ok()) return terms;
  extractor->ForEach(query, /*stride=*/1,
                     [&](uint32_t, uint32_t term) { terms.push_back(term); });
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

struct NameTotals {
  uint64_t duration_ns = 0;
  uint64_t self_ns = 0;
};

}  // namespace

cafe::Result<ReplayFigures> ReplayQueries(
    const WorkloadSpec& spec, const cafe::SequenceCollection& collection,
    const cafe::PostingSource& index,
    const std::vector<std::string>& queries) {
  ReplayFigures out;
  if (queries.empty()) return cafe::Status::InvalidArgument("no queries");

  const cafe::SearchOptions options =
      ServerOptions(spec, MakeRequest(queries.front(), false));
  cafe::obs::SpanRecorder spans(
      /*trace_id=*/0x7065726662656E63ull,
      queries.size() * (8 + 2 * size_t{options.fine_candidates}) + 16);
  TimedPostingSource timed(&index);
  cafe::CoarseRanker ranker(&index);
  cafe::Aligner aligner(options.scoring);
  cafe::PartitionedSearch engine(&collection, &index);

  uint64_t lists = 0, postings = 0, ranked = 0, anchors = 0;
  uint64_t chain_in = 0, chain_kept = 0, bases = 0, aligned = 0;
  uint64_t reported = 0, engine_ns = 0;
  bool all_match = true;
  std::string seq;
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& query = queries[i];
    auto run_engine = [&]() -> cafe::Result<cafe::SearchResult> {
      const Clock::time_point start = Clock::now();
      cafe::Result<cafe::SearchResult> result = engine.Search(query, options);
      engine_ns += NanosSince(start);
      return result;
    };
    // Alternate which side runs first so neither always finds the
    // other's cache state.
    std::optional<cafe::Result<cafe::SearchResult>> reference;
    if (i % 2 == 1) reference.emplace(run_engine());

    {
      cafe::obs::Span decode_span(&spans, "index.decode");
      for (uint32_t term : DistinctTerms(query, index.options())) {
        if (timed.FindTerm(term) == nullptr) continue;
        ++lists;
        timed.ScanPostings(
            term, [&](uint32_t, uint32_t, const uint32_t*, uint32_t) {
              ++postings;
            });
      }
    }

    std::vector<cafe::SearchHit> hits;
    {
      cafe::obs::Span query_span(&spans, "replay.query");
      cafe::SearchStats stats;
      std::vector<cafe::CoarseCandidate> candidates;
      {
        cafe::obs::Span span(&spans, "coarse.rank");
        candidates = ranker.Rank(query, options.coarse_mode,
                                 options.fine_candidates,
                                 options.frame_width, &stats);
      }
      ranked += stats.candidates_ranked;
      chain_in += candidates.size();
      cafe::obs::SearchTrace trace;
      cafe::ChainOutcome chained;
      {
        cafe::obs::Span span(&spans, "search.chain");
        chained = cafe::ChainCandidates(query, std::move(candidates), index,
                                        options, &trace);
      }
      anchors += trace.chain_anchors;
      chain_kept += chained.kept.size();
      {
        cafe::obs::Span fine_span(&spans, "search.fine");
        cafe::TopHits top(options.max_results);
        for (const cafe::CoarseCandidate& cand : chained.kept) {
          cafe::Status fetched = cafe::Status::OK();
          {
            cafe::obs::Span span(&spans, "seqstore.fetch");
            fetched = collection.GetSequence(cand.doc, &seq);
          }
          CAFE_RETURN_IF_ERROR(fetched);
          bases += seq.size();
          int score = 0;
          {
            cafe::obs::Span span(&spans, "align.dp");
            score = cand.has_diagonal
                        ? aligner.BandedScore(query, seq, cand.diagonal,
                                              options.band)
                        : aligner.ScoreOnly(query, seq);
          }
          ++aligned;
          if (score < options.min_score) continue;
          cafe::SearchHit hit;
          hit.seq_id = cand.doc;
          hit.score = score;
          hit.coarse_score = cand.score;
          top.Add(std::move(hit));
        }
        cafe::obs::Span span(&spans, "fine.topk");
        hits = top.Take();
      }
    }
    reported += hits.size();

    if (i % 2 == 0) reference.emplace(run_engine());
    if (!reference->ok()) return reference->status();
    all_match = all_match && SameHits(hits, (*reference)->hits);
  }
  if (spans.dropped() > 0) {
    return cafe::Status::Internal("span arena too small for the replay");
  }

  const std::vector<cafe::obs::SpanEvent> events = spans.Snapshot();
  const std::vector<uint64_t> self = SelfTimes(events);
  std::map<std::string, NameTotals> by_name;
  for (size_t i = 0; i < events.size(); ++i) {
    NameTotals& totals = by_name[events[i].name];
    totals.duration_ns += events[i].end_ns - events[i].begin_ns;
    totals.self_ns += self[i];
  }
  const double q = static_cast<double>(queries.size());
  auto self_ms = [&](const char* name) {
    return static_cast<double>(by_name[name].self_ns) / 1e6 / q;
  };
  auto span_ms = [&](const char* name) {
    return static_cast<double>(by_name[name].duration_ns) / 1e6 / q;
  };
  out.decode_ms = static_cast<double>(timed.nanos()) / 1e6 / q;
  out.lists_per_query = static_cast<double>(lists) / q;
  out.postings_per_query = static_cast<double>(postings) / q;
  out.mpostings_per_s =
      timed.nanos() == 0 ? 0.0
                         : static_cast<double>(postings) * 1e3 /
                               static_cast<double>(timed.nanos());
  out.rank_ms = self_ms("coarse.rank");
  out.candidates_ranked = static_cast<double>(ranked) / q;
  out.chain_ms = self_ms("search.chain");
  out.anchors_per_query = static_cast<double>(anchors) / q;
  out.chain_kept_frac =
      chain_in == 0 ? 0.0
                    : static_cast<double>(chain_kept) /
                          static_cast<double>(chain_in);
  out.fetch_ms = self_ms("seqstore.fetch");
  out.bases_fetched_per_query = static_cast<double>(bases) / q;
  out.dp_ms = self_ms("align.dp");
  out.cells_per_query = static_cast<double>(aligner.cells_computed()) / q;
  out.fine_ms = span_ms("search.fine");
  out.report_frac = aligned == 0 ? 0.0
                                 : static_cast<double>(reported) /
                                       static_cast<double>(aligned);
  out.replay_ms = span_ms("replay.query");
  out.engine_ms = static_cast<double>(engine_ns) / 1e6 / q;
  out.hits_match = all_match;
  out.chrome_trace_json = spans.ChromeTraceJson();
  return out;
}

}  // namespace perfbench
