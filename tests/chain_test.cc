#include "search/chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "index/seed_extract.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/partitioned.h"
#include "sim/workload.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::vector<sim::PlantedQuery> queries;
};

Fixture MakeFixture(IndexGranularity granularity,
                    const std::string& spaced_seed = "") {
  sim::CollectionOptions copt;
  copt.num_sequences = 60;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 177;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 4;
  wopt.query_length = 200;
  wopt.homologs_per_query = 3;
  wopt.min_homolog_divergence = 0.03;
  wopt.max_homolog_divergence = 0.12;
  wopt.seed = 31;

  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();

  IndexOptions iopt;
  iopt.interval_length = 8;
  iopt.granularity = granularity;
  iopt.spaced_seed = spaced_seed;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();

  Fixture f;
  f.collection = std::move(wl->collection);
  f.index = std::move(*index);
  f.queries = std::move(wl->queries);
  return f;
}

// Every reportable field of every hit, so "identical" means identical
// bytes-on-the-wire, not just the same ids.
using HitTuple = std::tuple<uint32_t, int, double, int>;

std::vector<HitTuple> Fingerprint(const SearchResult& result) {
  std::vector<HitTuple> out;
  out.reserve(result.hits.size());
  for (const SearchHit& h : result.hits) {
    out.emplace_back(h.seq_id, h.score, h.coarse_score,
                     static_cast<int>(h.strand));
  }
  return out;
}

TEST(ChainTest, ChainingKeepsPlantedHomologs) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;

  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
    for (uint32_t tp : q.true_positives) {
      bool found = false;
      for (const SearchHit& h : r->hits) found |= (h.seq_id == tp);
      EXPECT_TRUE(found) << "chaining dropped planted homologue " << tp;
    }
  }
}

TEST(ChainTest, HitsIdenticalWithChainingOnAndOff) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions off;
  off.max_results = 10;
  off.fine_candidates = 30;
  // The parity contract covers hits above a meaningful score floor:
  // chance-level alignments (one stray seed, score ~100 here vs ~700+
  // for the planted homologues) are exactly what chaining prunes, so a
  // top-10 padded with them would legitimately differ.
  off.min_score = 200;
  SearchOptions on = off;
  on.chain_mode = ChainMode::kFilter;

  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> a = engine.Search(q.sequence, off);
    Result<SearchResult> b = engine.Search(q.sequence, on);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
  }
}

TEST(ChainTest, DeterministicAcrossThreadCounts) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  for (ChainMode mode : {ChainMode::kOff, ChainMode::kFilter}) {
    SearchOptions base;
    base.max_results = 10;
    base.fine_candidates = 30;
    base.chain_mode = mode;

    std::vector<std::string> queries;
    for (const sim::PlantedQuery& q : f.queries) {
      queries.push_back(q.sequence);
    }
    SearchOptions one = base;
    one.threads = 1;
    Result<std::vector<SearchResult>> r1 = engine.BatchSearch(queries, one);
    SearchOptions four = base;
    four.threads = 4;
    Result<std::vector<SearchResult>> r4 = engine.BatchSearch(queries, four);
    ASSERT_TRUE(r1.ok() && r4.ok());
    ASSERT_EQ(r1->size(), r4->size());
    for (size_t i = 0; i < r1->size(); ++i) {
      EXPECT_EQ(Fingerprint((*r1)[i]), Fingerprint((*r4)[i])) << i;
      // The whole funnel — including the chain.* stages — must agree,
      // not just the reported hits.
      EXPECT_EQ((*r1)[i].trace.CountersJson(), (*r4)[i].trace.CountersJson())
          << i;
    }
  }
}

TEST(ChainTest, ChainingShrinksTheFinePhase) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 50;
  options.chain_mode = ChainMode::kFilter;

  uint64_t in = 0;
  uint64_t kept = 0;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok());
    const obs::SearchTrace& trace = r->trace;
    EXPECT_EQ(trace.chain_candidates_in,
              trace.chain_candidates_kept + trace.chain_candidates_dropped);
    EXPECT_EQ(trace.candidates_aligned, trace.chain_candidates_kept);
    EXPECT_GT(trace.chain_anchors, 0u);
    in += trace.chain_candidates_in;
    kept += trace.chain_candidates_kept;
  }
  // The planted workload's noise sequences share intervals by chance
  // but not collinear runs of them: chaining must drop a solid majority.
  EXPECT_GT(in, 0u);
  EXPECT_LE(kept * 2, in);
}

TEST(ChainTest, DocumentGranularityPassesThrough) {
  Fixture f = MakeFixture(IndexGranularity::kDocument);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  const sim::PlantedQuery& q = f.queries[0];
  Result<SearchResult> r = engine.Search(q.sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
  // Without positions the stage is a no-op: nothing enters the funnel.
  EXPECT_EQ(r->trace.chain_candidates_in, 0u);
  EXPECT_EQ(r->trace.chain_candidates_dropped, 0u);
}

TEST(ChainTest, ChainCandidatesPassthroughWhenOff) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  std::vector<CoarseCandidate> candidates(3);
  candidates[0].doc = 5;
  candidates[1].doc = 9;
  candidates[2].doc = 1;
  SearchOptions options;  // chain_mode defaults to kOff
  obs::SearchTrace trace;
  ChainOutcome out = ChainCandidates("ACGTACGTACGT", candidates, f.index,
                                     options, &trace);
  ASSERT_EQ(out.kept.size(), 3u);
  EXPECT_EQ(out.kept[0].doc, 5u);
  EXPECT_EQ(out.kept[2].doc, 1u);
  EXPECT_EQ(out.band_hints,
            (std::vector<int>(3, options.band)));
  EXPECT_EQ(trace.chain_candidates_in, 0u);  // pass-through records nothing
}

// The chaining stage as it was built before the coarse ranker carried
// its anchors: decode the postings a second time for the candidates'
// sequences, bucket each candidate's anchors by frame in an ordered
// map, keep the best (frame, frame + 1) window (ties to the smallest
// frame), and chain it with an O(m^2) longest-collinear-chain DP.
struct ReferenceChain {
  std::vector<CoarseCandidate> kept;
  std::vector<int> band_hints;
  uint64_t anchors = 0;
  uint64_t dropped = 0;
};

uint32_t QuadraticLongestChain(const std::vector<SeedAnchor>& anchors) {
  std::vector<SeedAnchor> a = anchors;
  std::sort(a.begin(), a.end(), [](const SeedAnchor& x, const SeedAnchor& y) {
    return x.qpos != y.qpos ? x.qpos < y.qpos : x.spos < y.spos;
  });
  std::vector<uint32_t> best(a.size(), 1);
  uint32_t longest = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (a[j].qpos < a[i].qpos && a[j].spos < a[i].spos) {
        best[i] = std::max(best[i], best[j] + 1);
      }
    }
    longest = std::max(longest, best[i]);
  }
  return longest;
}

ReferenceChain TwoPassReference(const std::string& query,
                                const std::vector<CoarseCandidate>& cands,
                                const PostingSource& index,
                                const SearchOptions& options) {
  std::set<uint32_t> docs;
  for (const CoarseCandidate& c : cands) docs.insert(c.doc);
  std::map<uint32_t, std::vector<SeedAnchor>> by_doc;
  for (const auto& [term, qpositions] :
       QueryTermPositions(query, index.options())) {
    index.ScanPostings(term, [&](uint32_t doc, uint32_t,
                                 const uint32_t* positions, uint32_t npos) {
      if (docs.count(doc) == 0) return;
      for (uint32_t pi = 0; pi < npos; ++pi) {
        for (uint32_t qpos : qpositions) {
          by_doc[doc].push_back(SeedAnchor{qpos, positions[pi]});
        }
      }
    });
  }
  Result<SeedExtractor> ex = SeedExtractor::Create(
      index.options().interval_length, index.options().spaced_seed);
  EXPECT_TRUE(ex.ok());
  const auto qlen = static_cast<int64_t>(query.size());
  const int64_t fw = options.frame_width;
  ReferenceChain ref;
  for (const CoarseCandidate& cand : cands) {
    const std::vector<SeedAnchor>& a = by_doc[cand.doc];
    ref.anchors += a.size();
    uint32_t chain_len = 0;
    int hint = options.band;
    if (!a.empty()) {
      auto frame_of = [&](const SeedAnchor& x) {
        return (static_cast<int64_t>(x.spos) - x.qpos + qlen) / fw;
      };
      std::map<int64_t, uint32_t> frames;
      for (const SeedAnchor& x : a) ++frames[frame_of(x)];
      int64_t best_frame = 0;
      uint32_t best_count = 0;
      for (const auto& [frame, count] : frames) {
        auto right = frames.find(frame + 1);
        const uint32_t combined =
            count + (right == frames.end() ? 0 : right->second);
        if (combined > best_count) {
          best_count = combined;
          best_frame = frame;
        }
      }
      std::vector<SeedAnchor> window;
      for (const SeedAnchor& x : a) {
        const int64_t f = frame_of(x);
        if (f == best_frame || f == best_frame + 1) window.push_back(x);
      }
      chain_len = QuadraticLongestChain(window);
      const int64_t lo = best_frame * fw - qlen;
      const int64_t hi = (best_frame + 2) * fw - qlen + ex->window();
      const int64_t center = cand.has_diagonal ? cand.diagonal : (lo + hi) / 2;
      hint = static_cast<int>(std::max<int64_t>(
          options.band, std::max(center - lo, hi - center)));
    }
    if (chain_len >= options.min_chain_score) {
      ref.kept.push_back(cand);
      ref.band_hints.push_back(hint);
    } else {
      ++ref.dropped;
    }
  }
  return ref;
}

using CandidateTuple = std::tuple<uint32_t, double, int64_t, bool>;

std::vector<CandidateTuple> Summary(const std::vector<CoarseCandidate>& c) {
  std::vector<CandidateTuple> out;
  for (const CoarseCandidate& x : c) {
    out.emplace_back(x.doc, x.score, x.diagonal, x.has_diagonal);
  }
  return out;
}

TEST(ChainTest, CarriedAnchorsMatchTwoPassReference) {
  for (const std::string spaced : {"", "11011011011"}) {
    Fixture f = MakeFixture(IndexGranularity::kPositional, spaced);
    CoarseRanker ranker(&f.index);
    for (CoarseRankMode mode :
         {CoarseRankMode::kDiagonal, CoarseRankMode::kHitCount}) {
      SearchOptions options;
      options.fine_candidates = 30;
      options.chain_mode = ChainMode::kFilter;
      options.min_chain_score = 8;
      options.coarse_mode = mode;
      uint64_t dropped = 0;
      for (const sim::PlantedQuery& q : f.queries) {
        obs::SearchTrace trace;
        std::vector<CoarseCandidate> cands =
            ranker.Rank(q.sequence, mode, options.fine_candidates,
                        options.frame_width, &trace);
        ASSERT_FALSE(cands.empty());
        const ReferenceChain ref =
            TwoPassReference(q.sequence, cands, f.index, options);
        ChainOutcome out =
            ChainCandidates(q.sequence, cands, f.index, options, &trace);
        const std::string where =
            "seed '" + spaced + "' mode " + std::to_string(static_cast<int>(mode));
        EXPECT_EQ(Summary(out.kept), Summary(ref.kept)) << where;
        EXPECT_EQ(out.band_hints, ref.band_hints) << where;
        EXPECT_EQ(trace.chain_anchors, ref.anchors) << where;
        EXPECT_EQ(trace.chain_candidates_in, cands.size()) << where;
        EXPECT_EQ(trace.chain_candidates_kept, ref.kept.size()) << where;
        EXPECT_EQ(trace.chain_candidates_dropped, ref.dropped) << where;
        EXPECT_EQ(trace.chain_candidates_in,
                  trace.chain_candidates_kept +
                      trace.chain_candidates_dropped)
            << where;
        dropped += trace.chain_candidates_dropped;
      }
      // Both modes filter: hit-count candidates, which carry no
      // anchors, are windowed and chained all the same.
      EXPECT_GT(dropped, 0u) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(ChainTest, RecordsProcessWideCounters) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  obs::MetricsRegistry registry;
  AttachChainMetrics(&registry);
  SearchOptions options;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  AttachChainMetrics(nullptr);  // detach before the registry dies
  obs::MetricsSnapshot snap = registry.SnapshotData();
  EXPECT_GE(snap.counters["chain.invocations"], 1u);
  EXPECT_GT(snap.counters["chain.anchors"], 0u);
  EXPECT_GT(snap.counters["chain.candidates_kept"], 0u);
}

TEST(ChainTest, SpacedSeedIndexSearchesEndToEnd) {
  // Weight-8 pattern, so the vocabulary width matches interval 8.
  Fixture f = MakeFixture(IndexGranularity::kPositional, "11011011011");
  ASSERT_EQ(f.index.options().spaced_seed, "11011011011");
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
  }
}

TEST(ChainTest, SeedPatternGuard) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  // All-ones of the right length matches a contiguous index...
  options.seed_pattern = "11111111";
  EXPECT_TRUE(engine.Search(f.queries[0].sequence, options).ok());
  // ...anything else is a mismatch.
  options.seed_pattern = "11011011011";
  EXPECT_TRUE(engine.Search(f.queries[0].sequence, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ChainTest, ValidateRejectsBadOptions) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  const std::string& q = f.queries[0].sequence;
  {
    SearchOptions options;
    options.max_results = 0;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
  {
    SearchOptions options;
    options.band = -1;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
  {
    SearchOptions options;
    options.frame_width = 0;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
  {
    SearchOptions options;
    options.chain_mode = ChainMode::kFilter;
    options.min_chain_score = 0;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
  {
    SearchOptions options;
    options.seed_pattern = "1x1";
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
}

TEST(ChainTest, ParseChainModeRoundTrips) {
  Result<ChainMode> off = ParseChainMode("off");
  Result<ChainMode> filter = ParseChainMode("filter");
  ASSERT_TRUE(off.ok() && filter.ok());
  EXPECT_EQ(*off, ChainMode::kOff);
  EXPECT_EQ(*filter, ChainMode::kFilter);
  EXPECT_STREQ(ChainModeName(*off), "off");
  EXPECT_STREQ(ChainModeName(*filter), "filter");
  EXPECT_TRUE(ParseChainMode("maximal").status().IsInvalidArgument());
}

}  // namespace
}  // namespace cafe
