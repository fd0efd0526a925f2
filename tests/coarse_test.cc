#include "search/coarse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "util/random.h"

namespace cafe {
namespace {

// Collection where sequence 1 contains the query verbatim, sequence 2
// shares half of it, and the others are unrelated.
SequenceCollection RankableCollection(const std::string& query) {
  SequenceCollection col;
  EXPECT_TRUE(col.Add("unrelated0", "", "GGGGGGGGGGGGGGGGGGGGGGGGGGGG").ok());
  EXPECT_TRUE(
      col.Add("exact", "", "TTTTTT" + query + "TTTTTT").ok());
  EXPECT_TRUE(col.Add("half", "",
                      "CCCCCC" + query.substr(0, query.size() / 2) +
                          "CCCCCC")
                  .ok());
  EXPECT_TRUE(col.Add("unrelated1", "", "GGGGGGGGGGGGGGGGGGGGGGGGGGGG").ok());
  return col;
}

InvertedIndex BuildIndex(const SequenceCollection& col,
                         IndexGranularity granularity) {
  IndexOptions options;
  options.interval_length = 8;
  options.granularity = granularity;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(*index);
}

const std::string kQuery = "ACGTTGCAGGCATCAGGATTACAGGCATTGCA";

TEST(CoarseRankerTest, HitCountRanksContainingSequenceFirst) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(kQuery, CoarseRankMode::kHitCount, 10, 16,
                           &trace);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].doc, 1u);  // exact container
  EXPECT_EQ(cands[1].doc, 2u);  // half container
  EXPECT_GT(cands[0].score, cands[1].score);
  EXPECT_FALSE(cands[0].has_diagonal);
  EXPECT_GT(trace.postings_decoded, 0u);
  EXPECT_GT(trace.candidates_ranked, 0u);
}

TEST(CoarseRankerTest, DiagonalModeFindsCorrectDiagonal) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands =
      ranker.Rank(kQuery, CoarseRankMode::kDiagonal, 10, 16, &trace);
  ASSERT_GE(cands.size(), 1u);
  EXPECT_EQ(cands[0].doc, 1u);
  ASSERT_TRUE(cands[0].has_diagonal);
  // True diagonal is +6 (query embedded after "TTTTTT"); the frame
  // estimate must be within one frame width.
  EXPECT_NEAR(static_cast<double>(cands[0].diagonal), 6.0, 16.0);
}

TEST(CoarseRankerTest, DiagonalFallsBackOnDocumentIndex) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kDocument);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands =
      ranker.Rank(kQuery, CoarseRankMode::kDiagonal, 10, 16, &trace);
  ASSERT_GE(cands.size(), 1u);
  EXPECT_EQ(cands[0].doc, 1u);
  EXPECT_FALSE(cands[0].has_diagonal);  // hit-count fallback
}

TEST(CoarseRankerTest, LimitRespected) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(kQuery, CoarseRankMode::kHitCount, 1, 16,
                           &trace);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].doc, 1u);
}

TEST(CoarseRankerTest, NoSharedIntervalsYieldsEmpty) {
  SequenceCollection col;
  ASSERT_TRUE(col.Add("a", "", "GGGGGGGGGGGGGGGGGGGG").ok());
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(std::string(20, 'A'),
                           CoarseRankMode::kDiagonal, 10, 16, &trace);
  EXPECT_TRUE(cands.empty());
}

TEST(CoarseRankerTest, DiagonalModeSeparatesScatteredFromCollinear) {
  // Two sequences share the same number of query intervals, but in one
  // they are collinear (true homologue) and in the other scattered.
  // Diagonal ranking must prefer the collinear one; plain hit counting
  // cannot tell them apart.
  std::string q = "ACGTTGCAGGCATCAGGATTACAGGCA";  // 27 bases
  std::string collinear = "TTTTTTTT" + q + "TTTTTTTT";
  // Scattered: same 8-mers but permuted in blocks of 9 with junk between.
  std::string scattered = "TTTTTTTT" + q.substr(18, 9) + "GGGGGGGGGG" +
                          q.substr(0, 9) + "GGGGGGGGGG" + q.substr(9, 9) +
                          "TTTTTTTT";
  SequenceCollection col;
  ASSERT_TRUE(col.Add("collinear", "", collinear).ok());
  ASSERT_TRUE(col.Add("scattered", "", scattered).ok());

  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(q, CoarseRankMode::kDiagonal, 10, 16, &trace);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].doc, 0u);
  EXPECT_GT(cands[0].score, cands[1].score);
}

TEST(CoarseRankerTest, QueryRepeatsDoNotOvercount) {
  // Query with a repeated interval: hit-count scoring uses
  // min(query tf, doc tf).
  std::string unit = "ACGTTGCA";
  std::string q = unit + unit + unit;  // interval ACGTTGCA occurs 3 times
  SequenceCollection col;
  ASSERT_TRUE(col.Add("single", "", "TTTT" + unit + "TTTT").ok());
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(q, CoarseRankMode::kHitCount, 10, 16, &trace);
  ASSERT_EQ(cands.size(), 1u);
  // The doc has each of the repeated-unit intervals once; min() keeps the
  // score bounded by the doc's own count, not the query's 3x repetition.
  EXPECT_LE(cands[0].score, 9.0);
}

// Brute-force diagonal ranking, independent of the index: extracts the
// seeds of every stored sequence directly, counts anchors per frame in
// an ordered map, and takes each sequence's best (frame, frame + 1)
// window, ties to the smallest frame.
struct OracleCandidate {
  uint32_t doc = 0;
  double score = 0.0;
  int64_t diagonal = 0;
  uint64_t total = 0;
  std::vector<SeedAnchor> window;
};

bool AnchorLess(const SeedAnchor& a, const SeedAnchor& b) {
  return a.qpos != b.qpos ? a.qpos < b.qpos : a.spos < b.spos;
}

std::vector<OracleCandidate> OracleDiagonal(const SequenceCollection& col,
                                            const IndexOptions& iopt,
                                            const std::string& query,
                                            uint32_t frame_width,
                                            uint32_t limit) {
  Result<SeedExtractor> ex =
      SeedExtractor::Create(iopt.interval_length, iopt.spaced_seed);
  EXPECT_TRUE(ex.ok());
  std::multimap<uint32_t, uint32_t> qterms;
  ex->ForEach(query, 1, [&](uint32_t pos, uint32_t term) {
    qterms.emplace(term, pos);
  });
  const auto qlen = static_cast<int64_t>(query.size());
  std::vector<OracleCandidate> all;
  std::string seq;
  for (uint32_t doc = 0; doc < col.NumSequences(); ++doc) {
    EXPECT_TRUE(col.GetSequence(doc, &seq).ok());
    std::map<uint64_t, std::vector<SeedAnchor>> frames;
    uint64_t total = 0;
    ex->ForEach(seq, 1, [&](uint32_t spos, uint32_t term) {
      auto [lo, hi] = qterms.equal_range(term);
      for (auto it = lo; it != hi; ++it) {
        const int64_t diag =
            static_cast<int64_t>(spos) - static_cast<int64_t>(it->second);
        frames[static_cast<uint64_t>(diag + qlen) / frame_width].push_back(
            SeedAnchor{it->second, spos});
        ++total;
      }
    });
    if (frames.empty()) continue;
    uint64_t best_frame = 0;
    size_t best_count = 0;
    for (const auto& [frame, anchors] : frames) {
      auto right = frames.find(frame + 1);
      const size_t combined =
          anchors.size() + (right == frames.end() ? 0 : right->second.size());
      if (combined > best_count) {
        best_count = combined;
        best_frame = frame;
      }
    }
    OracleCandidate cand;
    cand.doc = doc;
    cand.score = static_cast<double>(best_count);
    cand.diagonal =
        static_cast<int64_t>((best_frame + 1) * frame_width) - qlen;
    cand.total = total;
    cand.window = frames[best_frame];
    auto right = frames.find(best_frame + 1);
    if (right != frames.end()) {
      cand.window.insert(cand.window.end(), right->second.begin(),
                         right->second.end());
    }
    std::sort(cand.window.begin(), cand.window.end(), AnchorLess);
    all.push_back(std::move(cand));
  }
  std::sort(all.begin(), all.end(),
            [](const OracleCandidate& a, const OracleCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (all.size() > limit) all.resize(limit);
  return all;
}

void ExpectMatchesOracle(const std::vector<CoarseCandidate>& got,
                         const std::vector<OracleCandidate>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << where << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << where << " rank " << i;
    EXPECT_TRUE(got[i].has_diagonal) << where << " rank " << i;
    EXPECT_EQ(got[i].diagonal, want[i].diagonal) << where << " rank " << i;
    EXPECT_EQ(got[i].doc_anchors, want[i].total) << where << " rank " << i;
    std::vector<SeedAnchor> window = got[i].window_anchors;
    std::sort(window.begin(), window.end(), AnchorLess);
    EXPECT_EQ(window, want[i].window) << where << " rank " << i;
  }
}

std::string RandomAcgt(size_t len, Rng* rng) {
  static constexpr char kBases[] = "ACGT";
  std::string s(len, 'A');
  for (char& c : s) c = kBases[rng->Uniform(4)];
  return s;
}

TEST(CoarseRankerTest, DiagonalRankingMatchesBruteForceOracle) {
  // Short seeds over small random collections give many chance anchors
  // and many equal windows, so the tie-break is exercised throughout.
  Rng rng(1607);
  for (std::string_view spaced : {"", "11011", "1101011"}) {
    for (int trial = 0; trial < 12; ++trial) {
      SequenceCollection col;
      const size_t ndocs = 3 + rng.Uniform(10);
      std::string host;
      for (size_t d = 0; d < ndocs; ++d) {
        std::string seq = RandomAcgt(40 + rng.Uniform(260), &rng);
        if (d == 0) host = seq;
        ASSERT_TRUE(col.Add("s" + std::to_string(d), "", seq).ok());
      }
      // Half the queries are a mutated piece of the first sequence.
      std::string query = RandomAcgt(20 + rng.Uniform(60), &rng);
      if (trial % 2 == 0 && host.size() > query.size()) {
        query = host.substr(rng.Uniform(host.size() - query.size()),
                            query.size());
        query[rng.Uniform(query.size())] = 'A';
      }
      IndexOptions iopt;
      iopt.spaced_seed = std::string(spaced);
      iopt.interval_length =
          spaced.empty()
              ? 4 + static_cast<int>(rng.Uniform(3))
              : static_cast<int>(std::count(spaced.begin(), spaced.end(), '1'));
      Result<InvertedIndex> index = IndexBuilder::Build(col, iopt);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      CoarseRanker ranker(&*index);
      for (uint32_t frame_width : {4u, 8u, 16u}) {
        for (uint32_t limit : {3u, 1000u}) {
          obs::SearchTrace trace;
          auto got = ranker.Rank(query, CoarseRankMode::kDiagonal, limit,
                                 frame_width, &trace);
          const std::string where = "seed '" + std::string(spaced) +
                                    "' trial " + std::to_string(trial) +
                                    " frame " + std::to_string(frame_width) +
                                    " limit " + std::to_string(limit);
          ExpectMatchesOracle(
              got, OracleDiagonal(col, iopt, query, frame_width, limit),
              where);
        }
      }
    }
  }
}

TEST(CoarseRankerTest, EqualWindowsGoToTheSmallestFrame) {
  // The sequence holds the query twice, 64 bases apart: two windows
  // with 23 anchors each. The ranking must report the first (frame 1,
  // diagonal 2), not whichever one a hash map happens to visit first.
  const std::string s = "ACGGACAGCAGGACCAGAGCACGGACAAGC";  // 30, no T
  SequenceCollection col;
  ASSERT_TRUE(col.Add("twice", "", s + std::string(64, 'T') + s).ok());
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(s, CoarseRankMode::kDiagonal, 10, 16, &trace);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].score, 23.0);
  EXPECT_EQ(cands[0].doc_anchors, 46u);
  // frame = (diagonal + 30) / 16: copy 1 is frame 1, copy 2 frame 7.
  EXPECT_EQ(cands[0].diagonal, 2 * 16 - 30);
  ASSERT_EQ(cands[0].window_anchors.size(), 23u);
  for (const SeedAnchor& a : cands[0].window_anchors) {
    EXPECT_EQ(a.spos, a.qpos);  // every carried anchor is from copy 1
  }
  IndexOptions iopt;
  ExpectMatchesOracle(cands, OracleDiagonal(col, iopt, s, 16, 10), "twice");
}

TEST(CoarseRankerTest, ConcurrentRankingMatchesSequential) {
  // Each thread windows into its own scratch, so one ranker shared by
  // concurrent queries (the BatchSearch fan-out) gives every query the
  // result it gets alone.
  Rng rng(1608);
  SequenceCollection col;
  for (int d = 0; d < 40; ++d) {
    ASSERT_TRUE(
        col.Add("s" + std::to_string(d), "", RandomAcgt(300, &rng)).ok());
  }
  IndexOptions iopt;
  iopt.interval_length = 5;
  Result<InvertedIndex> index = IndexBuilder::Build(col, iopt);
  ASSERT_TRUE(index.ok());
  CoarseRanker ranker(&*index);
  std::vector<std::string> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(RandomAcgt(80, &rng));

  auto rank_all = [&](std::vector<std::vector<OracleCandidate>>* out) {
    for (const std::string& q : queries) {
      obs::SearchTrace trace;
      std::vector<OracleCandidate> flat;
      for (const CoarseCandidate& c :
           ranker.Rank(q, CoarseRankMode::kDiagonal, 10, 8, &trace)) {
        flat.push_back(OracleCandidate{c.doc, c.score, c.diagonal,
                                       c.doc_anchors, c.window_anchors});
      }
      out->push_back(std::move(flat));
    }
  };
  std::vector<std::vector<OracleCandidate>> sequential;
  rank_all(&sequential);
  std::vector<std::vector<std::vector<OracleCandidate>>> per_thread(4);
  std::vector<std::thread> threads;
  for (auto& out : per_thread) threads.emplace_back(rank_all, &out);
  for (std::thread& t : threads) t.join();
  for (const auto& out : per_thread) {
    ASSERT_EQ(out.size(), sequential.size());
    for (size_t q = 0; q < out.size(); ++q) {
      ASSERT_EQ(out[q].size(), sequential[q].size());
      for (size_t i = 0; i < out[q].size(); ++i) {
        EXPECT_EQ(out[q][i].doc, sequential[q][i].doc);
        EXPECT_EQ(out[q][i].diagonal, sequential[q][i].diagonal);
        EXPECT_EQ(out[q][i].window, sequential[q][i].window);
      }
    }
  }
}

}  // namespace
}  // namespace cafe
