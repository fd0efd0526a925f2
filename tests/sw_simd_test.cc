// Oracle tests for the striped and the banded SIMD Smith-Waterman:
// every dispatch tier must return byte-identical scores and cell counts
// (and identical engine-level top-hit sets) to the scalar reference,
// including the saturation fallback.

#include "align/sw_simd.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "align/smith_waterman.h"
#include "obs/metrics.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/random.h"
#include "util/simd.h"

namespace cafe {
namespace {

// Every tier this CPU can actually run (forcing a wider tier than the
// hardware supports would fault inside the kernel).
std::vector<SimdLevel> TestLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectCpuSimdLevel() >= SimdLevel::kSse2)
    levels.push_back(SimdLevel::kSse2);
  if (DetectCpuSimdLevel() >= SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);
  return levels;
}

std::string RandomSeq(size_t len, const std::string& alphabet, Rng* rng) {
  std::string s(len, 'A');
  for (char& c : s) c = alphabet[rng->Uniform(alphabet.size())];
  return s;
}

// Scores q vs t at every tier and checks all agree with scalar.
void ExpectAllTiersAgree(const ScoringScheme& scheme, const std::string& q,
                         const std::string& t) {
  Aligner oracle(scheme);
  oracle.set_simd_level(SimdLevel::kScalar);
  int want = oracle.ScoreOnly(q, t);
  for (SimdLevel level : TestLevels()) {
    Aligner aligner(scheme);
    aligner.set_simd_level(level);
    EXPECT_EQ(aligner.ScoreOnly(q, t), want)
        << SimdLevelName(level) << " |q|=" << q.size() << " |t|=" << t.size();
    // Identical cell accounting keeps stats/traces tier-independent.
    EXPECT_EQ(aligner.cells_computed(), oracle.cells_computed())
        << SimdLevelName(level);
  }
}

// Banded counterpart of ExpectAllTiersAgree: BandedScore and the cell
// accounting must match the scalar oracle at every tier.
void ExpectBandedTiersAgree(const ScoringScheme& scheme, const std::string& q,
                            const std::string& t, int64_t diagonal,
                            int band) {
  Aligner oracle(scheme);
  oracle.set_simd_level(SimdLevel::kScalar);
  int want = oracle.BandedScore(q, t, diagonal, band);
  for (SimdLevel level : TestLevels()) {
    Aligner aligner(scheme);
    aligner.set_simd_level(level);
    EXPECT_EQ(aligner.BandedScore(q, t, diagonal, band), want)
        << SimdLevelName(level) << " |q|=" << q.size() << " |t|=" << t.size()
        << " diagonal=" << diagonal << " band=" << band;
    EXPECT_EQ(aligner.cells_computed(), oracle.cells_computed())
        << SimdLevelName(level);
  }
}

// A centre diagonal anywhere from fully left of the matrix to fully
// right of it.
int64_t RandomDiagonal(size_t m, size_t n, Rng* rng) {
  return static_cast<int64_t>(rng->Uniform(m + n + 40)) -
         static_cast<int64_t>(m) - 20;
}

TEST(SwSimdTest, SupportedMirrorsValidate) {
  ScoringScheme good;
  EXPECT_TRUE(StripedScorer::Supported(good));
  ScoringScheme positive_gap = good;
  positive_gap.gap_open = 3;
  EXPECT_FALSE(StripedScorer::Supported(positive_gap));
  ScoringScheme zero_extend = good;
  zero_extend.gap_extend = 0;
  EXPECT_FALSE(StripedScorer::Supported(zero_extend));
}

TEST(SwSimdTest, RandomPairsAllTiersAgree) {
  Rng rng(11);
  ScoringScheme scheme;
  for (int iter = 0; iter < 400; ++iter) {
    size_t m = 1 + rng.Uniform(120);
    size_t n = 1 + rng.Uniform(300);
    ExpectAllTiersAgree(scheme, RandomSeq(m, "ACGT", &rng),
                        RandomSeq(n, "ACGT", &rng));
  }
}

TEST(SwSimdTest, IupacWildcardsAllTiersAgree) {
  Rng rng(12);
  ScoringScheme scheme;  // iupac_aware, wildcard_score 0
  const std::string soup = "ACGTNRYKMSWBDHV";
  for (int iter = 0; iter < 200; ++iter) {
    ExpectAllTiersAgree(scheme, RandomSeq(1 + rng.Uniform(80), soup, &rng),
                        RandomSeq(1 + rng.Uniform(160), soup, &rng));
  }
}

TEST(SwSimdTest, SchemeSweepAllTiersAgree) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    ScoringScheme scheme;
    scheme.match = 1 + static_cast<int>(rng.Uniform(10));
    scheme.mismatch = -1 - static_cast<int>(rng.Uniform(10));
    scheme.gap_extend = -1 - static_cast<int>(rng.Uniform(6));
    scheme.gap_open =
        scheme.gap_extend - static_cast<int>(rng.Uniform(12));
    scheme.wildcard_score = static_cast<int>(rng.Uniform(5)) - 2;
    ASSERT_TRUE(scheme.Validate().ok());
    ExpectAllTiersAgree(scheme, RandomSeq(1 + rng.Uniform(60), "ACGT", &rng),
                        RandomSeq(1 + rng.Uniform(120), "ACGT", &rng));
  }
}

TEST(SwSimdTest, LinearGapSchemeAgrees) {
  // gap_open == gap_extend exercises the lazy-F loop hardest (every
  // further gapped base costs the same as opening — F chains stay alive
  // long). This case caught a too-eager lazy-F exit in development.
  ScoringScheme scheme;
  scheme.gap_open = -2;
  scheme.gap_extend = -2;
  Rng rng(14);
  for (int iter = 0; iter < 200; ++iter) {
    ExpectAllTiersAgree(scheme, RandomSeq(1 + rng.Uniform(50), "ACGT", &rng),
                        RandomSeq(1 + rng.Uniform(50), "ACGT", &rng));
  }
  // The minimal regression case itself.
  ExpectAllTiersAgree(scheme, "ATGCA", "AC");
}

TEST(SwSimdTest, EdgeShapesAgree) {
  ScoringScheme scheme;
  ExpectAllTiersAgree(scheme, "A", "A");
  ExpectAllTiersAgree(scheme, "A", "T");
  ExpectAllTiersAgree(scheme, "ACGT", std::string(500, 'A'));
  ExpectAllTiersAgree(scheme, std::string(500, 'A'), "ACGT");
  ExpectAllTiersAgree(scheme, std::string(129, 'G'), std::string(257, 'G'));
  // Empty inputs short-circuit before dispatch.
  Aligner aligner(scheme);
  EXPECT_EQ(aligner.ScoreOnly("", "ACGT"), 0);
  EXPECT_EQ(aligner.ScoreOnly("ACGT", ""), 0);
}

TEST(SwSimdTest, SaturationFallsBackToScalar) {
  // 8000 identical bases: score 40000 > INT16_MAX, so the striped
  // kernel must detect saturation and the oracle must serve the call.
  ScoringScheme scheme;
  std::string q(8000, 'A');
  for (SimdLevel level : TestLevels()) {
    Aligner aligner(scheme);
    aligner.set_simd_level(level);
    EXPECT_EQ(aligner.ScoreOnly(q, q), 8000 * scheme.match)
        << SimdLevelName(level);
  }
}

TEST(SwSimdTest, BandedRandomPairsAllTiersAgree) {
  Rng rng(41);
  ScoringScheme scheme;
  for (int iter = 0; iter < 400; ++iter) {
    size_t m = 1 + rng.Uniform(200);
    size_t n = 1 + rng.Uniform(600);
    std::string q = RandomSeq(m, "ACGT", &rng);
    std::string t = RandomSeq(n, "ACGT", &rng);
    if (iter % 2 == 0 && n > m) {
      // Plant a noisy copy of q so the band holds real alignments.
      size_t off = rng.Uniform(n - m + 1);
      for (size_t k = 0; k < m; ++k) {
        if (rng.Uniform(10) != 0) t[off + k] = q[k];
      }
    }
    ExpectBandedTiersAgree(scheme, q, t, RandomDiagonal(m, n, &rng),
                           static_cast<int>(rng.Uniform(100)));
  }
}

TEST(SwSimdTest, BandedIupacWildcardsAllTiersAgree) {
  Rng rng(42);
  ScoringScheme scheme;
  const std::string soup = "ACGTNRYKMSWBDHV";
  for (int iter = 0; iter < 200; ++iter) {
    size_t m = 1 + rng.Uniform(80);
    size_t n = 1 + rng.Uniform(200);
    ExpectBandedTiersAgree(scheme, RandomSeq(m, soup, &rng),
                           RandomSeq(n, soup, &rng),
                           RandomDiagonal(m, n, &rng),
                           static_cast<int>(rng.Uniform(40)));
  }
}

TEST(SwSimdTest, BandedSchemeSweepAllTiersAgree) {
  Rng rng(43);
  for (int iter = 0; iter < 200; ++iter) {
    ScoringScheme scheme;
    scheme.match = 1 + static_cast<int>(rng.Uniform(10));
    scheme.mismatch = -1 - static_cast<int>(rng.Uniform(10));
    scheme.gap_extend = -1 - static_cast<int>(rng.Uniform(6));
    scheme.gap_open =
        scheme.gap_extend - static_cast<int>(rng.Uniform(12));
    scheme.wildcard_score = static_cast<int>(rng.Uniform(5)) - 2;
    ASSERT_TRUE(scheme.Validate().ok());
    size_t m = 1 + rng.Uniform(60);
    size_t n = 1 + rng.Uniform(120);
    ExpectBandedTiersAgree(scheme, RandomSeq(m, "ACGT", &rng),
                           RandomSeq(n, "ACGT", &rng),
                           RandomDiagonal(m, n, &rng),
                           static_cast<int>(rng.Uniform(40)));
  }
}

TEST(SwSimdTest, BandedLinearGapSchemeAgrees) {
  // gap_open == gap_extend: the horizontal scan's "open costs at least
  // as much as extend" premise holds with equality.
  ScoringScheme scheme;
  scheme.gap_open = -2;
  scheme.gap_extend = -2;
  Rng rng(44);
  for (int iter = 0; iter < 200; ++iter) {
    size_t m = 1 + rng.Uniform(50);
    size_t n = 1 + rng.Uniform(50);
    ExpectBandedTiersAgree(scheme, RandomSeq(m, "ACGT", &rng),
                           RandomSeq(n, "ACGT", &rng),
                           RandomDiagonal(m, n, &rng),
                           static_cast<int>(rng.Uniform(30)));
  }
  ExpectBandedTiersAgree(scheme, "ATGCA", "AC", 0, 2);
}

TEST(SwSimdTest, BandedEdgeShapesAgree) {
  ScoringScheme scheme;
  Rng rng(45);
  const std::string q = RandomSeq(90, "ACGT", &rng);
  const std::string t = q.substr(10, 60) + RandomSeq(140, "ACGT", &rng);
  const int64_t m = static_cast<int64_t>(q.size());
  const int64_t n = static_cast<int64_t>(t.size());
  // Band 0, and bands at and beyond the whole matrix (clamped).
  for (int band : {0, 1, 7, 8, 15, 16, 17}) {
    ExpectBandedTiersAgree(scheme, q, t, -10, band);
  }
  ExpectBandedTiersAgree(scheme, q, t, 0, static_cast<int>(m + n));
  ExpectBandedTiersAgree(scheme, q, t, -10, INT32_MAX);
  // Centre diagonals past either end of the target: partial and empty
  // overlaps with the matrix.
  for (int64_t d : {n - 3, n, n + 5, n + 500, 3 - m, -m, -m - 5, -m - 500}) {
    ExpectBandedTiersAgree(scheme, q, t, d, 4);
    ExpectBandedTiersAgree(scheme, q, t, d, 48);
  }
  // 1-base query or target.
  ExpectBandedTiersAgree(scheme, "A", "A", 0, 0);
  ExpectBandedTiersAgree(scheme, "A", t, 12, 3);
  ExpectBandedTiersAgree(scheme, q, "C", -20, 5);
  ExpectBandedTiersAgree(scheme, "G", "G", 5, 48);
  // Query longer than the target.
  ExpectBandedTiersAgree(scheme, t, q, -10, 12);
  ExpectBandedTiersAgree(scheme, std::string(500, 'A'), "ACGTA", -200, 48);
  // Empty inputs and negative bands short-circuit before dispatch.
  Aligner aligner(scheme);
  EXPECT_EQ(aligner.BandedScore("", "ACGT", 0, 4), 0);
  EXPECT_EQ(aligner.BandedScore("ACGT", "", 0, 4), 0);
  EXPECT_EQ(aligner.BandedScore("ACGT", "ACGT", 0, -1), 0);
  EXPECT_EQ(aligner.cells_computed(), 0u);
}

TEST(SwSimdTest, BandedSaturationFallsBackToScalar) {
  // 6600 identical bases: score 33000 > INT16_MAX, so the banded kernel
  // must detect saturation and the oracle must serve the call.
  obs::MetricsRegistry registry;
  AttachAlignSimdMetrics(&registry);
  ScoringScheme scheme;
  std::string q(6600, 'A');
  for (SimdLevel level : TestLevels()) {
    Aligner aligner(scheme);
    aligner.set_simd_level(level);
    EXPECT_EQ(aligner.BandedScore(q, q, 0, 4), 6600 * scheme.match)
        << SimdLevelName(level);
    EXPECT_EQ(aligner.cells_computed(), 6600u * 9) << SimdLevelName(level);
  }
  obs::MetricsSnapshot snap = registry.SnapshotData();
  const uint64_t vector_tiers = TestLevels().size() - 1;
  EXPECT_EQ(snap.counters["align.banded_fallbacks"], vector_tiers);
  EXPECT_EQ(snap.counters["align.banded_scalar_scores"], vector_tiers + 1);
  EXPECT_EQ(snap.counters["align.banded_simd_scores"], 0u);
  AttachAlignSimdMetrics(nullptr);
}

TEST(SwSimdTest, QuerySwitchRebuildsProfile) {
  // One Aligner, alternating queries: the cached striped profile must
  // re-stripe on every query change.
  ScoringScheme scheme;
  Rng rng(15);
  Aligner striped(scheme), oracle(scheme);
  striped.set_simd_level(DetectCpuSimdLevel());
  oracle.set_simd_level(SimdLevel::kScalar);
  std::string q1 = RandomSeq(90, "ACGT", &rng);
  std::string q2 = RandomSeq(33, "ACGT", &rng);
  for (int iter = 0; iter < 20; ++iter) {
    std::string t = RandomSeq(1 + rng.Uniform(200), "ACGT", &rng);
    const std::string& q = (iter % 2 == 0) ? q1 : q2;
    EXPECT_EQ(striped.ScoreOnly(q, t), oracle.ScoreOnly(q, t));
  }
}

TEST(SwSimdTest, MetricsCountDispatch) {
  obs::MetricsRegistry registry;
  AttachAlignSimdMetrics(&registry);
  ScoringScheme scheme;
  Aligner aligner(scheme);
  aligner.set_simd_level(DetectCpuSimdLevel());
  aligner.ScoreOnly("ACGTACGT", "ACGTACGT");
  aligner.BandedScore("ACGTACGT", "ACGTACGT", 0, 4);
  aligner.set_simd_level(SimdLevel::kScalar);
  aligner.ScoreOnly("ACGTACGT", "ACGTACGT");
  aligner.BandedScore("ACGTACGT", "ACGTACGT", 0, 4);
  obs::MetricsSnapshot snap = registry.SnapshotData();
  const bool vector = DetectCpuSimdLevel() != SimdLevel::kScalar;
  EXPECT_EQ(snap.counters["align.striped_scores"], vector ? 1u : 0u);
  EXPECT_EQ(snap.counters["align.scalar_scores"], vector ? 1u : 2u);
  EXPECT_EQ(snap.counters["align.banded_simd_scores"], vector ? 1u : 0u);
  EXPECT_EQ(snap.counters["align.banded_scalar_scores"], vector ? 1u : 2u);
  EXPECT_EQ(snap.counters["align.banded_fallbacks"], 0u);
  AttachAlignSimdMetrics(nullptr);
}

// Engine-level oracle: PartitionedSearch's parallel fine phase must
// produce byte-identical top-hit sets at every tier x thread count.
TEST(SwSimdTest, PartitionedTopHitsIdenticalAcrossTiers) {
  sim::CollectionOptions copt;
  copt.num_sequences = 50;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 21;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 3;
  wopt.query_length = 160;
  wopt.homologs_per_query = 3;
  wopt.seed = 22;
  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  IndexOptions iopt;
  iopt.interval_length = 8;
  iopt.granularity = IndexGranularity::kPositional;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  PartitionedSearch engine(&wl->collection, &index.value());
  // Diagonal mode routes the fine phase through BandedScore (the banded
  // kernels), hit-count mode through ScoreOnly (the striped kernels).
  SearchOptions options;
  options.fine_candidates = 30;
  options.max_results = 10;

  for (CoarseRankMode mode :
       {CoarseRankMode::kDiagonal, CoarseRankMode::kHitCount}) {
    options.coarse_mode = mode;
    for (const sim::PlantedQuery& q : wl->queries) {
      std::vector<std::pair<uint32_t, int>> want;  // scalar, threads=1
      uint64_t want_cells = 0;
      bool have_want = false;
      for (SimdLevel level : TestLevels()) {
        internal::SetActiveSimdLevelForTest(level);
        for (uint32_t threads : {1u, 4u}) {
          options.threads = threads;
          Result<SearchResult> r = engine.Search(q.sequence, options);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          std::vector<std::pair<uint32_t, int>> got;
          got.reserve(r->hits.size());
          for (const SearchHit& h : r->hits) {
            got.emplace_back(h.seq_id, h.score);
          }
          if (!have_want) {
            want = got;
            want_cells = r->trace.cells_computed;
            have_want = true;
          } else {
            EXPECT_EQ(got, want) << SimdLevelName(level)
                                 << " threads=" << threads;
            EXPECT_EQ(r->trace.cells_computed, want_cells)
                << SimdLevelName(level) << " threads=" << threads;
          }
        }
      }
      internal::ResetActiveSimdLevelForTest();
    }
  }
}

// Concurrency hammer for TSan: distinct Aligner instances (the
// per-worker contract) scoring striped and banded concurrently, with
// metrics attached so the counters take the lock-free path in parallel.
TEST(SwSimdTest, ConcurrentAlignersAreIndependent) {
  obs::MetricsRegistry registry;
  AttachAlignSimdMetrics(&registry);
  ScoringScheme scheme;
  Rng seed_rng(33);
  std::string q = RandomSeq(100, "ACGT", &seed_rng);
  std::vector<std::string> targets;
  for (int i = 0; i < 16; ++i) {
    targets.push_back(RandomSeq(150 + 10 * i, "ACGT", &seed_rng));
  }
  Aligner oracle(scheme);
  oracle.set_simd_level(SimdLevel::kScalar);
  std::vector<int> want;
  std::vector<int> want_banded;
  want.reserve(targets.size());
  want_banded.reserve(targets.size());
  for (const std::string& t : targets) {
    want.push_back(oracle.ScoreOnly(q, t));
    want_banded.push_back(oracle.BandedScore(q, t, 20, 24));
  }

  std::vector<std::thread> workers;
  std::vector<int> fails(4, 0);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Aligner aligner(scheme);
      aligner.set_simd_level(DetectCpuSimdLevel());
      for (int rep = 0; rep < 50; ++rep) {
        for (size_t i = 0; i < targets.size(); ++i) {
          if (aligner.ScoreOnly(q, targets[i]) != want[i]) ++fails[w];
          if (aligner.BandedScore(q, targets[i], 20, 24) != want_banded[i]) {
            ++fails[w];
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(fails[w], 0) << "worker " << w;
  AttachAlignSimdMetrics(nullptr);
}

}  // namespace
}  // namespace cafe
