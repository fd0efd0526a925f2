#include <gtest/gtest.h>

#include <climits>

#include "align/smith_waterman.h"
#include "alphabet/nucleotide.h"
#include "util/random.h"

namespace cafe {
namespace {

std::string RandomSeq(size_t len, Rng* rng) {
  std::string s(len, 'A');
  for (char& c : s) c = CodeToBase(static_cast<int>(rng->Uniform(4)));
  return s;
}

TEST(BandedTest, EmptyAndDegenerate) {
  Aligner aligner;
  EXPECT_EQ(aligner.BandedScore("", "ACGT", 0, 8), 0);
  EXPECT_EQ(aligner.BandedScore("ACGT", "", 0, 8), 0);
  EXPECT_EQ(aligner.BandedScore("ACGT", "ACGT", 0, -1), 0);
}

TEST(BandedTest, PerfectMatchOnCenterDiagonal) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  EXPECT_EQ(aligner.BandedScore("ACGTACGT", "ACGTACGT", 0, 4),
            8 * s.match);
  // Band of zero still covers an exact diagonal alignment.
  EXPECT_EQ(aligner.BandedScore("ACGTACGT", "ACGTACGT", 0, 0),
            8 * s.match);
}

TEST(BandedTest, OffsetDiagonal) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  // Query matches target at offset 6: diagonal = +6.
  std::string q = "ACGTACGT";
  std::string t = "TTTTTT" + q + "CCC";
  EXPECT_EQ(aligner.BandedScore(q, t, 6, 2), 8 * s.match);
  // A band centred on the wrong diagonal (far away) misses the match.
  EXPECT_LT(aligner.BandedScore(q, t, -6, 2), 8 * s.match);
}

TEST(BandedTest, WideBandEqualsFullSmithWaterman) {
  Rng rng(555);
  Aligner aligner;
  for (int trial = 0; trial < 30; ++trial) {
    std::string q = RandomSeq(5 + rng.Uniform(40), &rng);
    std::string t = RandomSeq(5 + rng.Uniform(40), &rng);
    // A band wide enough to cover the entire matrix is exact.
    int band = static_cast<int>(q.size() + t.size());
    int64_t diag =
        (static_cast<int64_t>(t.size()) - static_cast<int64_t>(q.size())) /
        2;
    EXPECT_EQ(aligner.BandedScore(q, t, diag, band),
              aligner.ScoreOnly(q, t))
        << "q=" << q << " t=" << t;
  }
}

TEST(BandedTest, NarrowBandIsLowerBound) {
  Rng rng(777);
  Aligner aligner;
  for (int trial = 0; trial < 30; ++trial) {
    std::string q = RandomSeq(20 + rng.Uniform(40), &rng);
    std::string t = RandomSeq(20 + rng.Uniform(40), &rng);
    int full = aligner.ScoreOnly(q, t);
    for (int band : {0, 2, 8}) {
      EXPECT_LE(aligner.BandedScore(q, t, 0, band), full);
    }
  }
}

TEST(BandedTest, GapWithinBand) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  std::string t = "ACGTAAGCTATTGCACGGAT";
  std::string q = t.substr(0, 10) + "CC" + t.substr(10);
  int expected = 20 * s.match + s.gap_open + s.gap_extend;
  // Diagonal drifts from 0 to -2; band 4 covers it.
  EXPECT_EQ(aligner.BandedScore(q, t, 0, 4), expected);
  EXPECT_EQ(aligner.BandedScore(q, t, -1, 4), expected);
}

TEST(BandedTest, BandedAlignMatchesBandedScore) {
  Rng rng(888);
  Aligner aligner;
  for (int trial = 0; trial < 25; ++trial) {
    std::string q = RandomSeq(10 + rng.Uniform(50), &rng);
    std::string t = RandomSeq(10 + rng.Uniform(50), &rng);
    for (int band : {3, 10}) {
      int score = aligner.BandedScore(q, t, 0, band);
      Result<LocalAlignment> a = aligner.BandedAlign(q, t, 0, band);
      ASSERT_TRUE(a.ok());
      EXPECT_EQ(a->score, score);
    }
  }
}

TEST(BandedTest, BandedAlignTracebackCoordinates) {
  Aligner aligner;
  std::string q = "TTTTACGTACGTTTTT";
  std::string t = "GGGGACGTACGTGGGG";
  Result<LocalAlignment> a = aligner.BandedAlign(q, t, 0, 4);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->query_begin, 4u);
  EXPECT_EQ(a->query_end, 12u);
  EXPECT_EQ(a->target_begin, 4u);
  EXPECT_EQ(a->target_end, 12u);
  EXPECT_EQ(a->Cigar(), "8=");
}

TEST(BandedTest, BandedAlignOnShiftedDiagonal) {
  Aligner aligner;
  std::string q = "ACGTACGTAC";
  std::string t = std::string(25, 'T') + q;
  Result<LocalAlignment> a = aligner.BandedAlign(q, t, 25, 3);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->score, 10 * aligner.scheme().match);
  EXPECT_EQ(a->target_begin, 25u);
  EXPECT_EQ(a->target_end, 35u);
  EXPECT_EQ(a->Identity(), 1.0);
}

TEST(BandedTest, HomologRecoveredThroughIndels) {
  // A banded alignment around the true diagonal must recover most of the
  // score even with scattered indels, as long as drift < band.
  Aligner aligner;
  std::string core = "ACGGTTACAGCATTGACCGTAGGCATCAGGATTACAGGCA";
  std::string q = core;
  // Concatenation (rather than string::insert) sidesteps a GCC 12
  // -Wrestrict false positive (GCC PR105651). Equivalent to inserting
  // "G" at offset 10 and "TT" at offset 30 of the result.
  std::string t = core.substr(0, 10) + "G" + core.substr(10, 19) + "TT" +
                  core.substr(29);
  int banded = aligner.BandedScore(q, t, 0, 8);
  int full = aligner.ScoreOnly(q, t);
  EXPECT_EQ(banded, full);
}

TEST(BandedTest, CellAccountingGrowsWithBand) {
  Aligner aligner;
  std::string q(50, 'A'), t(50, 'A');
  aligner.ResetCellCount();
  aligner.BandedScore(q, t, 0, 2);
  uint64_t narrow = aligner.cells_computed();
  aligner.ResetCellCount();
  aligner.BandedScore(q, t, 0, 20);
  uint64_t wide = aligner.cells_computed();
  EXPECT_LT(narrow, wide);
}

TEST(BandedTest, ClampBandToMatrixCoversEveryDiagonal) {
  // Diagonals of a 300 x 1500 matrix run from -299 to 1499.
  EXPECT_EQ(ClampBandToMatrix(300, 1500, 0, 48), 48);
  EXPECT_EQ(ClampBandToMatrix(300, 1500, 0, INT32_MAX), 1499);
  EXPECT_EQ(ClampBandToMatrix(300, 1500, 1400, INT32_MAX), 1699);
  EXPECT_EQ(ClampBandToMatrix(300, 1500, -299, 1799), 1798);
  // Centres off the matrix keep the distance to its far corner.
  EXPECT_EQ(ClampBandToMatrix(8, 8, 1000, 4), 4);
  EXPECT_EQ(ClampBandToMatrix(8, 8, 1000, 5000), 1007);
  EXPECT_EQ(ClampBandToMatrix(8, 8, -1000, 5000), 1007);
  EXPECT_EQ(ClampBandToMatrix(1, 1, 0, 10), 0);
  EXPECT_EQ(ClampBandToMatrix(8, 8, 0, -1), -1);
}

TEST(BandedTest, BandWiderThanMatrixIsClamped) {
  // A wire band of INT32_MAX would ask for 2^32 cells per scratch row
  // (and per traceback row); clamped to the matrix it costs a full DP
  // and returns the full Smith-Waterman score.
  Rng rng(999);
  std::string q = RandomSeq(300, &rng);
  std::string t = RandomSeq(1500, &rng);
  t.replace(700, 200, q.substr(50, 200));
  for (SimdLevel level : {SimdLevel::kScalar, ActiveSimdLevel()}) {
    Aligner aligner;
    aligner.set_simd_level(level);
    const int full = aligner.ScoreOnly(q, t);
    aligner.ResetCellCount();
    EXPECT_EQ(aligner.BandedScore(q, t, 0, INT32_MAX), full)
        << SimdLevelName(level);
    EXPECT_EQ(aligner.cells_computed(), 300u * (2 * 1499 + 1));
    Result<LocalAlignment> a = aligner.BandedAlign(q, t, 0, INT32_MAX);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->score, full);
    EXPECT_EQ(aligner.BandedScore(q, t, -5000, INT32_MAX), full);
  }
}

TEST(BandedTest, ShortSubjectCountsClampedBandCells) {
  // A 30-base subject at the default band 48: every diagonal of the
  // 20 x 30 matrix lies within 29 of the centre, so the band is clamped
  // to 29 and cells_computed() counts 20 * (2 * 29 + 1), not
  // 20 * (2 * 48 + 1).
  Rng rng(1001);
  std::string q = RandomSeq(20, &rng);
  std::string t = RandomSeq(30, &rng);
  t.replace(5, 20, q);
  ASSERT_EQ(ClampBandToMatrix(20, 30, 0, 48), 29);
  for (SimdLevel level : {SimdLevel::kScalar, ActiveSimdLevel()}) {
    Aligner aligner;
    aligner.set_simd_level(level);
    EXPECT_EQ(aligner.BandedScore(q, t, 0, 48), aligner.ScoreOnly(q, t))
        << SimdLevelName(level);
    aligner.ResetCellCount();
    aligner.BandedScore(q, t, 0, 48);
    EXPECT_EQ(aligner.cells_computed(), 20u * (2 * 29 + 1))
        << SimdLevelName(level);
  }
}

}  // namespace
}  // namespace cafe
