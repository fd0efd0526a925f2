// Vectorized banded Smith-Waterman, score-only.
//
// Aligner::BandedScore — the fine phase of the default (diagonal) search
// path — dispatches here at every vector tier; the kernel is SSE2
// (8 x int16) at all of them. A 16-lane AVX2 copy was somewhat faster
// per call and no faster end to end: each row is a serial chain through
// the horizontal-gap carry, and the vectorized fine phase is a small
// part of a default query (docs/PERFORMANCE.md). The recurrence and the
// band geometry are exactly those of the scalar loop in banded.cc,
// which stays the oracle:
//
//   - Layout. Row i (query base i), slot k covers target base
//     j = i + d0 - band + k, k = 0 .. 2*band. A row is split into
//     ceil((2*band+1) / lanes) vectors; lanes past 2*band are masked to
//     zero so they can neither win the maximum nor feed the next row.
//   - Target profile. One row per distinct query character c, built per
//     call: prof[c][x] = score(c, target[jlo + x - 1]), INT16_MIN where
//     that position lies outside the target. Row i's scores are then one
//     unaligned load at prof[q[i-1]] + (i-1) — no per-cell bounds checks.
//   - Diagonal and vertical terms come from the previous row: slot k is
//     the diagonal neighbour, slot k+1 gives H and F for the vertical
//     gap. E and F clamp at zero (unsigned saturating subtract), exact
//     because H >= 0 everywhere.
//   - Horizontal term. E is a prefix max-plus scan over H0 - gap_open
//     (H0 = H before E), in log steps of 1, 2 and 4 lanes, with one
//     lane carried into the next vector. Scanning H0 instead of H is
//     exact because opening costs at least as much as extending
//     (ScoringScheme::Validate): a gap that starts inside another gap
//     never beats extending it.
//
// A score reaching INT16_MAX saturates; Score() then returns false and
// the caller reruns the 32-bit scalar loop. Reentrancy: same contract as
// Aligner (scratch-per-instance).

#ifndef CAFE_ALIGN_BANDED_SIMD_H_
#define CAFE_ALIGN_BANDED_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "align/scoring.h"

namespace cafe {

class PairScoreTable;

class BandedScorer {
 public:
  explicit BandedScorer(const ScoringScheme& scheme);

  /// Best local alignment score inside the band (|(j - i) - diagonal|
  /// <= band). The caller (Aligner::BandedScore) passes non-empty
  /// sequences and a non-negative band already clamped by
  /// ClampBandToMatrix. Returns true and sets `*score` on success;
  /// returns false — the caller must run the scalar oracle — when the
  /// build has no x86 kernel or the 16-bit score domain saturated. The
  /// scheme must satisfy StripedScorer::Supported; `table` must be
  /// built from it.
  bool Score(const PairScoreTable& table, std::string_view query,
             std::string_view target, int64_t diagonal, int band,
             int* score);

 private:
  uint16_t gap_open_ = 0;    // positive penalty, includes first base
  uint16_t gap_extend_ = 0;  // positive penalty per further base

  std::vector<int16_t> profile_;  // one row per distinct query character
  std::vector<int16_t> h_prev_;
  std::vector<int16_t> h_cur_;
  std::vector<int16_t> f_prev_;
  std::vector<int16_t> f_cur_;
};

}  // namespace cafe

#endif  // CAFE_ALIGN_BANDED_SIMD_H_
