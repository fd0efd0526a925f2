// Local alignment (Smith-Waterman with Gotoh affine gaps).
//
// Aligner bundles a scoring scheme with a precomputed 256x256 pair-score
// table so the O(mn) inner loops are pure table lookups. One Aligner is
// built per search worker and reused across every candidate sequence it
// scores.
//
// Reentrancy contract (scratch-per-instance): the const query methods
// mutate only this instance's DP scratch and cell counter, so distinct
// Aligner instances are safe to use concurrently — the parallel fine
// phase gives every worker thread its own Aligner and sums the
// per-instance cell counts afterwards. A single instance must not be
// shared across threads without external synchronization.

#ifndef CAFE_ALIGN_SMITH_WATERMAN_H_
#define CAFE_ALIGN_SMITH_WATERMAN_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "align/alignment.h"
#include "align/banded_simd.h"
#include "align/scoring.h"
#include "align/sw_simd.h"
#include "util/simd.h"
#include "util/status.h"

namespace cafe {

/// Dense pairwise score lookup built from a ScoringScheme.
class PairScoreTable {
 public:
  explicit PairScoreTable(const ScoringScheme& scheme);

  int operator()(char a, char b) const {
    return table_[static_cast<uint8_t>(a)][static_cast<uint8_t>(b)];
  }

  const int16_t* Row(char a) const {
    return table_[static_cast<uint8_t>(a)].data();
  }

 private:
  std::array<std::array<int16_t, 256>, 256> table_;
};

/// The smallest half-width that still covers every diagonal of a
/// query_len x target_len matrix from centre `diagonal`, if `band` is
/// wider than that; otherwise `band`. A wider band adds only cells
/// outside the matrix, so clamping never changes a score — it bounds
/// the scratch (2*band+1 per row) and the work by the matrix size.
/// BandedScore and BandedAlign apply it before anything else.
int ClampBandToMatrix(size_t query_len, size_t target_len, int64_t diagonal,
                      int band);

class Aligner {
 public:
  explicit Aligner(const ScoringScheme& scheme = ScoringScheme());

  const ScoringScheme& scheme() const { return scheme_; }

  /// Best local alignment score; linear space, O(|q|*|t|) time.
  /// Dispatches to the striped SIMD kernel (align/sw_simd.h) when the
  /// active tier and the scheme allow it; the scalar loop is the oracle
  /// and the saturation fallback. Every tier returns the identical
  /// score and advances cells_computed() identically.
  int ScoreOnly(std::string_view query, std::string_view target) const;

  /// Best local alignment with traceback. Fails with InvalidArgument when
  /// the DP matrix would exceed `max_cells` (one byte per cell).
  Result<LocalAlignment> Align(std::string_view query,
                               std::string_view target,
                               uint64_t max_cells = uint64_t{1} << 26) const;

  /// Banded local alignment score. The band is centred on diagonal
  /// `diagonal` (= target position - query position) with half-width
  /// `band`: only cells with |(j - i) - diagonal| <= band are computed.
  /// This is the fine-search workhorse — candidates arrive from the
  /// coarse phase with a known hit diagonal. A band wider than the
  /// matrix is first clamped to the narrowest one that still covers
  /// every matrix diagonal (ClampBandToMatrix), which bounds scratch
  /// and time by |q|*|t| without changing the score. Dispatches like
  /// ScoreOnly: to the SSE2 banded kernel (align/banded_simd.h) at any
  /// vector tier when the scheme allows it, with the scalar loop as
  /// the oracle and the saturation fallback; every tier returns the
  /// identical score and advances cells_computed() by
  /// |q| * (2 * clamped band + 1).
  int BandedScore(std::string_view query, std::string_view target,
                  int64_t diagonal, int band) const;

  /// Banded local alignment with traceback (always scalar). Clamps the
  /// band like BandedScore.
  Result<LocalAlignment> BandedAlign(std::string_view query,
                                     std::string_view target,
                                     int64_t diagonal, int band) const;

  /// DP cells computed since construction (performance accounting for the
  /// experiments).
  uint64_t cells_computed() const { return cells_; }
  void ResetCellCount() { cells_ = 0; }

  /// The dispatch tier ScoreOnly and BandedScore run at —
  /// ActiveSimdLevel() at construction. The setter is a test hook: the
  /// oracle tests force every tier onto identical inputs without
  /// re-exec'ing under a different CAFE_SIMD_LEVEL.
  SimdLevel simd_level() const { return simd_level_; }
  void set_simd_level(SimdLevel level) { simd_level_ = level; }

 private:
  ScoringScheme scheme_;
  PairScoreTable table_;
  SimdLevel simd_level_;
  bool simd_ok_;  // StripedScorer::Supported: gates striped and banded
  mutable uint64_t cells_ = 0;
  mutable std::vector<int32_t> h_buf_;
  mutable std::vector<int32_t> f_buf_;
  mutable StripedScorer striped_;
  mutable BandedScorer banded_;
};

}  // namespace cafe

#endif  // CAFE_ALIGN_SMITH_WATERMAN_H_
