// Banded local alignment. The band is centred on a diagonal supplied by
// the coarse phase (interval hits fix the diagonal of a putative
// alignment) so fine search costs O(|q| * band) instead of O(|q| * |t|).
//
// Band geometry: cell (i, j) — query base i, target base j, 1-based — is
// inside the band when j - i is within `band` of the centre diagonal d0.
// Row i covers k = 0 .. 2*band, with j = i + d0 - band + k. Under this
// indexing the previous row's slot k is the diagonal neighbour and slot
// k+1 the vertical neighbour, so one array updated in place (ascending k)
// suffices: slot k is read (diag) in iteration k and slot k+1 (vertical)
// before either is overwritten.

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "align/smith_waterman.h"

namespace cafe {
namespace {

constexpr int32_t kNegInf = INT32_MIN / 4;

constexpr uint8_t kHStop = 0;
constexpr uint8_t kHDiag = 1;
constexpr uint8_t kHFromE = 2;  // horizontal: gap consuming a target base
constexpr uint8_t kHFromF = 3;  // vertical: gap consuming a query base
constexpr uint8_t kHMask = 3;
constexpr uint8_t kEExtend = 4;
constexpr uint8_t kFExtend = 8;

struct BandedResult {
  int32_t best = 0;
  size_t best_i = 0;
  size_t best_j = 0;
};

// When `dir` is non-null it receives one byte per in-band cell
// (row-major, 2*band+1 cells per row) for traceback.
BandedResult RunBandedDp(std::string_view query, std::string_view target,
                         int64_t d0, int band, const PairScoreTable& table,
                         int32_t go, int32_t ge, std::vector<int32_t>* h_buf,
                         std::vector<int32_t>* f_buf,
                         std::vector<uint8_t>* dir, uint64_t* cells) {
  const int64_t m = static_cast<int64_t>(query.size());
  const int64_t n = static_cast<int64_t>(target.size());
  const int64_t width = 2 * static_cast<int64_t>(band) + 1;

  h_buf->assign(width, kNegInf);
  f_buf->assign(width, kNegInf);
  int32_t* h = h_buf->data();
  int32_t* f = f_buf->data();

  BandedResult out;
  for (int64_t i = 1; i <= m; ++i) {
    const int16_t* score_row = table.Row(query[i - 1]);
    uint8_t* dir_row = dir ? dir->data() + (i - 1) * width : nullptr;
    const bool first_row = (i == 1);
    const int64_t j_first = i + d0 - band;

    // Left neighbours of the first in-band cell of this row.
    int32_t h_left = (j_first - 1 == 0) ? 0 : kNegInf;
    int32_t e = kNegInf;

    for (int64_t k = 0; k < width; ++k) {
      const int64_t j = j_first + k;
      if (j < 1 || j > n) {
        h[k] = kNegInf;
        f[k] = kNegInf;
        if (dir_row) dir_row[k] = kHStop;
        h_left = kNegInf;
        e = kNegInf;
        continue;
      }

      // Previous-row neighbours (row 0 is all zeros for local alignment;
      // column 0 likewise).
      int32_t diag = first_row ? 0 : ((j - 1 == 0) ? 0 : h[k]);
      int32_t ph = first_row ? 0 : (k + 1 < width ? h[k + 1] : kNegInf);
      int32_t pf = first_row ? kNegInf
                             : (k + 1 < width ? f[k + 1] : kNegInf);

      uint8_t d = 0;
      int32_t f_open = ph + go;
      int32_t f_ext = pf + ge;
      int32_t fj = f_open;
      if (f_ext > f_open) {
        fj = f_ext;
        d |= kFExtend;
      }

      int32_t e_open = h_left + go;
      int32_t e_ext = e + ge;
      if (e_ext > e_open) {
        e = e_ext;
        d |= kEExtend;
      } else {
        e = e_open;
      }

      int32_t hd = diag + score_row[static_cast<uint8_t>(target[j - 1])];
      int32_t hv = 0;
      uint8_t src = kHStop;
      if (hd > hv) {
        hv = hd;
        src = kHDiag;
      }
      if (e > hv) {
        hv = e;
        src = kHFromE;
      }
      if (fj > hv) {
        hv = fj;
        src = kHFromF;
      }
      if (dir_row) dir_row[k] = d | src;

      h[k] = hv;
      f[k] = fj;
      h_left = hv;
      if (hv > out.best) {
        out.best = hv;
        out.best_i = static_cast<size_t>(i);
        out.best_j = static_cast<size_t>(j);
      }
    }
    if (cells) *cells += static_cast<uint64_t>(width);
  }
  return out;
}

}  // namespace

int ClampBandToMatrix(size_t query_len, size_t target_len, int64_t diagonal,
                      int band) {
  // The matrix's diagonals j - i run from 1 - query_len to
  // target_len - 1.
  const int64_t lo = 1 - static_cast<int64_t>(query_len);
  const int64_t hi = static_cast<int64_t>(target_len) - 1;
  const int64_t cover =
      std::max(std::llabs(diagonal - lo), std::llabs(hi - diagonal));
  return cover < band ? static_cast<int>(cover) : band;
}

int Aligner::BandedScore(std::string_view query, std::string_view target,
                         int64_t diagonal, int band) const {
  if (query.empty() || target.empty() || band < 0) return 0;
  band = ClampBandToMatrix(query.size(), target.size(), diagonal, band);
  if (simd_level_ != SimdLevel::kScalar && simd_ok_) {
    int score = 0;
    if (banded_.Score(table_, query, target, diagonal, band, &score)) {
      // Same accounting as the scalar loop, so stats and traces are
      // byte-identical across dispatch tiers.
      cells_ += static_cast<uint64_t>(query.size()) *
                (2 * static_cast<uint64_t>(band) + 1);
      internal::RecordBandedScore(/*simd=*/true);
      return score;
    }
  }
  internal::RecordBandedScore(/*simd=*/false);
  BandedResult r =
      RunBandedDp(query, target, diagonal, band, table_, scheme_.gap_open,
                  scheme_.gap_extend, &h_buf_, &f_buf_, nullptr, &cells_);
  return r.best;
}

Result<LocalAlignment> Aligner::BandedAlign(std::string_view query,
                                            std::string_view target,
                                            int64_t diagonal,
                                            int band) const {
  LocalAlignment out;
  if (query.empty() || target.empty() || band < 0) return out;
  band = ClampBandToMatrix(query.size(), target.size(), diagonal, band);
  const int64_t width = 2 * static_cast<int64_t>(band) + 1;
  std::vector<uint8_t> dir(query.size() * static_cast<size_t>(width));
  BandedResult r =
      RunBandedDp(query, target, diagonal, band, table_, scheme_.gap_open,
                  scheme_.gap_extend, &h_buf_, &f_buf_, &dir, &cells_);
  out.score = r.best;
  if (r.best == 0) return out;

  std::vector<EditOp> rops;
  int64_t i = static_cast<int64_t>(r.best_i);
  int64_t j = static_cast<int64_t>(r.best_j);
  enum class State { kH, kE, kF } state = State::kH;
  while (i > 0 && j > 0) {
    int64_t k = j - i - diagonal + band;
    if (k < 0 || k >= width) break;
    uint8_t d = dir[(i - 1) * width + k];
    if (state == State::kH) {
      uint8_t src = d & kHMask;
      if (src == kHStop) break;
      if (src == kHDiag) {
        rops.push_back(query[i - 1] == target[j - 1] ? EditOp::kMatch
                                                     : EditOp::kMismatch);
        --i;
        --j;
      } else if (src == kHFromE) {
        state = State::kE;
      } else {
        state = State::kF;
      }
    } else if (state == State::kE) {
      rops.push_back(EditOp::kDeletion);
      bool ext = (d & kEExtend) != 0;
      --j;
      if (!ext) state = State::kH;
    } else {
      rops.push_back(EditOp::kInsertion);
      bool ext = (d & kFExtend) != 0;
      --i;
      if (!ext) state = State::kH;
    }
  }

  out.query_begin = static_cast<uint32_t>(i);
  out.query_end = static_cast<uint32_t>(r.best_i);
  out.target_begin = static_cast<uint32_t>(j);
  out.target_end = static_cast<uint32_t>(r.best_j);
  out.ops.assign(rops.rbegin(), rops.rend());
  return out;
}

}  // namespace cafe
