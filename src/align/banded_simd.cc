#include "align/banded_simd.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "align/smith_waterman.h"
#include "align/sw_simd.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CAFE_BANDED_SIMD_X86 1
#endif

namespace cafe {
namespace {

#if defined(CAFE_BANDED_SIMD_X86)

constexpr size_t kLanes = 8;  // int16 slots per 128-bit vector

// Everything the kernel needs, resolved before the target-specific code
// runs: the profile row of every query character, the two H/F row
// pairs (previous and current row, each one slot longer than the
// padded row so the vertical load of the last vector reads a zero),
// and the positive gap penalties.
struct BandedCtx {
  const int16_t* rows[256];
  const uint8_t* query;
  size_t query_len;
  size_t width;     // live slots per row: 2*band + 1
  size_t num_vecs;  // vectors per row
  int16_t* h_prev;
  int16_t* h_cur;
  int16_t* f_prev;
  int16_t* f_cur;
  uint16_t gap_open;
  uint16_t gap_extend;
};

// `steps` gap extensions as one saturating-subtract operand. Every
// live value is at most INT16_MAX, so a decrement clipped to 0xFFFF
// still clears any lane it would have cleared.
uint16_t Decrement(size_t steps, uint16_t gap_extend) {
  const uint64_t d = static_cast<uint64_t>(steps) * gap_extend;
  return static_cast<uint16_t>(std::min<uint64_t>(d, 0xFFFF));
}

// Per-lane operands of the horizontal-gap carry: `to_e` lane l is l
// extensions (E of lane l from the slot left of the vector), `to_scan`
// lane l is l+1 (that slot's contribution to the scan of lane l);
// `live` is all-ones on the lanes of the last vector that lie inside
// the band.
struct LaneConstants {
  uint16_t to_e[kLanes];
  uint16_t to_scan[kLanes];
  uint16_t live[kLanes];
};

LaneConstants MakeLaneConstants(const BandedCtx& c) {
  LaneConstants k;
  const size_t tail = c.width - (c.num_vecs - 1) * kLanes;
  for (size_t l = 0; l < kLanes; ++l) {
    k.to_e[l] = Decrement(l, c.gap_extend);
    k.to_scan[l] = Decrement(l + 1, c.gap_extend);
    k.live[l] = l < tail ? 0xFFFF : 0;
  }
  return k;
}

// The banded kernel, 8 slots per vector. Per row and vector: F from the
// previous row's slot k+1 (H and F), H0 = max(diag + profile, F, 0) from
// slot k, then the E scan over H0 - gap_open in shifts of 1, 2 and 4
// lanes plus the carry from the vector to the left.
// Returns the best H; INT16_MAX means saturation (caller falls back).
__attribute__((target("sse2"))) int BandedKernelSse2(const BandedCtx& c) {
  const LaneConstants lc = MakeLaneConstants(c);
  const __m128i zero = _mm_setzero_si128();
  const __m128i all = _mm_set1_epi16(-1);
  const __m128i gap_open = _mm_set1_epi16(static_cast<short>(c.gap_open));
  const __m128i ext1 =
      _mm_set1_epi16(static_cast<short>(Decrement(1, c.gap_extend)));
  const __m128i ext2 =
      _mm_set1_epi16(static_cast<short>(Decrement(2, c.gap_extend)));
  const __m128i ext4 =
      _mm_set1_epi16(static_cast<short>(Decrement(4, c.gap_extend)));
  const __m128i to_e =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lc.to_e));
  const __m128i to_scan =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lc.to_scan));
  const __m128i live =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lc.live));
  __m128i best = zero;
  int16_t* hp = c.h_prev;
  int16_t* hc = c.h_cur;
  int16_t* fp = c.f_prev;
  int16_t* fc = c.f_cur;
  for (size_t i = 0; i < c.query_len; ++i) {
    const int16_t* prof = c.rows[c.query[i]] + i;
    short carry = 0;  // scan value of the slot left of the vector
    for (size_t v = 0; v < c.num_vecs; ++v) {
      const size_t o = v * kLanes;
      const __m128i up_h =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(hp + o + 1));
      const __m128i up_f =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(fp + o + 1));
      __m128i f = _mm_max_epi16(_mm_subs_epu16(up_h, gap_open),
                                _mm_subs_epu16(up_f, ext1));
      __m128i h = _mm_adds_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(hp + o)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(prof + o)));
      h = _mm_max_epi16(_mm_max_epi16(h, f), zero);
      __m128i scan = _mm_subs_epu16(h, gap_open);
      scan = _mm_max_epi16(scan, _mm_subs_epu16(_mm_slli_si128(scan, 2), ext1));
      scan = _mm_max_epi16(scan, _mm_subs_epu16(_mm_slli_si128(scan, 4), ext2));
      scan = _mm_max_epi16(scan, _mm_subs_epu16(_mm_slli_si128(scan, 8), ext4));
      const __m128i carried = _mm_set1_epi16(carry);
      const __m128i e = _mm_max_epi16(_mm_slli_si128(scan, 2),
                                      _mm_subs_epu16(carried, to_e));
      scan = _mm_max_epi16(scan, _mm_subs_epu16(carried, to_scan));
      carry = static_cast<short>(_mm_extract_epi16(scan, kLanes - 1));
      const __m128i keep = (v + 1 == c.num_vecs) ? live : all;
      h = _mm_and_si128(_mm_max_epi16(h, e), keep);
      f = _mm_and_si128(f, keep);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(hc + o), h);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(fc + o), f);
      best = _mm_max_epi16(best, h);
    }
    std::swap(hp, hc);
    std::swap(fp, fc);
  }
  alignas(16) int16_t lanes[kLanes];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), best);
  return *std::max_element(lanes, lanes + kLanes);
}

#endif  // CAFE_BANDED_SIMD_X86

}  // namespace

BandedScorer::BandedScorer(const ScoringScheme& scheme) {
  // Positive penalties for the saturating-subtract domain;
  // StripedScorer::Supported guarantees they fit.
  gap_open_ = static_cast<uint16_t>(
      scheme.gap_open < 0 ? -scheme.gap_open : scheme.gap_open);
  gap_extend_ = static_cast<uint16_t>(
      scheme.gap_extend < 0 ? -scheme.gap_extend : scheme.gap_extend);
}

bool BandedScorer::Score(const PairScoreTable& table, std::string_view query,
                         std::string_view target, int64_t diagonal, int band,
                         int* score) {
#if defined(CAFE_BANDED_SIMD_X86)
  const size_t m = query.size();
  const size_t width = 2 * static_cast<size_t>(band) + 1;
  const size_t num_vecs = (width + kLanes - 1) / kLanes;
  const size_t padded = num_vecs * kLanes;

  // Profile entry x is row i, slot k with x = (i - 1) + k, i.e. target
  // base jlo + x; rows reach x = (m - 1) + (padded - 1).
  const size_t prof_len = m - 1 + padded;
  const int64_t jlo = 1 + diagonal - band;
  const int64_t n = static_cast<int64_t>(target.size());
  const int64_t x_first = std::max<int64_t>(0, 1 - jlo);
  const int64_t x_end =
      std::min<int64_t>(static_cast<int64_t>(prof_len), n - jlo + 1);

  BandedCtx ctx;
  std::memset(ctx.rows, 0, sizeof(ctx.rows));
  bool seen[256] = {};
  uint8_t distinct[256];
  size_t num_distinct = 0;
  for (char qc : query) {
    const uint8_t c = static_cast<uint8_t>(qc);
    if (!seen[c]) {
      seen[c] = true;
      distinct[num_distinct++] = c;
    }
  }
  profile_.resize(num_distinct * prof_len);
  for (size_t r = 0; r < num_distinct; ++r) {
    int16_t* row = profile_.data() + r * prof_len;
    std::fill(row, row + prof_len, INT16_MIN);
    const int16_t* scores = table.Row(static_cast<char>(distinct[r]));
    for (int64_t x = x_first; x < x_end; ++x) {
      row[x] = scores[static_cast<uint8_t>(target[jlo + x - 1])];
    }
    ctx.rows[distinct[r]] = row;
  }

  // Row 0 of the DP (and every slot past the band) is zero.
  h_prev_.assign(padded + 1, 0);
  h_cur_.assign(padded + 1, 0);
  f_prev_.assign(padded + 1, 0);
  f_cur_.assign(padded + 1, 0);
  ctx.query = reinterpret_cast<const uint8_t*>(query.data());
  ctx.query_len = m;
  ctx.width = width;
  ctx.num_vecs = num_vecs;
  ctx.h_prev = h_prev_.data();
  ctx.h_cur = h_cur_.data();
  ctx.f_prev = f_prev_.data();
  ctx.f_cur = f_cur_.data();
  ctx.gap_open = gap_open_;
  ctx.gap_extend = gap_extend_;

  const int best = BandedKernelSse2(ctx);
  if (best >= INT16_MAX) {
    internal::RecordBandedFallback();
    return false;
  }
  *score = best;
  return true;
#else
  (void)table;
  (void)query;
  (void)target;
  (void)diagonal;
  (void)band;
  (void)score;
  return false;
#endif
}

}  // namespace cafe
