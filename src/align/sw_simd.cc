#include "align/sw_simd.h"

#include <atomic>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "align/smith_waterman.h"
#include "obs/metrics.h"
#include "util/check.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CAFE_SW_SIMD_X86 1
#endif

namespace cafe {
namespace {

std::atomic<obs::Counter*> g_striped_scores{nullptr};
std::atomic<obs::Counter*> g_scalar_scores{nullptr};
std::atomic<obs::Counter*> g_striped_fallbacks{nullptr};
std::atomic<obs::Counter*> g_banded_simd_scores{nullptr};
std::atomic<obs::Counter*> g_banded_scalar_scores{nullptr};
std::atomic<obs::Counter*> g_banded_fallbacks{nullptr};

#if defined(CAFE_SW_SIMD_X86)

// Everything a kernel needs, resolved before the target-specific code
// runs: 256 profile-row pointers (only rows for characters that occur
// in `target` are non-null), the striped scratch columns, and the
// positive gap penalties.
struct StripedCtx {
  const int16_t* rows[256];
  const uint8_t* target;
  size_t target_len;
  size_t seg_len;
  int16_t* h_store;
  int16_t* h_load;
  int16_t* e;
  uint16_t gap_open;
  uint16_t gap_extend;
};

// Farrar's striped kernel at 128-bit width (8 query stripes per
// vector). The structure is the classic one (Farrar 2007, as shipped in
// SSW's word kernel): per target character, add the profile row to the
// previous column's H (rotated one lane so each stripe sees its
// diagonal predecessor), fold in E (target-direction gaps, persists
// across columns) and F (query-direction gaps), then run the lazy-F
// loop until no lane can still improve. E and F clamp at zero via
// unsigned saturating subtract — exact because H >= 0 everywhere, so a
// negative E/F can never win a max. Returns the best H seen; INT16_MAX
// means saturation (caller falls back).
__attribute__((target("sse2"))) int StripedKernelSse2(const StripedCtx& c) {
  const size_t seg = c.seg_len;
  const __m128i gap_open = _mm_set1_epi16(static_cast<short>(c.gap_open));
  const __m128i gap_ext = _mm_set1_epi16(static_cast<short>(c.gap_extend));
  __m128i max_h = _mm_setzero_si128();
  int16_t* store = c.h_store;
  int16_t* load = c.h_load;
  for (size_t t = 0; t < c.target_len; ++t) {
    const int16_t* prof = c.rows[c.target[t]];
    __m128i f = _mm_setzero_si128();
    // H of the previous column's last segment, rotated one lane up:
    // stripe k now holds the diagonal predecessor of query position
    // k*seg_len (zero enters lane 0 — the H[-1][*] = 0 boundary).
    __m128i h = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(store + (seg - 1) * 8));
    h = _mm_slli_si128(h, 2);
    std::swap(store, load);
    for (size_t j = 0; j < seg; ++j) {
      h = _mm_adds_epi16(
          h, _mm_loadu_si128(reinterpret_cast<const __m128i*>(prof + j * 8)));
      __m128i e =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.e + j * 8));
      h = _mm_max_epi16(h, e);
      h = _mm_max_epi16(h, f);
      max_h = _mm_max_epi16(max_h, h);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(store + j * 8), h);
      __m128i open = _mm_subs_epu16(h, gap_open);
      e = _mm_subs_epu16(e, gap_ext);
      e = _mm_max_epi16(e, open);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c.e + j * 8), e);
      f = _mm_subs_epu16(f, gap_ext);
      f = _mm_max_epi16(f, open);
      h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(load + j * 8));
    }
    // Lazy F (Farrar's original loop): propagate query-direction gaps
    // across stripe boundaries, testing before each segment whether F
    // can still beat opening a fresh gap there (E is deliberately not
    // touched — skipping it is exact because a gap can always be
    // re-opened for no more than extending when |open| >= |extend|).
    // Terminates because F only decays: each step subtracts gap_extend
    // (>= 1 for any validated scheme) and each wrap shifts a zero in.
    size_t j = 0;
    f = _mm_slli_si128(f, 2);
    __m128i h2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(store + j * 8));
    while (_mm_movemask_epi8(
               _mm_cmpgt_epi16(f, _mm_subs_epu16(h2, gap_open))) != 0) {
      h2 = _mm_max_epi16(h2, f);
      max_h = _mm_max_epi16(max_h, h2);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(store + j * 8), h2);
      f = _mm_subs_epu16(f, gap_ext);
      if (++j >= seg) {
        j = 0;
        f = _mm_slli_si128(f, 2);
      }
      h2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(store + j * 8));
    }
  }
  alignas(16) int16_t lanes[8];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), max_h);
  int best = 0;
  for (int16_t v : lanes) {
    if (v > best) best = v;
  }
  return best;
}

// Rotates a 256-bit vector of int16 one lane toward the MSB with zero
// fill (the cross-128-bit-lane equivalent of _mm_slli_si128(v, 2)).
__attribute__((target("avx2"))) inline __m256i ShiftLanesUp(__m256i v) {
  // [zero | v_low], then per-lane alignr stitches the carried bytes.
  __m256i carry = _mm256_permute2x128_si256(v, v, 0x28);
  return _mm256_alignr_epi8(v, carry, 14);
}

// The same kernel at 256-bit width (16 query stripes per vector).
__attribute__((target("avx2"))) int StripedKernelAvx2(const StripedCtx& c) {
  const size_t seg = c.seg_len;
  const __m256i gap_open = _mm256_set1_epi16(static_cast<short>(c.gap_open));
  const __m256i gap_ext = _mm256_set1_epi16(static_cast<short>(c.gap_extend));
  __m256i max_h = _mm256_setzero_si256();
  int16_t* store = c.h_store;
  int16_t* load = c.h_load;
  for (size_t t = 0; t < c.target_len; ++t) {
    const int16_t* prof = c.rows[c.target[t]];
    __m256i f = _mm256_setzero_si256();
    __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(store + (seg - 1) * 16));
    h = ShiftLanesUp(h);
    std::swap(store, load);
    for (size_t j = 0; j < seg; ++j) {
      h = _mm256_adds_epi16(
          h,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prof + j * 16)));
      __m256i e =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c.e + j * 16));
      h = _mm256_max_epi16(h, e);
      h = _mm256_max_epi16(h, f);
      max_h = _mm256_max_epi16(max_h, h);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(store + j * 16), h);
      __m256i open = _mm256_subs_epu16(h, gap_open);
      e = _mm256_subs_epu16(e, gap_ext);
      e = _mm256_max_epi16(e, open);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c.e + j * 16), e);
      f = _mm256_subs_epu16(f, gap_ext);
      f = _mm256_max_epi16(f, open);
      h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(load + j * 16));
    }
    size_t j = 0;
    f = ShiftLanesUp(f);
    __m256i h2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(store + j * 16));
    while (_mm256_movemask_epi8(_mm256_cmpgt_epi16(
               f, _mm256_subs_epu16(h2, gap_open))) != 0) {
      h2 = _mm256_max_epi16(h2, f);
      max_h = _mm256_max_epi16(max_h, h2);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(store + j * 16), h2);
      f = _mm256_subs_epu16(f, gap_ext);
      if (++j >= seg) {
        j = 0;
        f = ShiftLanesUp(f);
      }
      h2 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(store + j * 16));
    }
  }
  alignas(32) int16_t lanes[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), max_h);
  int best = 0;
  for (int16_t v : lanes) {
    if (v > best) best = v;
  }
  return best;
}

#endif  // CAFE_SW_SIMD_X86

}  // namespace

StripedScorer::StripedScorer(const ScoringScheme& scheme) {
  // Stored as positive penalties for the saturating-subtract domain;
  // Supported() guarantees they fit.
  gap_open_ = static_cast<uint16_t>(
      scheme.gap_open < 0 ? -scheme.gap_open : scheme.gap_open);
  gap_extend_ = static_cast<uint16_t>(
      scheme.gap_extend < 0 ? -scheme.gap_extend : scheme.gap_extend);
}

bool StripedScorer::Supported(const ScoringScheme& scheme) {
  // The clamp-at-zero E/F recurrences and the lazy-F early exit are
  // exact only for genuine local-alignment penalties: positive match,
  // negative mismatch, negative affine gaps with opening at least as
  // costly as extending — precisely what Validate() enforces.
  if (!scheme.Validate().ok()) return false;
  // Penalties must fit the 16-bit saturating domain.
  return scheme.gap_open > INT16_MIN && scheme.gap_extend > INT16_MIN;
}

void StripedScorer::PrepareQuery(std::string_view query, size_t lanes) {
  query_.assign(query.data(), query.size());
  lanes_ = lanes;
  seg_len_ = (query.size() + lanes - 1) / lanes;
  row_built_.fill(false);
  size_t stride = seg_len_ * lanes_;
  h_store_.assign(stride, 0);
  h_load_.assign(stride, 0);
  e_.assign(stride, 0);
}

const int16_t* StripedScorer::ProfileRow(const PairScoreTable& table,
                                         uint8_t c) {
  std::vector<int16_t>& row = rows_[c];
  if (!row_built_[c]) {
    const int16_t* scores = table.Row(static_cast<char>(c));
    // Zero padding past the query end is max-safe: a padded stripe's H
    // only ever copies earlier H values (score 0 contributions), so it
    // never exceeds the running maximum.
    row.assign(seg_len_ * lanes_, 0);
    for (size_t j = 0; j < seg_len_; ++j) {
      for (size_t k = 0; k < lanes_; ++k) {
        size_t q = j + k * seg_len_;
        if (q < query_.size()) {
          row[j * lanes_ + k] = scores[static_cast<uint8_t>(query_[q])];
        }
      }
    }
    row_built_[c] = true;
  }
  return row.data();
}

bool StripedScorer::Score(const PairScoreTable& table, std::string_view query,
                          std::string_view target, SimdLevel level,
                          int* score) {
#if defined(CAFE_SW_SIMD_X86)
  if (level == SimdLevel::kScalar) return false;
  if (query.empty() || target.empty()) return false;
  size_t lanes = level >= SimdLevel::kAvx2 ? 16 : 8;
  if (query != query_ || lanes != lanes_) {
    PrepareQuery(query, lanes);
  } else {
    size_t stride = seg_len_ * lanes_;
    std::memset(h_store_.data(), 0, stride * sizeof(int16_t));
    std::memset(h_load_.data(), 0, stride * sizeof(int16_t));
    std::memset(e_.data(), 0, stride * sizeof(int16_t));
  }

  StripedCtx ctx;
  std::memset(ctx.rows, 0, sizeof(ctx.rows));
  for (char tc : target) {
    uint8_t c = static_cast<uint8_t>(tc);
    if (ctx.rows[c] == nullptr) ctx.rows[c] = ProfileRow(table, c);
  }
  ctx.target = reinterpret_cast<const uint8_t*>(target.data());
  ctx.target_len = target.size();
  ctx.seg_len = seg_len_;
  ctx.h_store = h_store_.data();
  ctx.h_load = h_load_.data();
  ctx.e = e_.data();
  ctx.gap_open = gap_open_;
  ctx.gap_extend = gap_extend_;

  int best = level >= SimdLevel::kAvx2 ? StripedKernelAvx2(ctx)
                                       : StripedKernelSse2(ctx);
  if (best >= INT16_MAX) {
    // The saturating domain clipped; the 32-bit oracle rescues the
    // exact score.
    internal::RecordStripedFallback();
    return false;
  }
  *score = best;
  return true;
#else
  (void)table;
  (void)query;
  (void)target;
  (void)level;
  (void)score;
  return false;
#endif
}

void AttachAlignSimdMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    for (std::atomic<obs::Counter*>* slot :
         {&g_striped_scores, &g_scalar_scores, &g_striped_fallbacks,
          &g_banded_simd_scores, &g_banded_scalar_scores,
          &g_banded_fallbacks}) {
      slot->store(nullptr, std::memory_order_release);
    }
    return;
  }
  g_striped_scores.store(registry->GetCounter("align.striped_scores"),
                         std::memory_order_release);
  g_scalar_scores.store(registry->GetCounter("align.scalar_scores"),
                        std::memory_order_release);
  g_striped_fallbacks.store(registry->GetCounter("align.striped_fallbacks"),
                            std::memory_order_release);
  g_banded_simd_scores.store(registry->GetCounter("align.banded_simd_scores"),
                             std::memory_order_release);
  g_banded_scalar_scores.store(
      registry->GetCounter("align.banded_scalar_scores"),
      std::memory_order_release);
  g_banded_fallbacks.store(registry->GetCounter("align.banded_fallbacks"),
                           std::memory_order_release);
}

namespace internal {

void RecordScoreOnly(bool striped) {
  obs::Counter* counter =
      striped ? g_striped_scores.load(std::memory_order_acquire)
              : g_scalar_scores.load(std::memory_order_acquire);
  if (counter != nullptr) counter->Increment();
}

void RecordStripedFallback() {
  obs::Counter* counter = g_striped_fallbacks.load(std::memory_order_acquire);
  if (counter != nullptr) counter->Increment();
}

void RecordBandedScore(bool simd) {
  obs::Counter* counter =
      simd ? g_banded_simd_scores.load(std::memory_order_acquire)
           : g_banded_scalar_scores.load(std::memory_order_acquire);
  if (counter != nullptr) counter->Increment();
}

void RecordBandedFallback() {
  obs::Counter* counter = g_banded_fallbacks.load(std::memory_order_acquire);
  if (counter != nullptr) counter->Increment();
}

}  // namespace internal

}  // namespace cafe
