// Microbenchmarks (google-benchmark) for the alignment kernels: cells/s
// of score-only and banded Smith-Waterman (per SIMD dispatch tier),
// traceback alignment and X-drop extension — the constants that size
// experiments E3-E5.
//
// Besides the google-benchmark suite, `--gate` runs the SIMD speedup
// gate: it measures the striped Smith-Waterman, the banded kernel and
// the vectorized packed scan against their scalar oracles in the same
// process and emits the bench::JsonMetrics document tools/benchgate.py
// compares against bench/baselines/micro_align.json in CI. Gate
// metrics are within-run speedup ratios plus hard agreement invariants
// — stable across machines, unlike absolute cell rates.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "align/smith_waterman.h"
#include "align/xdrop.h"
#include "bench_common.h"
#include "seqstore/packed_view.h"
#include "alphabet/nucleotide.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"

namespace cafe {
namespace {

std::string RandomSeq(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = CodeToBase(static_cast<int>(rng.Uniform(4)));
  return s;
}

void BM_SmithWatermanScore(benchmark::State& state) {
  const size_t qlen = static_cast<size_t>(state.range(0));
  const size_t tlen = static_cast<size_t>(state.range(1));
  const SimdLevel level = static_cast<SimdLevel>(state.range(2));
  if (level > DetectCpuSimdLevel()) {
    state.SkipWithError("tier not supported by this CPU");
    return;
  }
  std::string q = RandomSeq(qlen, 1);
  std::string t = RandomSeq(tlen, 2);
  Aligner aligner;
  aligner.set_simd_level(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.ScoreOnly(q, t));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(qlen * tlen));
  state.counters["Mcells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * qlen * tlen / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_SmithWatermanScore)
    ->Args({100, 1000, 0})
    ->Args({400, 1000, 0})
    ->Args({400, 1000, 1})
    ->Args({400, 1000, 2})
    ->Args({400, 10000, 0})
    ->Args({400, 10000, 2});

void BM_SmithWatermanAlign(benchmark::State& state) {
  std::string q = RandomSeq(300, 3);
  std::string t = RandomSeq(1000, 4);
  Aligner aligner;
  for (auto _ : state) {
    Result<LocalAlignment> a = aligner.Align(q, t);
    benchmark::DoNotOptimize(a.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          300 * 1000);
}
BENCHMARK(BM_SmithWatermanAlign);

void BM_BandedScore(benchmark::State& state) {
  const int band = static_cast<int>(state.range(0));
  const SimdLevel level = static_cast<SimdLevel>(state.range(1));
  if (level > DetectCpuSimdLevel()) {
    state.SkipWithError("tier not supported by this CPU");
    return;
  }
  std::string q = RandomSeq(400, 5);
  std::string t = RandomSeq(1000, 6);
  Aligner aligner;
  aligner.set_simd_level(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.BandedScore(q, t, 0, band));
  }
  const int64_t cells = 400 * (2 * static_cast<int64_t>(band) + 1);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * cells);
  state.counters["Mcells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * cells / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(SimdLevelName(level));
}
// Every vector tier runs the SSE2 banded kernel; the avx2 row shows the
// dispatch costs nothing at that tier.
BENCHMARK(BM_BandedScore)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({48, 0})
    ->Args({48, 1})
    ->Args({48, 2})
    ->Args({128, 0})
    ->Args({128, 1});

void BM_XDropExtend(benchmark::State& state) {
  std::string core = RandomSeq(2000, 7);
  std::string q = core;
  std::string t = core;  // identical: worst case, extends end to end
  ScoringScheme scheme;
  PairScoreTable table(scheme);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        XDropExtend(q, t, 1000, 1000, 11, table, 20));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_XDropExtend);

void BM_PackedMatchCount(benchmark::State& state) {
  const SimdLevel level = static_cast<SimdLevel>(state.range(0));
  if (level > DetectCpuSimdLevel()) {
    state.SkipWithError("tier not supported by this CPU");
    return;
  }
  std::string sa = RandomSeq(4096, 8);
  std::string sb = RandomSeq(4096, 9);
  auto a = PackedQuery::FromString(sa);
  auto b = PackedQuery::FromString(sb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PackedMatchCount(a->view(), 1, b->view(), 3, 4000, level));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4000);
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_PackedMatchCount)->Arg(0)->Arg(1)->Arg(2);

void BM_PackedXDrop(benchmark::State& state) {
  std::string core = RandomSeq(2000, 10);
  auto a = PackedQuery::FromString(core);
  auto b = PackedQuery::FromString(core);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackedXDropExtend(
        a->view(), b->view(), 1000, 1000, 11, 5, -4, 20));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_PackedXDrop);

void BM_PairScoreTableBuild(benchmark::State& state) {
  ScoringScheme scheme;
  for (auto _ : state) {
    PairScoreTable table(scheme);
    benchmark::DoNotOptimize(table('A', 'C'));
  }
}
BENCHMARK(BM_PairScoreTableBuild);

// --- SIMD speedup gate -------------------------------------------------
//
// Hand-timed (no google-benchmark) so the emitted document is exactly
// the {"bench","metrics"} shape benchgate expects. Best-of-N wall-clock
// per tier; the gated numbers are the scalar/vector ratios measured in
// the same process on the same inputs.

/// Best-of-5 ScoreOnly throughput in Mcells/s at `level`.
double MeasureScoreMcells(SimdLevel level) {
  const size_t qlen = 400, tlen = 1000;
  std::string q = RandomSeq(qlen, 1);
  std::string t = RandomSeq(tlen, 2);
  Aligner aligner;
  aligner.set_simd_level(level);
  const int reps = 50;
  volatile int sink = 0;
  sink = sink + aligner.ScoreOnly(q, t);  // warm caches and the profile
  double best = 0.0;
  for (int run = 0; run < 5; ++run) {
    WallTimer timer;
    for (int i = 0; i < reps; ++i) sink = sink + aligner.ScoreOnly(q, t);
    double mcells =
        static_cast<double>(reps) * qlen * tlen / 1e6 / timer.Seconds();
    if (mcells > best) best = mcells;
  }
  return best;
}

/// Best-of-5 BandedScore throughput in Mcells/s at `level`: a 300-base
/// query in a band of half-width 48 around diagonal 600 of a 1500-base
/// subject — the default fine-phase shape.
double MeasureBandedMcells(SimdLevel level) {
  const size_t qlen = 300, tlen = 1500;
  const int band = 48;
  std::string q = RandomSeq(qlen, 11);
  std::string t = RandomSeq(tlen, 12);
  Aligner aligner;
  aligner.set_simd_level(level);
  const int reps = 200;
  const double cells = static_cast<double>(qlen) * (2 * band + 1);
  volatile int sink = 0;
  sink = sink + aligner.BandedScore(q, t, 600, band);
  double best = 0.0;
  for (int run = 0; run < 5; ++run) {
    WallTimer timer;
    for (int i = 0; i < reps; ++i) {
      sink = sink + aligner.BandedScore(q, t, 600, band);
    }
    double mcells = reps * cells / 1e6 / timer.Seconds();
    if (mcells > best) best = mcells;
  }
  return best;
}

/// Best-of-5 PackedMatchCount throughput in Mbases/s at `level`.
double MeasurePackedMbases(SimdLevel level) {
  std::string sa = RandomSeq(4096, 8);
  std::string sb = RandomSeq(4096, 9);
  auto a = PackedQuery::FromString(sa);
  auto b = PackedQuery::FromString(sb);
  const size_t len = 4000;
  const int reps = 20000;
  volatile size_t sink = 0;
  sink = sink + PackedMatchCount(a->view(), 1, b->view(), 3, len, level);
  double best = 0.0;
  for (int run = 0; run < 5; ++run) {
    WallTimer timer;
    for (int i = 0; i < reps; ++i) {
      sink = sink + PackedMatchCount(a->view(), 1, b->view(), 3, len, level);
    }
    double mbases =
        static_cast<double>(reps) * len / 1e6 / timer.Seconds();
    if (mbases > best) best = mbases;
  }
  return best;
}

/// 1.0 iff the widest tier agrees with scalar on a randomized sweep.
double StripedAgreement(SimdLevel level) {
  Rng rng(77);
  ScoringScheme scheme;
  Aligner vec(scheme), oracle(scheme);
  vec.set_simd_level(level);
  oracle.set_simd_level(SimdLevel::kScalar);
  for (int trial = 0; trial < 200; ++trial) {
    std::string q = RandomSeq(1 + rng.Uniform(150), rng.Uniform(1u << 30));
    std::string t = RandomSeq(1 + rng.Uniform(400), rng.Uniform(1u << 30));
    if (vec.ScoreOnly(q, t) != oracle.ScoreOnly(q, t)) return 0.0;
  }
  return 1.0;
}

/// 1.0 iff BandedScore at `level` matches scalar — score and cell
/// count — on a randomized sweep of shapes, diagonals and bands.
double BandedAgreement(SimdLevel level) {
  Rng rng(79);
  ScoringScheme scheme;
  Aligner vec(scheme), oracle(scheme);
  vec.set_simd_level(level);
  oracle.set_simd_level(SimdLevel::kScalar);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t m = 1 + rng.Uniform(300);
    const size_t n = 1 + rng.Uniform(1500);
    std::string q = RandomSeq(m, rng.Uniform(1u << 30));
    std::string t = RandomSeq(n, rng.Uniform(1u << 30));
    const int64_t diagonal = static_cast<int64_t>(rng.Uniform(m + n)) -
                             static_cast<int64_t>(m);
    const int band = static_cast<int>(rng.Uniform(130));
    if (vec.BandedScore(q, t, diagonal, band) !=
            oracle.BandedScore(q, t, diagonal, band) ||
        vec.cells_computed() != oracle.cells_computed()) {
      return 0.0;
    }
  }
  return 1.0;
}

double PackedAgreement(SimdLevel level) {
  Rng rng(78);
  for (int trial = 0; trial < 200; ++trial) {
    std::string sa = RandomSeq(80 + rng.Uniform(900), rng.Uniform(1u << 30));
    std::string sb = RandomSeq(80 + rng.Uniform(900), rng.Uniform(1u << 30));
    auto a = PackedQuery::FromString(sa);
    auto b = PackedQuery::FromString(sb);
    size_t apos = rng.Uniform(sa.size());
    size_t bpos = rng.Uniform(sb.size());
    size_t len = rng.Uniform(
        std::min(sa.size() - apos, sb.size() - bpos) + 1);
    if (PackedMatchCount(a->view(), apos, b->view(), bpos, len, level) !=
        PackedMatchCount(a->view(), apos, b->view(), bpos, len,
                         SimdLevel::kScalar)) {
      return 0.0;
    }
  }
  return 1.0;
}

int RunGate(const std::string& out_path) {
  const SimdLevel level = DetectCpuSimdLevel();
  std::printf("SIMD gate: widest CPU tier = %s\n", SimdLevelName(level));

  const double scalar_mcells = MeasureScoreMcells(SimdLevel::kScalar);
  const double vector_mcells = MeasureScoreMcells(level);
  const double scalar_banded = MeasureBandedMcells(SimdLevel::kScalar);
  const double vector_banded = MeasureBandedMcells(level);
  const double scalar_mbases = MeasurePackedMbases(SimdLevel::kScalar);
  const double vector_mbases = MeasurePackedMbases(level);
  const double striped_speedup = vector_mcells / scalar_mcells;
  const double banded_speedup = vector_banded / scalar_banded;
  const double packed_speedup = vector_mbases / scalar_mbases;
  const double striped_agrees = StripedAgreement(level);
  const double banded_agrees = BandedAgreement(level);
  const double packed_agrees = PackedAgreement(level);

  std::printf(
      "striped SW:  scalar %.0f Mcells/s, %s %.0f Mcells/s  (%.2fx)\n"
      "banded SW:   scalar %.0f Mcells/s, %s %.0f Mcells/s  (%.2fx)\n"
      "packed scan: scalar %.0f Mbases/s, %s %.0f Mbases/s  (%.2fx)\n"
      "agreement:   striped %s, banded %s, packed %s\n",
      scalar_mcells, SimdLevelName(level), vector_mcells, striped_speedup,
      scalar_banded, SimdLevelName(level), vector_banded, banded_speedup,
      scalar_mbases, SimdLevelName(level), vector_mbases, packed_speedup,
      striped_agrees == 1.0 ? "ok" : "MISMATCH",
      banded_agrees == 1.0 ? "ok" : "MISMATCH",
      packed_agrees == 1.0 ? "ok" : "MISMATCH");

  bench::JsonMetrics doc("micro_align");
  doc.Add("striped_speedup", striped_speedup);
  doc.Add("packed_scan_speedup", packed_speedup);
  doc.Add("banded_speedup", banded_speedup);
  doc.Add("striped_agrees", striped_agrees);
  doc.Add("banded_agrees", banded_agrees);
  doc.Add("packed_scan_agrees", packed_agrees);
  doc.Add("scalar_mcells_per_s", scalar_mcells);
  doc.Add("vector_mcells_per_s", vector_mcells);
  doc.Add("banded_scalar_mcells_per_s", scalar_banded);
  doc.Add("banded_vector_mcells_per_s", vector_banded);
  doc.Emit(out_path);
  const bool agree =
      striped_agrees == 1.0 && banded_agrees == 1.0 && packed_agrees == 1.0;
  return agree ? 0 : 1;
}

}  // namespace
}  // namespace cafe

int main(int argc, char** argv) {
  bool gate = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      out_path = argv[i] + 16;
    }
  }
  if (gate) return cafe::RunGate(out_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
