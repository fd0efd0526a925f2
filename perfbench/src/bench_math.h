// The benchmark's own arithmetic: exact percentiles over raw samples,
// the open-loop goodput ladder, span self time, and Zipf sampling.
// Kept free of I/O so tests/bench_math_test.cc can pin every rule.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/span.h"
#include "util/random.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples rank
/// above it, so p99 needs 1000 samples and p90 needs 100.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Exact nearest-rank percentile of raw samples: the sample at rank
/// ceil(q * n) in ascending order, for q in (0, 1]. Empty when fewer
/// than `min_beyond` samples rank above it.
std::optional<double> Percentile(std::vector<double> samples, double q,
                                 size_t min_beyond = kMinSamplesBeyond);

/// Median (mean of the two middle values for an even count); 0 when
/// `values` is empty.
double Median(std::vector<double> values);

/// Completions per second that a stall in part of the window does not
/// move: the window [0, `window_s`] is cut into `slices` equal parts and
/// this is the median over them of completions per second. `done_s` are
/// completion times from the window's start; one at `window_s` counts in
/// the last slice. 0 when the window or `slices` is empty.
double SlicedRate(const std::vector<double>& done_s, double window_s,
                  size_t slices);

/// One step of the open-loop rate ladder.
struct LadderStep {
  double rate = 0.0;  ///< offered requests per second
  uint64_t attempted = 0;
  /// Transport errors, refusals, truncations and wrong answers.
  uint64_t failed = 0;
  /// Per successful request, due time to response.
  std::vector<double> latency_ms;
  /// Per attempted request in due order, send time minus due time.
  std::vector<double> lag_ms;
};

/// True when the generator falls further behind during the step: the
/// median lag of the last quarter of requests exceeds that of the first
/// quarter by more than `tolerance_ms`. Needs 8 requests to judge.
bool BacklogGrows(const std::vector<double>& lag_ms, double tolerance_ms);

/// True when the step's p99 over all attempted requests, a failed one
/// counting as missing the limit, is at most `limit_ms`, and its
/// backlog does not grow.
bool MeetsLimit(const LadderStep& step, double limit_ms,
                double backlog_tolerance_ms);

/// The highest rate of the ladder's leading run of steps that meet the
/// limit; 0 when the first step misses it. `steps` ascend in rate.
double Goodput(const std::vector<LadderStep>& steps, double limit_ms,
               double backlog_tolerance_ms);

/// Self time of each span, parallel to `spans`: its duration minus the
/// part of its interval that its direct children cover (overlapping
/// children count once).
std::vector<uint64_t> SelfTimes(const std::vector<cafe::obs::SpanEvent>& spans);

/// Draws ranks 0..n-1 with probability proportional to 1 / (rank+1)^s.
/// The sequence depends only on (n, s, seed).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed);

  size_t Next();

 private:
  std::vector<double> cdf_;
  cafe::Rng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
