#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q,
                                 size_t min_beyond) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double SlicedRate(const std::vector<double>& done_s, double window_s,
                  size_t slices) {
  if (window_s <= 0.0 || slices == 0) return 0.0;
  const double slice_s = window_s / static_cast<double>(slices);
  std::vector<double> counts(slices, 0.0);
  for (double t : done_s) {
    if (t < 0.0 || t > window_s) continue;
    ++counts[std::min(static_cast<size_t>(t / slice_s), slices - 1)];
  }
  return Median(std::move(counts)) / slice_s;
}

bool BacklogGrows(const std::vector<double>& lag_ms, double tolerance_ms) {
  const size_t quarter = lag_ms.size() / 4;
  if (quarter < 2) return false;
  std::vector<double> first(lag_ms.begin(), lag_ms.begin() + quarter);
  std::vector<double> last(lag_ms.end() - quarter, lag_ms.end());
  return Median(std::move(last)) - Median(std::move(first)) > tolerance_ms;
}

bool MeetsLimit(const LadderStep& step, double limit_ms,
                double backlog_tolerance_ms) {
  if (step.attempted == 0) return false;
  // Nearest-rank p99 <= limit  <=>  at least ceil(0.99 n) requests made
  // it within the limit.
  const uint64_t within = static_cast<uint64_t>(
      std::count_if(step.latency_ms.begin(), step.latency_ms.end(),
                    [&](double ms) { return ms <= limit_ms; }));
  const auto needed = static_cast<uint64_t>(
      std::ceil(0.99 * static_cast<double>(step.attempted)));
  return within >= needed &&
         !BacklogGrows(step.lag_ms, backlog_tolerance_ms);
}

double Goodput(const std::vector<LadderStep>& steps, double limit_ms,
               double backlog_tolerance_ms) {
  double best = 0.0;
  for (const LadderStep& step : steps) {
    if (!MeetsLimit(step, limit_ms, backlog_tolerance_ms)) break;
    best = step.rate;
  }
  return best;
}

std::vector<uint64_t> SelfTimes(
    const std::vector<cafe::obs::SpanEvent>& spans) {
  std::unordered_map<uint32_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const cafe::obs::SpanEvent& span : spans) {
    auto parent = index_of.find(span.parent);
    if (span.parent == 0 || parent == index_of.end()) continue;
    children[parent->second].emplace_back(span.begin_ns, span.end_ns);
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t begin = spans[i].begin_ns;
    const uint64_t end = std::max(spans[i].end_ns, begin);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    uint64_t covered = 0;
    uint64_t cursor = begin;
    for (const auto& [kid_begin, kid_end] : kids) {
      const uint64_t lo = std::max(kid_begin, cursor);
      const uint64_t hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Next() {
  const double u = rng_.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

}  // namespace perfbench
