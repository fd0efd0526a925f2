// Socket-level load against cafe_serve through server::Client, with
// raw per-request latency samples and a correctness check of every
// served answer against the in-process reference.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "search/engine.h"
#include "server/client.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

/// (pool query index, both strands) — one distinct request.
using RequestKey = std::pair<uint32_t, bool>;

/// In-process SearchWithStrands answers under the server's options.
class ReferenceAnswers {
 public:
  /// Answers every key in `keys`, four queries at a time.
  static cafe::Result<ReferenceAnswers> Compute(
      const WorkloadSpec& spec, cafe::SearchEngine* engine,
      const std::vector<std::string>& pool, const std::set<RequestKey>& keys);

  /// Null when `key` was not computed.
  const cafe::SearchResult* Find(RequestKey key) const;

 private:
  std::map<RequestKey, cafe::SearchResult> results_;
};

/// Served and reference hits agree on (seq_id, score, strand), in order.
bool SameHits(const std::vector<cafe::SearchHit>& served,
              const std::vector<cafe::SearchHit>& reference);

/// What happened to a set of requests.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  /// Transport errors, Overloaded refusals, truncations, wrong answers.
  uint64_t failed = 0;
  uint64_t mismatched = 0;  ///< of `failed`: not the reference answer
  std::vector<double> latency_ms;  ///< successful requests only

  void Merge(const Tally& other);
};

/// Connections shared by the open-loop steps. Every `reconnect_every`-th
/// request (0 = never) closes and reopens the connection that sends it,
/// so each connection reconnects about every `reconnect_every` of its
/// own requests and the number of connections made depends only on the
/// number of requests.
class ConnectionPool {
 public:
  ConnectionPool(uint16_t port, uint32_t size, uint32_t reconnect_every);

  uint32_t size() const { return static_cast<uint32_t>(clients_.size()); }

  /// The connection for slot `i` (one thread per slot), reconnecting
  /// when one is due or the last was lost; null when the connect fails.
  cafe::server::Client* Acquire(uint32_t i);
  /// Drops slot `i`'s connection after a transport error.
  void Drop(uint32_t i) { clients_[i].reset(); }

 private:
  uint16_t port_;
  uint32_t reconnect_every_;
  std::atomic<uint64_t> requests_{0};
  std::vector<std::unique_ptr<cafe::server::Client>> clients_;
};

struct ClosedLoopResult {
  Tally tally;
  double window_s = 0.0;  ///< start until the last response
  std::vector<double> done_s;  ///< per OK response, seconds from start
};

/// Each connection cycles through `pool` (connection c starting at
/// c * |pool| / connections), sending its next request when the last
/// returns, until `seconds` pass or it sent `max_per_connection`.
ClosedLoopResult RunClosedLoop(uint16_t port, uint32_t connections,
                               const std::vector<std::string>& pool,
                               const ReferenceAnswers& reference,
                               double seconds, uint64_t max_per_connection);

/// One scheduled open-loop request.
struct Planned {
  double due_s = 0.0;  ///< from the step's start
  uint32_t query = 0;
  bool both_strands = false;
};

/// `round(rate * duration_s)` Poisson arrivals over `duration_s` (sorted
/// uniform times: a Poisson process conditioned on its count), queries
/// drawn from `zipf`, both strands with probability `both_frac`.
std::vector<Planned> PlanStep(double rate, double duration_s,
                              ZipfSampler* zipf, cafe::Rng* rng,
                              double both_frac);

struct OpenStepResult {
  LadderStep step;  ///< latency from due time, lag in due order
  Tally tally;
  double window_s = 0.0;  ///< max(duration, start to last response)
};

/// Sends `plan`, scheduled over `duration_s`, on `pool`: each
/// connection's thread takes the next request in due order, waits for
/// its due time and sends it.
OpenStepResult RunOpenStep(ConnectionPool* pool, double rate,
                           double duration_s,
                           const std::vector<Planned>& plan,
                           const std::vector<std::string>& queries,
                           const ReferenceAnswers& reference);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
