// The benchmark's workloads and their set-up: generate a collection
// with planted homologues (sim::BuildPlantedWorkload), build and write
// its index and store, and start cafe_serve over them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "search/engine.h"
#include "server/protocol.h"
#include "server_process.h"
#include "sim/workload.h"
#include "util/status.h"

namespace perfbench {

enum class LoadShape {
  /// Each connection sends its next request when the last one returns.
  kClosedLoop,
  /// Poisson arrivals on a rate ladder, any free connection sending the
  /// next due request.
  kOpenLadder,
};

/// cafe_serve --workers on every workload: one per core.
inline constexpr uint32_t kServerWorkers = 4;

struct WorkloadSpec {
  std::string name;

  // Collection and queries.
  uint64_t target_bases = 0;
  double repeat_fraction = 0.0;
  uint32_t num_queries = 0;

  // Server.
  cafe::ChainMode chain_mode = cafe::ChainMode::kOff;
  uint32_t min_chain_score = 2;

  // Traffic.
  LoadShape shape = LoadShape::kClosedLoop;
  uint32_t connections = 1;
  /// Set-ups timed per measured run; setup_s is their median.
  int setup_repeats = 1;

  // Open loop only.
  std::vector<double> ladder_rates;
  double reference_rate = 0.0;
  uint32_t reconnect_every = 0;
  double zipf_s = 1.0;
  double both_strands_frac = 0.0;
};

/// Every workload, in the order `--workload all` runs them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// The wire request every workload sends (top 10, server defaults
/// otherwise) for pool query `query`.
cafe::server::SearchRequest MakeRequest(const std::string& query,
                                        bool both_strands);

/// The engine options cafe_serve applies to `request` under `spec`'s
/// server flags: the in-process reference for served answers.
cafe::SearchOptions ServerOptions(const WorkloadSpec& spec,
                                  const cafe::server::SearchRequest& request);

/// One completed set-up.
struct Prepared {
  std::vector<cafe::sim::PlantedQuery> queries;
  std::string collection_path;
  std::string index_path;
  uint64_t total_bases = 0;
  uint64_t collection_bytes = 0;
  uint64_t index_bytes = 0;
  double generate_s = 0.0;   ///< BuildPlantedWorkload
  double build_s = 0.0;      ///< index build
  double total_s = 0.0;      ///< the whole set-up, through server start
  std::unique_ptr<ServerProcess> server;
};

/// Generates `spec`'s collection and queries from `seed`, writes the
/// store and index under `work_dir`, and starts `serve_binary` on them.
cafe::Result<Prepared> SetUp(const WorkloadSpec& spec, uint64_t seed,
                             const std::string& work_dir,
                             const std::string& serve_binary);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
