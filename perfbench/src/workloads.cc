#include "workloads.h"

#include <sys/stat.h>

#include <utility>

#include "collection/collection.h"
#include "index/inverted_index.h"
#include "sim/generator.h"
#include "util/timer.h"

namespace perfbench {
namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // The paper's default path for one waiting user: the fine phase
  // (sequence fetch + banded DP) dominates, the dispatcher idles.
  WorkloadSpec interactive;
  interactive.name = "interactive_4m";
  interactive.target_bases = 4'000'000;
  interactive.num_queries = 64;
  interactive.connections = 1;
  interactive.setup_repeats = 3;
  all.push_back(interactive);

  // Coarse cost grows with the collection while fine cost is capped by
  // fine_candidates; the index outgrows the last-level cache.
  WorkloadSpec bulk;
  bulk.name = "bulk_48m_chain";
  bulk.target_bases = 48'000'000;
  bulk.repeat_fraction = 0.05;
  bulk.num_queries = 64;
  bulk.chain_mode = cafe::ChainMode::kFilter;
  bulk.min_chain_score = 8;
  // Two connections, not four: with every core busy the run measures
  // the other guests on the host more than the program.
  bulk.connections = 2;
  bulk.setup_repeats = 1;
  all.push_back(bulk);

  // The serving layers: accept churn, queue wait, batching across two
  // option classes, Zipf-repeated queries. Same collection as
  // interactive_4m (same generator settings and seed).
  WorkloadSpec open = interactive;
  open.name = "serve_open_4m";
  open.shape = LoadShape::kOpenLadder;
  open.connections = 4;
  open.ladder_rates = {12, 24, 36, 48, 72, 108, 156};
  open.reference_rate = 24;
  open.reconnect_every = 50;
  open.zipf_s = 1.0;
  open.both_strands_frac = 0.10;
  all.push_back(open);
  return all;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

cafe::server::SearchRequest MakeRequest(const std::string& query,
                                        bool both_strands) {
  cafe::server::SearchRequest request;
  request.max_results = 10;
  request.both_strands = both_strands;
  request.query = query;
  return request;
}

cafe::SearchOptions ServerOptions(const WorkloadSpec& spec,
                                  const cafe::server::SearchRequest& request) {
  // Mirrors Dispatcher::Execute: wire options plus the server flags.
  cafe::SearchOptions options = request.ToSearchOptions();
  options.threads = 1;
  options.chain_mode = spec.chain_mode;
  options.min_chain_score = spec.min_chain_score;
  return options;
}

cafe::Result<Prepared> SetUp(const WorkloadSpec& spec, uint64_t seed,
                             const std::string& work_dir,
                             const std::string& serve_binary) {
  Prepared out;
  cafe::WallTimer total;

  cafe::sim::CollectionOptions col;
  col.target_bases = spec.target_bases;
  col.repeat_fraction = spec.repeat_fraction;
  col.seed = seed;
  cafe::sim::WorkloadOptions wl;
  wl.num_queries = spec.num_queries;
  wl.query_length = 300;
  wl.seed = seed ^ 0x5EEDF00Dull;
  cafe::WallTimer step;
  cafe::Result<cafe::sim::PlantedWorkload> planted =
      cafe::sim::BuildPlantedWorkload(col, wl);
  if (!planted.ok()) return planted.status();
  out.generate_s = step.Seconds();

  step.Restart();
  cafe::IndexOptions index_options;  // interval 8, positional: the default
  cafe::Result<cafe::InvertedIndex> index = cafe::IndexBuilder::BuildParallel(
      planted->collection, index_options, /*threads=*/4);
  if (!index.ok()) return index.status();
  out.build_s = step.Seconds();

  out.collection_path = work_dir + "/collection.bin";
  out.index_path = work_dir + "/index.bin";
  CAFE_RETURN_IF_ERROR(planted->collection.Save(out.collection_path));
  CAFE_RETURN_IF_ERROR(index->Save(out.index_path));
  out.total_bases = planted->collection.TotalBases();
  out.collection_bytes = FileBytes(out.collection_path);
  out.index_bytes = FileBytes(out.index_path);
  out.queries = std::move(planted->queries);
  // Free the build's memory before the server maps the files.
  *index = cafe::InvertedIndex();
  planted->collection = cafe::SequenceCollection();

  std::vector<std::string> args = {
      "--collection", out.collection_path, "--index", out.index_path,
      "--workers", std::to_string(kServerWorkers), "--index-mode", "mmap",
      "--chain", cafe::ChainModeName(spec.chain_mode), "--min-chain",
      std::to_string(spec.min_chain_score)};
  cafe::Result<std::unique_ptr<ServerProcess>> server =
      ServerProcess::Start(serve_binary, args, work_dir, /*timeout_s=*/60);
  if (!server.ok()) return server.status();
  out.server = std::move(*server);
  out.total_s = total.Seconds();
  return out;
}

}  // namespace perfbench
