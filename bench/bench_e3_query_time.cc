// E3 — Query evaluation time: partitioned search vs exhaustive techniques.
//
// The abstract's headline: "queries can be evaluated several times more
// quickly than with exhaustive search techniques". We run the same query
// batch through the partitioned engine (both coarse-ranking modes), the
// scan-based BLAST-like and FASTA-like heuristics, and full Smith-
// Waterman, reporting per-query wall time, speedup over exhaustive SW,
// and the work accounting that explains it (DP cells, candidates).

#include <memory>
#include <string>

#include "bench_common.h"
#include "eval/harness.h"
#include "index/mmap_index.h"
#include "obs/trace.h"
#include "eval/table.h"
#include "search/blast_like.h"
#include "search/exhaustive.h"
#include "search/fasta_like.h"
#include "search/partitioned.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace cafe;

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool json = flags.GetString("benchmark_format", "console") == "json";
  const std::string out_path = flags.GetString("benchmark_out", "");
  bench::Unwrap(flags.Finish(), "flags");

  bench::PrintHeader(
      "E3: query evaluation time vs exhaustive search",
      "\"queries can be evaluated several times more quickly than with "
      "exhaustive search techniques\" (later CAFE reports ~8x BLAST, "
      "~50x FASTA)");

  SequenceCollection col = bench::MakeCollection(
      bench::MegabasesFromEnv(4.0), bench::SeedFromEnv());
  bench::PrintCollectionLine(col);

  const uint32_t num_queries = bench::QueriesFromEnv(5);
  std::vector<std::string> queries = bench::Unwrap(
      sim::SampleQueries(col, num_queries, 300, 0.08, bench::SeedFromEnv()),
      "query sampling");
  std::printf("queries: %u of length ~300 at 8%% divergence\n\n",
              num_queries);

  IndexOptions iopt;
  iopt.interval_length = 8;
  WallTimer build_timer;
  Result<InvertedIndex> index = IndexBuilder::Build(col, iopt);
  if (!index.ok()) return 1;
  std::printf("index: built in %.1fs, %s on disk\n\n", build_timer.Seconds(),
              HumanBytes(index->SerializedBytes()).c_str());

  // Disk-resident variant of the same index (CAFE's deployment shape),
  // served zero-copy out of a read-only mapping.
  std::string disk_path = TempDir() + "/cafe_bench_e3.idx";
  bench::Unwrap(index->Save(disk_path), "index save");
  Result<std::unique_ptr<MmapIndex>> mapped = MmapIndex::Open(disk_path);
  if (!mapped.ok()) return 1;

  SearchOptions options;
  options.max_results = 20;
  options.fine_candidates = 100;

  PartitionedSearch part_diag(&col, &*index);
  PartitionedSearch part_mmap(&col, mapped->get());
  PartitionedSearch part_hits(&col, &*index);
  BlastLikeSearch blast(&col);
  FastaLikeSearch fasta(&col);
  ExhaustiveSearch exhaustive(&col);

  struct Row {
    const char* label;
    SearchEngine* engine;
    SearchOptions options;
  };
  SearchOptions hit_options = options;
  hit_options.coarse_mode = CoarseRankMode::kHitCount;
  std::vector<Row> rows = {
      {"partitioned (diagonal)", &part_diag, options},
      {"partitioned (mmap index)", &part_mmap, options},
      {"partitioned (hit-count)", &part_hits, hit_options},
      {"blast-like scan", &blast, options},
      {"fasta-like scan", &fasta, options},
      {"exhaustive SW", &exhaustive, options},
  };

  eval::TablePrinter table({"engine", "ms/query", "speedup", "Mcells/query",
                            "aligned/query", "top hit agrees"});
  double exhaustive_ms = 0.0;
  std::vector<eval::BatchResult> batches;
  for (size_t i = 0; i < rows.size(); ++i) {
    batches.push_back(bench::Unwrap(
        eval::RunBatch(rows[i].engine, queries, rows[i].options),
        rows[i].label));
  }
  exhaustive_ms = batches.back().mean_query_seconds * 1e3;

  const eval::BatchResult& oracle = batches.back();
  std::vector<double> speedups(rows.size());
  std::vector<uint32_t> agreements(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const eval::BatchResult& b = batches[i];
    double ms = b.mean_query_seconds * 1e3;
    uint32_t agree = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!b.results[q].hits.empty() && !oracle.results[q].hits.empty() &&
          b.results[q].hits[0].seq_id == oracle.results[q].hits[0].seq_id) {
        ++agree;
      }
    }
    speedups[i] = exhaustive_ms / ms;
    agreements[i] = agree;
    table.AddRow(
        {rows[i].label, FormatDouble(ms, 1),
         FormatDouble(exhaustive_ms / ms, 1) + "x",
         FormatDouble(static_cast<double>(b.aggregate.cells_computed) /
                          queries.size() / 1e6,
                      1),
         FormatDouble(static_cast<double>(b.aggregate.candidates_aligned) /
                          queries.size(),
                      0),
         std::to_string(agree) + "/" + std::to_string(queries.size())});
  }
  table.Print();

  // Per-stage and funnel accounting from each batch's merged trace (the
  // record behind `cafe_cli search --stats`): where each engine spends
  // its time and how hard the coarse phase prunes.
  std::printf("\nstage breakdown (per query, from SearchTrace):\n");
  eval::TablePrinter stages({"engine", "coarse us", "fine us", "post us",
                             "lists", "postings", "kept", "aligned"});
  const double nq = static_cast<double>(queries.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const obs::SearchTrace& t = batches[i].aggregate;
    stages.AddRow(
        {rows[i].label, FormatDouble(t.coarse_micros / nq, 0),
         FormatDouble(t.fine_micros / nq, 0),
         FormatDouble(t.post_micros / nq, 0),
         FormatDouble(static_cast<double>(t.postings_lists_touched) / nq, 0),
         FormatDouble(static_cast<double>(t.postings_decoded) / nq, 0),
         FormatDouble(static_cast<double>(t.candidates_kept) / nq, 0),
         FormatDouble(static_cast<double>(t.candidates_aligned) / nq, 0)});
  }
  stages.Print();

  bench::Unwrap(RemoveFile(disk_path), "cleanup");

  // Thread-count sweep: the same query batch through the partitioned
  // engine with BatchSearch fanning queries over 1/2/4/8 workers.
  // Rankings are bit-identical across thread counts (asserted below);
  // only wall time changes.
  std::printf("\nthread sweep (partitioned diagonal, %u queries, "
              "%u hardware threads):\n",
              num_queries, ThreadPool::HardwareThreads());
  eval::TablePrinter sweep(
      {"threads", "batch seconds", "queries/sec", "speedup vs 1"});
  double base_wall = 0.0;
  std::vector<eval::BatchResult> sweep_results;
  for (uint32_t t : {1u, 2u, 4u, 8u}) {
    SearchOptions sweep_options = options;
    sweep_options.threads = t;
    eval::BatchResult b = bench::Unwrap(
        eval::RunBatch(&part_diag, queries, sweep_options),
        "thread sweep");
    if (t == 1) base_wall = b.wall_seconds;
    sweep.AddRow(
        {std::to_string(t), FormatDouble(b.wall_seconds, 3),
         FormatDouble(static_cast<double>(queries.size()) / b.wall_seconds,
                      1),
         FormatDouble(base_wall / b.wall_seconds, 2) + "x"});
    sweep_results.push_back(std::move(b));
  }
  sweep.Print();

  bool identical = true;
  for (const eval::BatchResult& b : sweep_results) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto& ref = sweep_results[0].results[q].hits;
      const auto& got = b.results[q].hits;
      if (got.size() != ref.size()) identical = false;
      for (size_t h = 0; identical && h < ref.size(); ++h) {
        if (got[h].seq_id != ref[h].seq_id ||
            got[h].score != ref[h].score ||
            got[h].coarse_score != ref[h].coarse_score) {
          identical = false;
        }
      }
    }
  }
  std::printf("ranked results identical across thread counts: %s\n",
              identical ? "yes" : "NO — BUG");

  // Gate metrics for tools/benchgate.py: within-run speedups over the
  // exhaustive oracle and answer-quality ratios — stable across
  // machines, unlike absolute per-query times.
  if (json || !out_path.empty()) {
    bench::JsonMetrics doc("e3_query_time");
    const double nq_d = static_cast<double>(queries.size());
    doc.Add("speedup_partitioned_diagonal", speedups[0]);
    // The *_disk keys name the disk-resident (mmap) row.
    doc.Add("speedup_partitioned_disk", speedups[1]);
    doc.Add("speedup_partitioned_hitcount", speedups[2]);
    doc.Add("speedup_blast_like", speedups[3]);
    doc.Add("speedup_fasta_like", speedups[4]);
    doc.Add("agreement_partitioned_diagonal", agreements[0] / nq_d);
    doc.Add("agreement_partitioned_disk", agreements[1] / nq_d);
    doc.Add("threads_identical", identical ? 1.0 : 0.0);
    // The paper's method (diagonal coarse ranking + banded fine
    // alignment) against its own hit-count ablation (full striped SW on
    // the same candidate budget): must stay at or below 1.
    doc.Add("diagonal_over_hitcount",
            batches[0].mean_query_seconds / batches[2].mean_query_seconds);
    doc.Emit(out_path);
  }

  std::printf(
      "\nshape check: partitioned search is several times faster than the "
      "scan\nbaselines and 1-2 orders faster than exhaustive SW, at equal "
      "top-hit\nanswers; the Mcells column shows where the time goes.\n");
  return identical ? 0 : 1;
}
