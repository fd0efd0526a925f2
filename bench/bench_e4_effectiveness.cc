// E4 — Retrieval effectiveness vs fine-search budget.
//
// Partitioned search trades a "small reduction in search accuracy" for its
// speed; the dial is how many coarse candidates receive fine alignment.
// With planted homologues we can measure this exactly: recall of the true
// answer set and overlap with the exhaustive Smith-Waterman oracle, as a
// function of fine_candidates, alongside the per-query cost.
//
// The second section measures the chaining middle stage (search/chain.h):
// how far diagonal filtering + collinear chaining shrinks the fine-phase
// candidate count, and that the significant hits are byte-identical with
// chaining on and off — at threads 1 and 4, across both index read
// paths. With --benchmark_format=json (and/or --benchmark_out=FILE) it
// emits the machine-readable document tools/benchgate.py compares
// against bench/baselines/chain.json in CI.

#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "index/index_reader.h"
#include "obs/trace.h"
#include "search/exhaustive.h"
#include "search/partitioned.h"
#include "util/flags.h"

using namespace cafe;

namespace {

// Hits above the per-query significance floor, as comparable values.
// The floor (40% of the chaining-off run's best score, the same notion
// the effectiveness section uses) excises the random-alignment noise
// that pads a top-20 over random background — chance candidates with
// no collinear seed run are exactly what chaining prunes, so only the
// hits above the floor are covered by the parity contract.
using HitKey = std::tuple<uint32_t, int, double>;

std::vector<std::vector<HitKey>> SignificantHits(
    const std::vector<SearchResult>& results,
    const std::vector<int>& floors) {
  std::vector<std::vector<HitKey>> out(results.size());
  for (size_t q = 0; q < results.size(); ++q) {
    for (const SearchHit& h : results[q].hits) {
      if (h.score >= floors[q]) {
        out[q].emplace_back(h.seq_id, h.score, h.coarse_score);
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool json = flags.GetString("benchmark_format", "console") == "json";
  const std::string out_path = flags.GetString("benchmark_out", "");
  bench::Unwrap(flags.Finish(), "flags");
  bench::PrintHeader(
      "E4: retrieval effectiveness vs candidates fine-searched",
      "index-based partitioned search matches exhaustive ranking with a "
      "\"small reduction in search accuracy\"");

  sim::CollectionOptions copt;
  copt.target_bases =
      static_cast<uint64_t>(bench::MegabasesFromEnv(1.0) * 1e6);
  copt.seed = bench::SeedFromEnv();
  sim::WorkloadOptions wopt;
  wopt.num_queries = bench::QueriesFromEnv(8);
  wopt.query_length = 300;
  wopt.homologs_per_query = 6;
  wopt.min_homolog_divergence = 0.05;
  wopt.max_homolog_divergence = 0.30;
  wopt.seed = bench::SeedFromEnv() + 1;

  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  if (!wl.ok()) return 1;
  bench::PrintCollectionLine(wl->collection);
  std::printf("queries: %u, planted homologues per query: %u "
              "(5%%..30%% divergence)\n\n",
              wopt.num_queries, wopt.homologs_per_query);

  IndexOptions iopt;
  iopt.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  if (!index.ok()) return 1;

  std::vector<std::string> queries;
  for (const auto& q : wl->queries) queries.push_back(q.sequence);

  // Exhaustive oracle ranking, computed once.
  SearchOptions oracle_options;
  oracle_options.max_results = 20;
  ExhaustiveSearch exhaustive(&wl->collection);
  eval::BatchResult oracle = bench::Unwrap(
      eval::RunBatch(&exhaustive, queries, oracle_options), "oracle");
  double oracle_ms = oracle.mean_query_seconds * 1e3;

  // "Significant" oracle hits: score at least 40% of that query's best —
  // real homologies rather than the random-alignment noise floor that any
  // 20-deep ranking over random background necessarily drags in.
  auto significant = [&](const SearchResult& r) {
    std::vector<SearchHit> out;
    if (r.hits.empty()) return out;
    int floor = r.hits[0].score * 2 / 5;
    for (const SearchHit& h : r.hits) {
      if (h.score >= floor) out.push_back(h);
    }
    return out;
  };

  PartitionedSearch part(&wl->collection, &*index);
  eval::TablePrinter table({"fine candidates", "planted recall@20",
                            "sig overlap@20", "oracle overlap@10",
                            "oracle overlap@20", "ms/query",
                            "vs exhaustive"});
  for (uint32_t candidates : {1u, 5u, 10u, 20u, 50u, 100u, 250u}) {
    SearchOptions options;
    options.max_results = 20;
    options.fine_candidates = candidates;
    eval::BatchResult batch = bench::Unwrap(
        eval::RunBatch(&part, queries, options), "partitioned batch");

    double recall = 0, sig20 = 0, overlap10 = 0, overlap20 = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      recall += eval::RecallAtK(batch.results[q].hits,
                                wl->queries[q].true_positives, 20);
      sig20 += eval::OverlapAtK(batch.results[q].hits,
                                significant(oracle.results[q]), 20);
      overlap10 +=
          eval::OverlapAtK(batch.results[q].hits, oracle.results[q].hits, 10);
      overlap20 +=
          eval::OverlapAtK(batch.results[q].hits, oracle.results[q].hits, 20);
    }
    double n = static_cast<double>(queries.size());
    double ms = batch.mean_query_seconds * 1e3;
    table.AddRow({std::to_string(candidates), FormatDouble(recall / n, 3),
                  FormatDouble(sig20 / n, 3), FormatDouble(overlap10 / n, 3),
                  FormatDouble(overlap20 / n, 3), FormatDouble(ms, 1),
                  FormatDouble(oracle_ms / ms, 1) + "x"});
  }
  table.Print();
  std::printf("\nexhaustive oracle: %.1f ms/query\n", oracle_ms);
  std::printf(
      "\nshape check: planted recall and significant-hit overlap climb "
      "steeply and\nsaturate near 1.0 within tens of candidates — the "
      "accuracy loss at practical\nbudgets is small while the speedup over "
      "exhaustive remains large. The raw\noverlap@20 stays lower because "
      "an exhaustive top-20 over random background\nis mostly noise-floor "
      "alignments, which no selective method (nor the paper's)\n"
      "reproduces.\n");

  // ---- Chaining middle stage: funnel shrinkage and hit parity ----
  std::printf(
      "\nchaining funnel (fine_candidates=100, every read path, threads "
      "1 and 4):\n\n");
  std::string idx_path = TempDir() + "/cafe_bench_e4.idx";
  bench::Unwrap(index->Save(idx_path), "index save");

  SearchOptions chain_base;
  chain_base.max_results = 20;
  chain_base.fine_candidates = 100;
  // The chain-length dial, scaled to this workload. The coarse ranker
  // already ranks by a windowed diagonal statistic, so its top-100 is
  // selection-biased toward noise docs whose best window holds 4-5
  // chance anchors — and inside a 2-frame window collinearity is
  // nearly automatic, so tiny thresholds drop nothing. Chance windows
  // top out near 8-9 anchors here while a planted homologue (even at
  // 30% divergence) chains 12+ collinear seeds across the full query.
  chain_base.min_chain_score = 8;

  // Per-query significance floors from the reference run (memory read
  // path, threads 1, chaining off).
  std::vector<int> floors;
  {
    eval::BatchResult ref = bench::Unwrap(
        eval::RunBatch(&part, queries, chain_base), "floor batch");
    for (const SearchResult& r : ref.results) {
      floors.push_back(r.hits.empty() ? 1 : r.hits[0].score * 2 / 5);
    }
  }

  eval::TablePrinter chain_table({"read path", "threads", "aligned/q off",
                                  "aligned/q on", "ratio", "anchors/q",
                                  "sig hits identical"});
  const double nq = static_cast<double>(queries.size());
  uint64_t aligned_off_total = 0;
  uint64_t aligned_on_total = 0;
  uint64_t anchors_total = 0;
  uint64_t chain_micros_total = 0;
  uint64_t coarse_micros_total = 0;
  uint64_t chain_runs = 0;
  bool tophits_identical = true;
  bool modes_agree = true;
  std::vector<std::vector<HitKey>> reference_hits;
  for (IndexMode mode : {IndexMode::kMemory, IndexMode::kMmap}) {
    Result<IndexReader> reader = IndexReader::Open(idx_path, mode);
    bench::Unwrap(reader.status(), "index open");
    PartitionedSearch engine(&wl->collection, reader->source());
    for (uint32_t threads : {1u, 4u}) {
      SearchOptions off = chain_base;
      off.threads = threads;
      eval::BatchResult off_batch = bench::Unwrap(
          eval::RunBatch(&engine, queries, off), "chain-off batch");
      const obs::SearchTrace& off_trace = off_batch.aggregate;

      SearchOptions on = off;
      on.chain_mode = ChainMode::kFilter;
      eval::BatchResult on_batch = bench::Unwrap(
          eval::RunBatch(&engine, queries, on), "chain-on batch");
      const obs::SearchTrace& on_trace = on_batch.aggregate;

      std::vector<std::vector<HitKey>> off_hits =
          SignificantHits(off_batch.results, floors);
      std::vector<std::vector<HitKey>> on_hits =
          SignificantHits(on_batch.results, floors);
      const bool identical = off_hits == on_hits;
      tophits_identical = tophits_identical && identical;
      if (reference_hits.empty()) {
        reference_hits = off_hits;
      } else if (off_hits != reference_hits ||
                 on_hits != reference_hits) {
        modes_agree = false;
      }
      aligned_off_total += off_trace.candidates_aligned;
      aligned_on_total += on_trace.candidates_aligned;
      anchors_total += on_trace.chain_anchors;
      chain_micros_total += on_trace.chain_micros;
      coarse_micros_total += on_trace.coarse_micros;
      ++chain_runs;
      chain_table.AddRow(
          {IndexModeName(mode), std::to_string(threads),
           FormatDouble(
               static_cast<double>(off_trace.candidates_aligned) / nq, 1),
           FormatDouble(
               static_cast<double>(on_trace.candidates_aligned) / nq, 1),
           FormatDouble(static_cast<double>(on_trace.candidates_aligned) /
                            static_cast<double>(off_trace.candidates_aligned),
                        3),
           FormatDouble(static_cast<double>(on_trace.chain_anchors) / nq, 0),
           identical ? "yes" : "NO"});
    }
  }
  chain_table.Print();
  bench::Unwrap(RemoveFile(idx_path), "cleanup");

  const double fine_ratio =
      static_cast<double>(aligned_on_total) /
      static_cast<double>(aligned_off_total == 0 ? 1 : aligned_off_total);
  // The chain stage reads the anchors the coarse ranker carries; a
  // second decode of the postings would put it near the coarse cost.
  const double chain_over_coarse =
      static_cast<double>(chain_micros_total) /
      static_cast<double>(coarse_micros_total == 0 ? 1 : coarse_micros_total);
  const double runs = static_cast<double>(chain_runs);
  std::printf(
      "\nchaining keeps %.1f%% of fine-phase candidates (gate: <= 50%%); "
      "significant\nhits %s across chain on/off, read paths and thread "
      "counts.\nchain time / coarse time over the chain-on batches: %.3f "
      "(gate: <= 0.25).\n",
      100.0 * fine_ratio,
      tophits_identical && modes_agree ? "identical" : "DIFFER",
      chain_over_coarse);

  if (json || !out_path.empty()) {
    bench::JsonMetrics doc("e4_chain");
    doc.Add("fine_candidates_ratio", fine_ratio);
    doc.Add("tophits_identical", tophits_identical ? 1.0 : 0.0);
    doc.Add("modes_agree", modes_agree ? 1.0 : 0.0);
    doc.Add("aligned_per_query_off",
            static_cast<double>(aligned_off_total) / nq / runs);
    doc.Add("aligned_per_query_on",
            static_cast<double>(aligned_on_total) / nq / runs);
    doc.Add("chain_anchors_per_query",
            static_cast<double>(anchors_total) / nq / runs);
    doc.Add("chain_over_coarse", chain_over_coarse);
    doc.Emit(out_path);
  }

  return (tophits_identical && modes_agree && fine_ratio <= 0.5) ? 0 : 1;
}
