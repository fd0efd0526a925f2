// cafe_perfbench — one workload of the repository benchmark.
//
//   cafe_perfbench --workload NAME --seed N --seconds S --trace 0|1
//       --serve-bin PATH --work-dir DIR [--trace-out FILE]
//
// --trace 0 (the measured run): sets the workload up, starts cafe_serve
// on loopback over an mmap index, drives it through server::Client and
// reports the end-to-end metrics. --trace 1 (the traced run): sets up
// once, replays queries layer by layer in process, measures the serving
// layers, and reports the per-layer metrics; FILE receives the replay's
// Chrome-trace JSON. Either way every served answer is checked against
// the in-process reference.
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status 0 when every answer was correct, 1 otherwise, 2 on a
// usage or set-up error.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_math.h"
#include "collection/collection.h"
#include "index/index_reader.h"
#include "load.h"
#include "search/partitioned.h"
#include "server/dispatcher.h"
#include "traced_run.h"
#include "util/flags.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Open-loop ladder: the latency limit a step's p99 must meet, and how
// much later (median lag, last quarter vs first) the generator may run
// before the backlog counts as growing.
constexpr double kLatencyLimitMs = 500.0;
constexpr double kBacklogToleranceMs = 100.0;
// Share of --seconds for the reference-rate step and for each other step.
constexpr double kReferenceStepShare = 0.6;
constexpr double kOtherStepShare = 0.06;
// A closed loop's qps is the median rate over this many equal slices of
// the timed window, so a stall of the host in a few of them (CPU steal
// from other guests) does not move it.
constexpr size_t kRateSlices = 8;
// The traced run replays this many pool queries, and times this many
// queries, each this many rounds, for server.overhead_us.
constexpr size_t kReplayQueries = 24;
constexpr size_t kOverheadQueries = 8;
constexpr size_t kOverheadRounds = 5;
// trace.coverage outside this range means the replay does not account
// for the engine's time and the traced run is invalid.
constexpr double kMinCoverage = 0.8;
constexpr double kMaxCoverage = 1.25;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// False for figures printed in the report only (see README.md).
  bool in_result = true;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit,
           bool in_result = true) {
    metrics.push_back({std::move(name), value, std::move(unit), in_result});
  }
};

void PrintReport(const std::string& workload, int trace, const Report& r) {
  std::printf("workload %s (%s run)\n", workload.c_str(),
              trace ? "traced" : "measured");
  for (const Metric& m : r.metrics) {
    std::printf("  %-32s %14.4f %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.in_result ? "" : "  (report only)");
  }
  for (const std::string& note : r.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::printf("  attempted %llu, failed %llu, %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "every check passed" : "a check FAILED");
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  // The result format needs attempted >= 1; a run that attempted
  // nothing has already failed its checks.
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(r.attempted, 1));
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const Metric& m : r.metrics) {
    if (!m.in_result) continue;
    std::snprintf(buf, sizeof(buf), "%.9g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<std::string> QueryStrings(const Prepared& prep) {
  std::vector<std::string> pool;
  for (const cafe::sim::PlantedQuery& q : prep.queries) {
    pool.push_back(q.sequence);
  }
  return pool;
}

// Fraction of planted homologues found in the top 10 of the forward
// reference answers.
double RecallAt10(const Prepared& prep, const ReferenceAnswers& reference) {
  uint64_t found = 0, planted = 0;
  for (uint32_t q = 0; q < prep.queries.size(); ++q) {
    const cafe::SearchResult* result = reference.Find({q, false});
    std::set<uint32_t> top;
    if (result != nullptr) {
      for (const cafe::SearchHit& hit : result->hits) top.insert(hit.seq_id);
    }
    for (uint32_t truth : prep.queries[q].true_positives) {
      ++planted;
      found += top.count(truth);
    }
  }
  return planted == 0 ? 0.0
                      : static_cast<double>(found) /
                            static_cast<double>(planted);
}

// The in-process engine over the files the server serves.
struct LocalEngine {
  cafe::SequenceCollection collection;
  std::optional<cafe::IndexReader> reader;
  std::optional<cafe::PartitionedSearch> engine;
};

cafe::Status OpenLocal(const Prepared& prep, LocalEngine* local) {
  auto collection = cafe::SequenceCollection::Load(prep.collection_path);
  if (!collection.ok()) return collection.status();
  local->collection = std::move(*collection);
  auto reader = cafe::IndexReader::Open(prep.index_path,
                                        cafe::IndexMode::kMmap);
  if (!reader.ok()) return reader.status();
  local->reader.emplace(std::move(*reader));
  local->engine.emplace(&local->collection, local->reader->source());
  return cafe::Status::OK();
}

// The tail percentiles are report only: on the closed loops the p90
// tracks the host's scheduling jitter (see README.md), not the program.
void AddLatencies(const std::vector<double>& samples, Report* report) {
  const char* names[] = {"latency_p50_ms", "latency_p90_ms",
                         "latency_p99_ms"};
  const double qs[] = {0.50, 0.90, 0.99};
  for (int i = 0; i < 3; ++i) {
    std::optional<double> p = Percentile(samples, qs[i]);
    if (p.has_value()) {
      report->Add(names[i], *p, "ms", /*in_result=*/i == 0);
    } else {
      report->notes.push_back(std::string(names[i]) + " not reported: " +
                              std::to_string(samples.size()) +
                              " samples leave fewer than 10 beyond it");
      if (i == 0) report->correct = false;
    }
  }
  report->Add("latency_samples", static_cast<double>(samples.size()),
              "count", false);
}

void AddMemory(const ServerProcess& server, Report* report) {
  double rss = 0, vm = 0;
  cafe::Status s = server.PeakMemory(&rss, &vm);
  if (!s.ok()) {
    report->notes.push_back(s.ToString());
    report->correct = false;
  }
  report->Add("peak_rss_mb", rss, "MiB");
  report->Add("peak_vm_mb", vm, "MiB");
}

void CountMismatches(const Tally& tally, Report* report) {
  if (tally.mismatched > 0) report->correct = false;
}

double StepSeconds(const WorkloadSpec& spec, double rate, double seconds) {
  return (rate == spec.reference_rate ? kReferenceStepShare
                                      : kOtherStepShare) *
         seconds;
}

// The open-loop random streams: which query (Zipf) and when (arrivals).
ZipfSampler QueryDraws(const WorkloadSpec& spec, size_t pool, uint64_t seed) {
  return ZipfSampler(pool, spec.zipf_s, seed ^ 0x21F0AAAD5EEDull);
}
cafe::Rng ArrivalDraws(uint64_t seed) {
  return cafe::Rng(seed ^ 0xA11CE5EEDull);
}

// The open-loop plan for every ladder step, drawn up front so the
// reference answers can cover every distinct request.
std::vector<std::vector<Planned>> PlanLadder(const WorkloadSpec& spec,
                                             size_t pool, uint64_t seed,
                                             double seconds) {
  ZipfSampler zipf = QueryDraws(spec, pool, seed);
  cafe::Rng rng = ArrivalDraws(seed);
  std::vector<std::vector<Planned>> plans;
  for (double rate : spec.ladder_rates) {
    plans.push_back(PlanStep(rate, StepSeconds(spec, rate, seconds), &zipf,
                             &rng, spec.both_strands_frac));
  }
  return plans;
}

std::set<RequestKey> ForwardKeys(size_t pool) {
  std::set<RequestKey> keys;
  for (uint32_t q = 0; q < pool; ++q) keys.insert({q, false});
  return keys;
}

cafe::Status RunMeasured(const WorkloadSpec& spec, uint64_t seed,
                         double seconds, const std::string& serve_bin,
                         const std::string& work_dir, Report* report) {
  std::vector<double> setups;
  Prepared prep;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    if (prep.server != nullptr) {
      CAFE_RETURN_IF_ERROR(prep.server->Stop());
      prep = Prepared();
    }
    cafe::Result<Prepared> p = SetUp(spec, seed, work_dir, serve_bin);
    if (!p.ok()) return p.status();
    setups.push_back(p->total_s);
    prep = std::move(*p);
  }
  report->Add("setup_s", Median(setups), "s");

  LocalEngine local;
  CAFE_RETURN_IF_ERROR(OpenLocal(prep, &local));
  const std::vector<std::string> pool = QueryStrings(prep);
  std::set<RequestKey> keys = ForwardKeys(pool.size());
  std::vector<std::vector<Planned>> plans;
  if (spec.shape == LoadShape::kOpenLadder) {
    plans = PlanLadder(spec, pool.size(), seed, seconds);
    for (const auto& plan : plans) {
      for (const Planned& p : plan) keys.insert({p.query, p.both_strands});
    }
  }
  cafe::Result<ReferenceAnswers> reference =
      ReferenceAnswers::Compute(spec, &*local.engine, pool, keys);
  if (!reference.ok()) return reference.status();

  // Warm-up: two requests per connection, checked but not timed.
  ClosedLoopResult warm =
      RunClosedLoop(prep.server->port(), spec.connections, pool, *reference,
                    /*seconds=*/60, /*max_per_connection=*/2);
  CountMismatches(warm.tally, report);

  if (spec.shape == LoadShape::kClosedLoop) {
    ClosedLoopResult run = RunClosedLoop(prep.server->port(),
                                         spec.connections, pool, *reference,
                                         seconds, UINT64_MAX);
    CountMismatches(run.tally, report);
    report->Add("qps", SlicedRate(run.done_s, run.window_s, kRateSlices),
                "1/s");
    AddLatencies(run.tally.latency_ms, report);
    report->attempted = run.tally.attempted;
    report->failed = run.tally.failed;
    AddMemory(*prep.server, report);
  } else {
    ConnectionPool connections(prep.server->port(), spec.connections,
                               spec.reconnect_every);
    std::vector<LadderStep> steps;
    Tally within_limit;
    for (size_t i = 0; i < plans.size(); ++i) {
      const double rate = spec.ladder_rates[i];
      OpenStepResult step =
          RunOpenStep(&connections, rate, StepSeconds(spec, rate, seconds),
                      plans[i], pool, *reference);
      CountMismatches(step.tally, report);
      const bool meets =
          MeetsLimit(step.step, kLatencyLimitMs, kBacklogToleranceMs);
      std::printf("  ladder %6.1f req/s: %llu sent, p99 %s limit, lag p99 "
                  "%.1f ms\n",
                  rate, static_cast<unsigned long long>(step.step.attempted),
                  meets ? "within" : "OVER",
                  Percentile(step.step.lag_ms, 0.99, 0).value_or(0.0));
      if (meets) within_limit.Merge(step.tally);
      if (rate == spec.reference_rate) {
        report->Add("qps", static_cast<double>(step.tally.ok) / step.window_s,
                    "1/s");
        AddLatencies(step.tally.latency_ms, report);
        AddMemory(*prep.server, report);
        report->Add("loadgen.lag_p99_ms",
                    Percentile(step.step.lag_ms, 0.99, 0).value_or(0.0),
                    "ms", false);
      }
      steps.push_back(std::move(step.step));
      if (!meets) break;
    }
    if (steps.empty() || steps.back().rate < spec.reference_rate) {
      report->notes.push_back("the ladder stopped below the reference rate");
      report->correct = false;
    }
    report->Add("goodput_rps",
                Goodput(steps, kLatencyLimitMs, kBacklogToleranceMs), "1/s",
                false);
    report->attempted = within_limit.attempted;
    report->failed = within_limit.failed;
  }
  report->Add("recall_at_10", RecallAt10(prep, *reference), "frac");
  report->Add("disk_bits_per_base",
              static_cast<double>(prep.index_bytes + prep.collection_bytes) *
                  8.0 / static_cast<double>(prep.total_bases),
              "bits/base");
  report->Add("failed_frac",
              report->attempted == 0
                  ? 0.0
                  : static_cast<double>(report->failed) /
                        static_cast<double>(report->attempted),
              "frac", false);
  cafe::Status stopped = prep.server->Stop();
  if (!stopped.ok()) {
    report->notes.push_back(stopped.ToString());
    report->correct = false;
  }
  return cafe::Status::OK();
}

// Count and sum of a histogram, or a counter's value (count only), from
// the server's stats document.
void StatsEntry(const std::string& json, const std::string& name,
                double* count, double* sum) {
  *count = 0;
  *sum = 0;
  const size_t at = json.find("\"" + name + "\":");
  if (at == std::string::npos) return;
  const size_t value = at + name.size() + 3;
  if (json[value] != '{') {
    *count = std::strtod(json.c_str() + value, nullptr);
    return;
  }
  const size_t c = json.find("\"count\":", value);
  const size_t s = json.find("\"sum\":", value);
  if (c != std::string::npos) {
    *count = std::strtod(json.c_str() + c + 8, nullptr);
  }
  if (s != std::string::npos) *sum = std::strtod(json.c_str() + s + 6, nullptr);
}

cafe::Status FetchStats(uint16_t port, std::string* json) {
  auto client = cafe::server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  return (*client)->Stats(json);
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

cafe::Status RunTraced(const WorkloadSpec& spec, uint64_t seed,
                       double seconds, const std::string& serve_bin,
                       const std::string& work_dir,
                       const std::string& trace_out, Report* report) {
  cafe::Result<Prepared> p = SetUp(spec, seed, work_dir, serve_bin);
  if (!p.ok()) return p.status();
  Prepared& prep = *p;
  LocalEngine local;
  CAFE_RETURN_IF_ERROR(OpenLocal(prep, &local));
  const std::vector<std::string> pool = QueryStrings(prep);
  const double bases = static_cast<double>(prep.total_bases);

  // Layer by layer, in process.
  std::vector<std::string> replayed(
      pool.begin(), pool.begin() + std::min(kReplayQueries, pool.size()));
  cafe::Result<ReplayFigures> r =
      ReplayQueries(spec, local.collection, *local.reader->source(), replayed);
  if (!r.ok()) return r.status();
  const double coverage =
      (r->rank_ms + r->chain_ms + r->fine_ms) / r->engine_ms;
  report->Add("index.decode_ms", r->decode_ms, "ms");
  report->Add("index.lists_per_query", r->lists_per_query, "count");
  report->Add("index.postings_per_query", r->postings_per_query, "count");
  report->Add("index.mpostings_per_s", r->mpostings_per_s, "1e6/s");
  report->Add("index.build_s", prep.build_s, "s");
  report->Add("index.bits_per_base",
              static_cast<double>(prep.index_bytes) * 8.0 / bases,
              "bits/base");
  report->Add("coarse.rank_ms", r->rank_ms, "ms");
  report->Add("coarse.self_ms", r->rank_ms - r->decode_ms, "ms");
  report->Add("coarse.candidates_ranked", r->candidates_ranked, "count");
  report->Add("chain.ms", r->chain_ms, "ms");
  report->Add("chain.anchors_per_query", r->anchors_per_query, "count");
  report->Add("chain.kept_frac", r->chain_kept_frac, "frac");
  report->Add("seqstore.fetch_ms", r->fetch_ms, "ms");
  report->Add("seqstore.bases_fetched_per_query", r->bases_fetched_per_query,
              "count");
  report->Add("seqstore.bits_per_base",
              static_cast<double>(prep.collection_bytes) * 8.0 / bases,
              "bits/base");
  report->Add("align.dp_ms", r->dp_ms, "ms");
  report->Add("align.cells_per_query", r->cells_per_query, "count");
  report->Add("align.mcells_per_s",
              r->dp_ms > 0 ? r->cells_per_query / r->dp_ms / 1e3 : 0.0,
              "1e6/s");
  report->Add("fine.report_frac", r->report_frac, "frac");
  report->Add("search.engine_ms", r->engine_ms, "ms");
  report->Add("sim.generate_s", prep.generate_s, "s");
  report->Add("trace.coverage", coverage, "frac");
  report->Add("trace.overhead_frac", r->replay_ms / r->engine_ms - 1.0,
              "frac");
  report->Add("shape.fine_share",
              (r->fetch_ms + r->dp_ms) / r->engine_ms, "frac", false);
  report->Add("shape.coarse_share", (r->rank_ms + r->chain_ms) / r->engine_ms,
              "frac", false);
  if (!r->hits_match) {
    report->notes.push_back("replayed hits differ from the engine's");
    report->correct = false;
  }
  if (coverage < kMinCoverage || coverage > kMaxCoverage) {
    report->notes.push_back("trace.coverage outside [0.8, 1.25]");
    report->correct = false;
  }
  std::ofstream(trace_out) << r->chrome_trace_json;

  // Serving layers: connect, and socket round trip vs in-process
  // Dispatcher::Execute on the same request. The request is made cheap
  // (a 32-base prefix of a pool query, one fine candidate) and each side
  // keeps its fastest of several rounds, so the engine's own run-to-run
  // noise does not swamp the serving cost.
  std::vector<double> connect_us;
  for (size_t i = 0; i < kOverheadQueries * kOverheadRounds; ++i) {
    const Clock::time_point start = Clock::now();
    auto client = cafe::server::Client::Connect("127.0.0.1",
                                                prep.server->port());
    connect_us.push_back(MicrosSince(start));
    if (!client.ok()) return client.status();
  }
  report->Add("server.connect_us", Median(connect_us), "us");
  {
    cafe::server::DispatcherOptions options;
    options.workers = kServerWorkers;
    options.chain_mode = spec.chain_mode;
    options.min_chain_score = spec.min_chain_score;
    cafe::server::Dispatcher dispatcher(&*local.engine, options);
    auto client = cafe::server::Client::Connect("127.0.0.1",
                                                prep.server->port());
    if (!client.ok()) return client.status();
    std::vector<double> overhead_us;
    for (size_t i = 0; i < std::min(kOverheadQueries, pool.size()); ++i) {
      cafe::server::SearchRequest request =
          MakeRequest(pool[i].substr(0, 32), false);
      request.fine_candidates = 1;
      double direct_us = std::numeric_limits<double>::infinity();
      double socket_us = direct_us;
      for (size_t round = 0; round < kOverheadRounds; ++round) {
        Clock::time_point start = Clock::now();
        cafe::Result<cafe::SearchResult> direct = dispatcher.Execute(request);
        direct_us = std::min(direct_us, MicrosSince(start));
        if (!direct.ok()) return direct.status();
        cafe::server::SearchResponse response;
        start = Clock::now();
        CAFE_RETURN_IF_ERROR((*client)->Search(request, &response));
        socket_us = std::min(socket_us, MicrosSince(start));
        if (!response.status.ok() ||
            !SameHits(response.hits, direct->hits)) {
          report->notes.push_back(
              "served hits differ from Dispatcher::Execute");
          report->correct = false;
        }
      }
      overhead_us.push_back(socket_us - direct_us);
    }
    report->Add("server.overhead_us", Median(overhead_us), "us");
  }

  // The workload's own traffic, shortened, for the dispatcher figures.
  std::set<RequestKey> keys = ForwardKeys(pool.size());
  std::vector<Planned> plan;
  if (spec.shape == LoadShape::kOpenLadder) {
    ZipfSampler zipf = QueryDraws(spec, pool.size(), seed);
    cafe::Rng rng = ArrivalDraws(seed);
    plan = PlanStep(spec.reference_rate, seconds / 2, &zipf, &rng,
                    spec.both_strands_frac);
    for (const Planned& q : plan) keys.insert({q.query, q.both_strands});
  }
  cafe::Result<ReferenceAnswers> reference =
      ReferenceAnswers::Compute(spec, &*local.engine, pool, keys);
  if (!reference.ok()) return reference.status();
  std::string before, after;
  CAFE_RETURN_IF_ERROR(FetchStats(prep.server->port(), &before));
  Tally tally;
  double lag_p99 = 0.0;
  if (spec.shape == LoadShape::kOpenLadder) {
    ConnectionPool connections(prep.server->port(), spec.connections,
                               spec.reconnect_every);
    OpenStepResult step = RunOpenStep(&connections, spec.reference_rate,
                                      seconds / 2, plan, pool, *reference);
    tally = step.tally;
    lag_p99 = Percentile(step.step.lag_ms, 0.99, 0).value_or(0.0);
  } else {
    tally = RunClosedLoop(prep.server->port(), spec.connections, pool,
                          *reference, seconds / 2, UINT64_MAX)
                .tally;
  }
  CountMismatches(tally, report);
  report->attempted = tally.attempted;
  report->failed = tally.failed;
  CAFE_RETURN_IF_ERROR(FetchStats(prep.server->port(), &after));
  double c0, s0, c1, s1;
  StatsEntry(before, "server.queue_wait_micros", &c0, &s0);
  StatsEntry(after, "server.queue_wait_micros", &c1, &s1);
  report->Add("dispatcher.queue_wait_ms",
              c1 > c0 ? (s1 - s0) / (c1 - c0) / 1e3 : 0.0, "ms");
  StatsEntry(before, "server.batch_size", &c0, &s0);
  StatsEntry(after, "server.batch_size", &c1, &s1);
  report->Add("dispatcher.batch_size_mean",
              c1 > c0 ? (s1 - s0) / (c1 - c0) : 0.0, "count");
  StatsEntry(before, "server.requests_rejected", &c0, &s0);
  StatsEntry(after, "server.requests_rejected", &c1, &s1);
  report->Add("dispatcher.rejected", c1 - c0, "count");
  report->Add("loadgen.lag_p99_ms", lag_p99, "ms");

  cafe::Status stopped = prep.server->Stop();
  if (!stopped.ok()) {
    report->notes.push_back(stopped.ToString());
    report->correct = false;
  }
  return cafe::Status::OK();
}

int Main(int argc, char** argv) {
  cafe::FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const int trace = static_cast<int>(flags.GetInt("trace", 0));
  const std::string serve_bin = flags.GetString("serve-bin", "");
  const std::string work_dir = flags.GetString("work-dir", "");
  const std::string trace_out =
      flags.GetString("trace-out", work_dir + "/trace.json");
  cafe::Status parsed = flags.Finish();
  const WorkloadSpec* spec = FindWorkload(workload);
  if (!parsed.ok() || spec == nullptr || serve_bin.empty() ||
      work_dir.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: cafe_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --work-dir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  ::mkdir(work_dir.c_str(), 0755);
  Report report;
  cafe::Status s =
      trace == 0
          ? RunMeasured(*spec, seed, seconds, serve_bin, work_dir, &report)
          : RunTraced(*spec, seed, seconds, serve_bin, work_dir, trace_out,
                      &report);
  if (!s.ok()) {
    std::fprintf(stderr, "cafe_perfbench: %s\n", s.ToString().c_str());
    return 2;
  }
  PrintReport(workload, trace, report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
