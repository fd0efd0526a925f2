#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Sends one request and files its outcome; true when the connection is
// still usable.
bool SendOne(cafe::server::Client* client, const std::string& query,
             RequestKey key, const ReferenceAnswers& reference,
             Clock::time_point timed_from, Tally* tally) {
  ++tally->attempted;
  cafe::server::SearchResponse response;
  cafe::Status s =
      client->Search(MakeRequest(query, key.second), &response);
  const Clock::time_point done = Clock::now();
  if (!s.ok()) {
    ++tally->failed;
    return false;
  }
  if (response.status.IsOverloaded() || response.truncated) {
    ++tally->failed;
    return true;
  }
  const cafe::SearchResult* expected = reference.Find(key);
  if (!response.status.ok() || expected == nullptr ||
      !SameHits(response.hits, expected->hits)) {
    ++tally->failed;
    ++tally->mismatched;
    std::fprintf(stderr, "perfbench: query %u (both_strands=%d): %s\n",
                 key.first, key.second ? 1 : 0,
                 response.status.ok() ? "served hits differ from reference"
                                      : response.status.ToString().c_str());
    return true;
  }
  ++tally->ok;
  tally->latency_ms.push_back(Seconds(done - timed_from) * 1e3);
  return true;
}

}  // namespace

cafe::Result<ReferenceAnswers> ReferenceAnswers::Compute(
    const WorkloadSpec& spec, cafe::SearchEngine* engine,
    const std::vector<std::string>& pool, const std::set<RequestKey>& keys) {
  ReferenceAnswers out;
  for (bool both : {false, true}) {
    std::vector<uint32_t> ids;
    std::vector<std::string> queries;
    for (const RequestKey& key : keys) {
      if (key.second != both) continue;
      ids.push_back(key.first);
      queries.push_back(pool[key.first]);
    }
    if (queries.empty()) continue;
    cafe::SearchOptions options =
        ServerOptions(spec, MakeRequest(queries.front(), both));
    options.threads = 4;  // concurrent queries; answers are thread-invariant
    auto results = engine->BatchSearch(queries, options);
    if (!results.ok()) return results.status();
    for (size_t i = 0; i < ids.size(); ++i) {
      out.results_[{ids[i], both}] = std::move((*results)[i]);
    }
  }
  return out;
}

const cafe::SearchResult* ReferenceAnswers::Find(RequestKey key) const {
  auto it = results_.find(key);
  return it == results_.end() ? nullptr : &it->second;
}

bool SameHits(const std::vector<cafe::SearchHit>& served,
              const std::vector<cafe::SearchHit>& reference) {
  if (served.size() != reference.size()) return false;
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i].seq_id != reference[i].seq_id ||
        served[i].score != reference[i].score ||
        served[i].strand != reference[i].strand) {
      return false;
    }
  }
  return true;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  failed += other.failed;
  mismatched += other.mismatched;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
}

ConnectionPool::ConnectionPool(uint16_t port, uint32_t size,
                               uint32_t reconnect_every)
    : port_(port), reconnect_every_(reconnect_every), clients_(size) {}

cafe::server::Client* ConnectionPool::Acquire(uint32_t i) {
  const uint64_t n = requests_.fetch_add(1) + 1;
  if (reconnect_every_ > 0 && n % reconnect_every_ == 0) {
    clients_[i].reset();
  }
  if (clients_[i] == nullptr) {
    auto client = cafe::server::Client::Connect("127.0.0.1", port_);
    if (!client.ok()) return nullptr;
    clients_[i] = std::move(*client);
  }
  return clients_[i].get();
}

ClosedLoopResult RunClosedLoop(uint16_t port, uint32_t connections,
                               const std::vector<std::string>& pool,
                               const ReferenceAnswers& reference,
                               double seconds, uint64_t max_per_connection) {
  std::vector<Tally> tallies(connections);
  std::vector<std::vector<double>> done_s(connections);
  std::vector<Clock::time_point> last_done(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      last_done[c] = start;
      auto client = cafe::server::Client::Connect("127.0.0.1", port);
      size_t next = c * pool.size() / connections;
      for (uint64_t sent = 0;
           sent < max_per_connection && Clock::now() < stop; ++sent) {
        const auto query = static_cast<uint32_t>(next % pool.size());
        ++next;
        if (!client.ok()) {
          ++tally.attempted;
          ++tally.failed;
          client = cafe::server::Client::Connect("127.0.0.1", port);
          continue;
        }
        const uint64_t ok_before = tally.ok;
        if (!SendOne(client->get(), pool[query], {query, false}, reference,
                     Clock::now(), &tally)) {
          client = cafe::server::Client::Connect("127.0.0.1", port);
        }
        last_done[c] = Clock::now();
        if (tally.ok > ok_before) {
          done_s[c].push_back(Seconds(last_done[c] - start));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult out;
  Clock::time_point end = start;
  for (uint32_t c = 0; c < connections; ++c) {
    out.tally.Merge(tallies[c]);
    out.done_s.insert(out.done_s.end(), done_s[c].begin(), done_s[c].end());
    end = std::max(end, last_done[c]);
  }
  out.window_s = Seconds(end - start);
  return out;
}

std::vector<Planned> PlanStep(double rate, double duration_s,
                              ZipfSampler* zipf, cafe::Rng* rng,
                              double both_frac) {
  const auto n = static_cast<size_t>(std::llround(rate * duration_s));
  std::vector<Planned> plan(n);
  for (Planned& p : plan) {
    p.due_s = rng->NextDouble() * duration_s;
    p.query = static_cast<uint32_t>(zipf->Next());
    p.both_strands = rng->Bernoulli(both_frac);
  }
  std::sort(plan.begin(), plan.end(), [](const Planned& a, const Planned& b) {
    return a.due_s < b.due_s;
  });
  return plan;
}

OpenStepResult RunOpenStep(ConnectionPool* pool, double rate,
                           double duration_s,
                           const std::vector<Planned>& plan,
                           const std::vector<std::string>& queries,
                           const ReferenceAnswers& reference) {
  OpenStepResult out;
  out.step.rate = rate;
  out.step.lag_ms.assign(plan.size(), 0.0);
  std::vector<Tally> tallies(pool->size());
  std::vector<Clock::time_point> last_done(pool->size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < pool->size(); ++c) {
    threads.emplace_back([&, c] {
      last_done[c] = start;
      for (size_t i = next.fetch_add(1); i < plan.size();
           i = next.fetch_add(1)) {
        const Planned& p = plan[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(p.due_s));
        std::this_thread::sleep_until(due);
        // Each slot of lag_ms is written by the one thread that took it.
        out.step.lag_ms[i] = std::max(0.0, Seconds(Clock::now() - due) * 1e3);
        cafe::server::Client* client = pool->Acquire(c);
        if (client == nullptr) {
          ++tallies[c].attempted;
          ++tallies[c].failed;
          continue;
        }
        if (!SendOne(client, queries[p.query], {p.query, p.both_strands},
                     reference, due, &tallies[c])) {
          pool->Drop(c);
        }
        last_done[c] = Clock::now();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point end = start;
  for (uint32_t c = 0; c < pool->size(); ++c) {
    out.tally.Merge(tallies[c]);
    end = std::max(end, last_done[c]);
  }
  out.window_s = std::max(Seconds(end - start), duration_s);
  out.step.attempted = out.tally.attempted;
  out.step.failed = out.tally.failed;
  out.step.latency_ms = out.tally.latency_ms;
  return out;
}

}  // namespace perfbench
