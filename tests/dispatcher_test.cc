// Dispatcher semantics: one engine call per request in arrival order,
// admission control, queue-expired deadlines, and graceful drain — all
// against a stub engine whose Search can be held closed so the queue
// fills deterministically.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "server/dispatcher.h"

namespace cafe::server {
namespace {

// Blocks callers until opened; lets tests hold the dispatcher's worker
// inside the engine while more requests pile up behind it.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Concurrent-safe engine that waits on a gate, logs the queries it is
// called with, and echoes the query length back as the hit score.
class StubEngine : public SearchEngine {
 public:
  explicit StubEngine(Gate* gate = nullptr) : gate_(gate) {}

  std::string name() const override { return "stub"; }
  bool SupportsConcurrentSearch() const override { return true; }

  Result<SearchResult> Search(std::string_view query,
                              const SearchOptions& options) override {
    {
      std::lock_guard<std::mutex> lock(calls_mu_);
      calls_.emplace_back(query);
    }
    entered_.fetch_add(1);
    if (gate_ != nullptr) gate_->Wait();
    SearchResult result;
    if (options.deadline != nullptr && options.deadline->Expired()) {
      result.truncated = true;
      return result;
    }
    SearchHit hit;
    hit.seq_id = static_cast<uint32_t>(query.size());
    hit.score = static_cast<int>(query.size());
    result.hits.push_back(hit);
    return result;
  }

  int entered() const { return entered_.load(); }
  std::vector<std::string> calls() {
    std::lock_guard<std::mutex> lock(calls_mu_);
    return calls_;
  }

 private:
  Gate* gate_;
  std::atomic<int> entered_{0};
  std::mutex calls_mu_;
  std::vector<std::string> calls_;
};

// Polls until `pred` holds (the cross-thread assertions here have no
// completion signal to wait on; 5s is far beyond any healthy run).
template <typename Pred>
void WaitUntil(Pred pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

SearchRequest Req(const std::string& query) {
  SearchRequest r;
  r.query = query;
  return r;
}

uint64_t CounterValue(obs::MetricsRegistry* m, const std::string& name) {
  return m->GetCounter(name)->Value();
}

TEST(DispatcherTest, ExecuteReturnsEngineResult) {
  StubEngine engine;
  DispatcherOptions options;
  Dispatcher dispatcher(&engine, options);
  Result<SearchResult> result = dispatcher.Execute(Req("ACGTACGT"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].score, 8);
  EXPECT_FALSE(result->truncated);
}

// Queued requests never share an engine call: each one is evaluated
// on its own, in arrival order, and gets its own result back.
TEST(DispatcherTest, QueuedRequestsRunOneAtATimeInArrivalOrder) {
  Gate gate;
  StubEngine engine(&gate);
  obs::MetricsRegistry metrics;
  DispatcherOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  Dispatcher dispatcher(&engine, options);

  // The first request occupies the single worker inside the gated
  // engine...
  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });

  // ...so these three queue up behind it, admitted one after another.
  const std::vector<std::string> queued = {"CCCCC", "GGGGGG", "TTTTTTT"};
  std::vector<Result<SearchResult>> results(
      queued.size(), Status::Internal("not yet completed"));
  for (size_t i = 0; i < queued.size(); ++i) {
    threads.emplace_back(
        [&, i] { results[i] = dispatcher.Execute(Req(queued[i])); });
    WaitUntil([&] { return dispatcher.QueueDepth() == i + 1; });
  }
  gate.Open();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.calls(),
            (std::vector<std::string>{"AAAA", "CCCCC", "GGGGGG", "TTTTTTT"}));
  for (size_t i = 0; i < queued.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ASSERT_EQ(results[i]->hits.size(), 1u);
    EXPECT_EQ(results[i]->hits[0].score, static_cast<int>(queued[i].size()));
  }
  EXPECT_EQ(CounterValue(&metrics, "server.requests_accepted"), 4u);
  EXPECT_EQ(CounterValue(&metrics, "server.requests_rejected"), 0u);
}

TEST(DispatcherTest, FullQueueRejectsWithOverloaded) {
  Gate gate;
  StubEngine engine(&gate);
  obs::MetricsRegistry metrics;
  DispatcherOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.metrics = &metrics;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("CCCC")).ok()); });
  WaitUntil([&] { return dispatcher.QueueDepth() == 1; });

  // Queue is at max_queue: this must return immediately (the gate is
  // still closed — if it queued, it would hang here).
  Result<SearchResult> rejected = dispatcher.Execute(Req("GGGG"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded())
      << rejected.status().ToString();
  EXPECT_EQ(CounterValue(&metrics, "server.requests_rejected"), 1u);

  gate.Open();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(CounterValue(&metrics, "server.requests_accepted"), 2u);
}

TEST(DispatcherTest, QueueExpiredDeadlineCompletesWithoutEngineCall) {
  Gate gate;
  StubEngine engine(&gate);
  obs::MetricsRegistry metrics;
  DispatcherOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });

  SearchRequest doomed = Req("CCCC");
  doomed.deadline_millis = 1;
  Result<SearchResult> result = Status::Internal("not yet completed");
  threads.emplace_back([&] { result = dispatcher.Execute(doomed); });
  WaitUntil([&] { return dispatcher.QueueDepth() == 1; });
  // Let the queued request's 1ms budget expire before the worker frees.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->hits.empty());
  // Only the blocker reached the engine.
  EXPECT_EQ(engine.entered(), 1);
  EXPECT_EQ(CounterValue(&metrics, "server.deadline_exceeded"), 1u);
}

TEST(DispatcherTest, FlightRecorderGetsOneRecordPerRequest) {
  StubEngine engine;
  obs::FlightRecorder flight(
      {.capacity = 8, .slow_micros = 0, .slow_capacity = 8});  // pin all
  DispatcherOptions options;
  options.flight = &flight;
  Dispatcher dispatcher(&engine, options);

  SearchRequest req = Req("ACGTACGT");
  req.trace_id = 0xabcdef;
  ASSERT_TRUE(dispatcher.Execute(req).ok());
  ASSERT_TRUE(dispatcher.Execute(Req("CCCC")).ok());  // no trace id

  EXPECT_EQ(flight.recorded(), 2u);
  std::vector<obs::FlightRecord> recent = flight.Recent(8);
  ASSERT_EQ(recent.size(), 2u);
  // Newest first: the id-less request, then the traced one.
  EXPECT_EQ(recent[0].trace_id, 0u);
  EXPECT_EQ(recent[1].trace_id, 0xabcdefu);
  EXPECT_EQ(recent[1].hits, 1u);
  EXPECT_EQ(recent[1].status_code, 0u);  // wire code for OK
  EXPECT_FALSE(recent[1].truncated);
  EXPECT_FALSE(recent[1].deadline_expired);
  EXPECT_FALSE(recent[1].options_key.empty());
  EXPECT_GE(recent[1].total_micros, recent[1].queue_micros);
  // slow_micros = 0 pins every record into the slow log too.
  EXPECT_EQ(flight.slow_recorded(), 2u);
}

TEST(DispatcherTest, QueueExpiredRequestLeavesDeadlineExpiredRecord) {
  Gate gate;
  StubEngine engine(&gate);
  obs::FlightRecorder flight({.capacity = 8, .slow_micros = 0});
  DispatcherOptions options;
  options.workers = 1;
  options.flight = &flight;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });

  SearchRequest doomed = Req("CCCC");
  doomed.deadline_millis = 1;
  doomed.trace_id = 0xd00dull;
  Result<SearchResult> result = Status::Internal("not yet completed");
  threads.emplace_back([&] { result = dispatcher.Execute(doomed); });
  WaitUntil([&] { return dispatcher.QueueDepth() == 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);

  // Both requests are on record; the doomed one says why it was empty.
  EXPECT_EQ(flight.recorded(), 2u);
  bool found = false;
  for (const obs::FlightRecord& r : flight.Recent(8)) {
    if (r.trace_id != 0xd00dull) continue;
    found = true;
    EXPECT_TRUE(r.truncated);
    EXPECT_TRUE(r.deadline_expired);
    EXPECT_EQ(r.hits, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(DispatcherTest, StopDrainsAdmittedRequests) {
  Gate gate;
  StubEngine engine(&gate);
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(&engine, options);

  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok());
    completed.fetch_add(1);
  });
  WaitUntil([&] { return engine.entered() == 1; });
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      EXPECT_TRUE(dispatcher.Execute(Req("CCCC")).ok());
      completed.fetch_add(1);
    });
  }
  WaitUntil([&] { return dispatcher.QueueDepth() == 3; });

  std::thread stopper([&] { gate.Open(); dispatcher.Stop(); });
  for (std::thread& t : threads) t.join();
  stopper.join();

  // Stop() returned only after every admitted request completed.
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(dispatcher.QueueDepth(), 0u);
}

TEST(DispatcherTest, ExecuteAfterStopIsOverloaded) {
  StubEngine engine;
  DispatcherOptions options;
  Dispatcher dispatcher(&engine, options);
  dispatcher.Stop();
  Result<SearchResult> result = dispatcher.Execute(Req("ACGT"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOverloaded());
}

TEST(DispatcherTest, StopIsIdempotentAndSafeConcurrently) {
  StubEngine engine;
  DispatcherOptions options;
  Dispatcher dispatcher(&engine, options);
  std::thread a([&] { dispatcher.Stop(); });
  std::thread b([&] { dispatcher.Stop(); });
  a.join();
  b.join();
  dispatcher.Stop();  // and again, after the workers are gone
}

}  // namespace
}  // namespace cafe::server
