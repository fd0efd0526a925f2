// Blocking TCP query server: the long-running daemon behind cafe_serve.
//
// Threading model: one accept thread, one thread per connection (the
// protocol is strictly request/response per connection, so blocking
// reads are the simple and correct shape), and the Dispatcher's worker
// pool doing the actual searching. Connection threads never touch the
// engine directly — every query goes through Dispatcher::Execute, which
// is where admission control and deadlines live.
//
// Shutdown() is graceful and ordered: stop accepting, half-close every
// connection (pending reads see EOF, requests already being processed
// still get their response written), join the connection threads, then
// drain the dispatcher. Safe to call from a signal-notified thread;
// idempotent.

#ifndef CAFE_SERVER_SERVER_H_
#define CAFE_SERVER_SERVER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "search/engine.h"
#include "server/dispatcher.h"
#include "util/mutex.h"
#include "util/status.h"

namespace cafe::server {

struct ServerOptions {
  /// Address to bind; numeric IPv4 only (e.g. "127.0.0.1", "0.0.0.0").
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port — read it back via port().
  uint16_t port = 0;
  DispatcherOptions dispatcher;
  /// Registry for the server.* metrics and the `stats` verb. When null
  /// the server creates and owns one, so stats always work.
  obs::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// `engine` must outlive the server and, with more than one
  /// dispatcher worker, support concurrent Search.
  Server(SearchEngine* engine, const ServerOptions& options);
  ~Server();  // calls Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts accepting. Fails with IOError when the
  /// address or port is unavailable.
  [[nodiscard]] Status Start();

  /// The actually bound port (resolves port 0) — valid after Start().
  uint16_t port() const { return port_; }

  /// Graceful drain; see the file comment for the ordering. Idempotent.
  void Shutdown();

  /// The registry the server records into (owned or caller-provided).
  obs::MetricsRegistry* metrics() { return metrics_; }

  /// Queued-but-not-yet-dispatched requests right now (0 before
  /// Start()). Feeds /statusz.
  size_t QueueDepth() const {
    return dispatcher_ != nullptr ? dispatcher_->QueueDepth() : 0;
  }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Removes the handler threads that have finished from
  /// conn_threads_ and returns them for joining outside the lock.
  std::list<std::thread> TakeFinishedConns() CAFE_REQUIRES(conn_mu_);
  /// The `stats` verb payload: one JSON document in the --stats=json
  /// schema family ({"command":"stats","server":{…},"metrics":{…}}).
  std::string StatsJson() const;

  SearchEngine* const engine_;
  ServerOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<Dispatcher> dispatcher_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  Mutex conn_mu_;
  std::set<int> conn_fds_ CAFE_GUARDED_BY(conn_mu_);
  // One thread per connection, appended by the accept loop. A handler
  // about to exit files its own node in finished_conns_; the accept
  // loop joins those before it spawns the next handler, so finished
  // handlers do not keep their stacks mapped. Shutdown() joins the rest.
  std::list<std::thread> conn_threads_ CAFE_GUARDED_BY(conn_mu_);
  std::vector<std::list<std::thread>::iterator> finished_conns_
      CAFE_GUARDED_BY(conn_mu_);
  bool stopping_ CAFE_GUARDED_BY(conn_mu_) = false;
  // Written by Start()/Shutdown() only; those two are externally
  // serialized (Start from the owner, Shutdown under shutdown_mu_).
  bool started_ = false;
  // Serializes Shutdown() callers. Lock order: shutdown_mu_ before
  // conn_mu_ before the dispatcher's locks — never the reverse.
  Mutex shutdown_mu_ CAFE_ACQUIRED_BEFORE(conn_mu_);

  obs::Counter* connections_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* stats_requests_ = nullptr;
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_SERVER_H_
