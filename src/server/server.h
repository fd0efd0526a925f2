// Blocking TCP query server: the long-running daemon behind cafe_serve.
//
// A Server is a Listener (server/listener.h, which owns the sockets,
// the connection threads and their threading model), a Dispatcher, and
// the frame loop each connection runs. Connection handlers never touch
// the engine directly — every query goes through Dispatcher::Execute,
// which is where admission control and deadlines live.
//
// Shutdown() is graceful and ordered: the listener drains first (stop
// accepting, half-close every connection so requests already being
// processed still get their response written, join the handlers), then
// the dispatcher. Safe to call from a signal-notified thread;
// idempotent.

#ifndef CAFE_SERVER_SERVER_H_
#define CAFE_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "search/engine.h"
#include "server/dispatcher.h"
#include "server/listener.h"
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
  uint16_t port() const { return listener_.port(); }

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
  /// The frame loop of one connection: Hello, then request/response
  /// until the peer hangs up or corrupts the stream.
  void HandleConnection(int fd);
  /// The `stats` verb payload: one JSON document in the --stats=json
  /// schema family ({"command":"stats","server":{…},"metrics":{…}}).
  std::string StatsJson() const;

  SearchEngine* const engine_;
  ServerOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Replaced by each Start() (a stopped dispatcher does not restart);
  // never reset, so QueueDepth() stays safe after Shutdown().
  std::unique_ptr<Dispatcher> dispatcher_;
  Listener listener_;

  obs::Counter* connections_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* stats_requests_ = nullptr;
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_SERVER_H_
