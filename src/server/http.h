// Minimal HTTP/1.0 listener for live introspection (/metrics, /statusz,
// /flightz, /slowz in cafe_serve).
//
// This is deliberately not a web server: GET only, no keep-alive, no
// TLS, request line + headers capped at a few KiB, every response ends
// with Connection: close. It exists so an operator (or a Prometheus
// scraper) can look inside a running cafe_serve with curl — the query
// protocol stays on its own binary port. Threading mirrors Server: one
// accept thread, one short-lived thread per connection; handlers run on
// the connection thread and must be thread-safe.

#ifndef CAFE_SERVER_HTTP_H_
#define CAFE_SERVER_HTTP_H_

#include <cstdint>
#include <functional>
#include <list>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/status.h"

namespace cafe::server {

struct HttpOptions {
  /// Address to bind; numeric IPv4 only.
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port — read it back via port().
  uint16_t port = 0;
  /// When non-null, server.http_requests counts every request served
  /// (any path, any status).
  obs::MetricsRegistry* metrics = nullptr;
};

struct HttpResponse {
  /// HTTP status code; 200/400/404/405 are the ones this server emits.
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Maps a request path (e.g. "/metrics") and its raw query string
/// (everything after '?', without the '?'; empty when absent — e.g.
/// "trace_id=00c0ffee" for "/tracez?trace_id=00c0ffee") to a response.
/// Runs on a connection thread — must be thread-safe and should be
/// quick.
using HttpHandler = std::function<HttpResponse(const std::string& path,
                                               const std::string& query)>;

class HttpServer {
 public:
  HttpServer(HttpHandler handler, const HttpOptions& options);
  ~HttpServer();  // calls Shutdown()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts accepting.
  [[nodiscard]] Status Start();

  /// The actually bound port (resolves port 0) — valid after Start().
  uint16_t port() const { return port_; }

  /// Stops accepting, closes every live connection, joins the threads.
  /// Idempotent.
  void Shutdown();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Removes the handler threads that have finished from
  /// conn_threads_ and returns them for joining outside the lock.
  std::list<std::thread> TakeFinishedConns() CAFE_REQUIRES(conn_mu_);

  const HttpHandler handler_;
  const HttpOptions options_;

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
  // conn_mu_ — never the reverse.
  Mutex shutdown_mu_ CAFE_ACQUIRED_BEFORE(conn_mu_);

  obs::Counter* requests_ = nullptr;
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_HTTP_H_
