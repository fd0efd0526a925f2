// The TCP listener behind both cafe_serve ports: the binary query
// protocol (Server) and HTTP introspection (HttpServer). Each of them is
// a Listener plus a per-connection handler; everything about sockets
// and connection threads lives here, once.
//
// Threading model: one accept thread, one thread per connection. The
// handler runs on its connection's thread; blocking reads and writes
// are the simple and correct shape for a request/response protocol.
// The listener closes the fd after the handler returns. A handler that
// has finished files its own thread for joining; the accept loop joins
// those before it spawns the next one, so finished handlers do not keep
// their stacks mapped.
//
// Shutdown() is ordered, idempotent and restartable: stop accepting,
// half-close the read side of every live connection (a handler blocked
// in a read sees EOF; one that is mid-request finishes it and still
// writes the reply, because writes stay open), then join the handler
// threads. Start() may be called again afterwards.

#ifndef CAFE_SERVER_LISTENER_H_
#define CAFE_SERVER_LISTENER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace cafe::server {

/// listen(2) backlog of every cafe_serve port.
inline constexpr int kListenBacklog = 64;

class Listener {
 public:
  /// Serves one accepted connection; returns when it is done with it.
  /// Runs on the connection's own thread, so it must be thread-safe.
  using ConnectionHandler = std::function<void(int fd)>;

  /// `bind_address` is numeric IPv4 only (e.g. "127.0.0.1",
  /// "0.0.0.0"); port 0 asks the kernel for an ephemeral port.
  Listener(std::string bind_address, uint16_t port,
           ConnectionHandler handler);
  ~Listener();  // calls Shutdown()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens, and starts accepting. InvalidArgument for a bad
  /// address, IOError when the address or port is unavailable,
  /// Internal when already running.
  [[nodiscard]] Status Start() CAFE_EXCLUDES(shutdown_mu_);

  /// The actually bound port (resolves port 0) — valid after Start().
  uint16_t port() const { return port_; }

  /// Between a successful Start() and the next Shutdown().
  bool running() CAFE_EXCLUDES(shutdown_mu_);

  /// Graceful drain; see the file comment for the ordering. Idempotent.
  void Shutdown() CAFE_EXCLUDES(shutdown_mu_);

 private:
  void AcceptLoop(int listen_fd);
  /// Removes the handler threads that have finished from
  /// conn_threads_ and returns them for joining outside the lock.
  std::list<std::thread> TakeFinishedConns() CAFE_REQUIRES(conn_mu_);

  const std::string bind_address_;
  const uint16_t requested_port_;
  const ConnectionHandler handler_;

  uint16_t port_ = 0;

  Mutex conn_mu_;
  std::set<int> conn_fds_ CAFE_GUARDED_BY(conn_mu_);
  // One thread per connection, appended by the accept loop; a handler
  // about to exit files its own node in finished_conns_.
  std::list<std::thread> conn_threads_ CAFE_GUARDED_BY(conn_mu_);
  std::vector<std::list<std::thread>::iterator> finished_conns_
      CAFE_GUARDED_BY(conn_mu_);
  bool stopping_ CAFE_GUARDED_BY(conn_mu_) = false;

  // Serializes Start() and Shutdown(). Lock order: shutdown_mu_ before
  // conn_mu_ — never the reverse.
  Mutex shutdown_mu_ CAFE_ACQUIRED_BEFORE(conn_mu_);
  bool started_ CAFE_GUARDED_BY(shutdown_mu_) = false;
  int listen_fd_ CAFE_GUARDED_BY(shutdown_mu_) = -1;
  std::thread accept_thread_ CAFE_GUARDED_BY(shutdown_mu_);
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_LISTENER_H_
