#include "server/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "server/protocol.h"

namespace cafe::server {

Listener::Listener(std::string bind_address, uint16_t port,
                   ConnectionHandler handler)
    : bind_address_(std::move(bind_address)),
      requested_port_(port),
      handler_(std::move(handler)) {}

Listener::~Listener() { Shutdown(); }

Status Listener::Start() {
  MutexLock shutdown_lock(&shutdown_mu_);
  if (started_) return Status::Internal("Start() called twice");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(requested_port_);
  if (inet_pton(AF_INET, bind_address_.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " + bind_address_);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  socklen_t len = sizeof(addr);
  Status s;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    s = Errno("bind");
  } else if (listen(fd, kListenBacklog) < 0) {
    s = Errno("listen");
  } else if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) <
             0) {
    s = Errno("getsockname");
  }
  if (!s.ok()) {
    close(fd);
    return s;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;

  {
    MutexLock lock(&conn_mu_);
    stopping_ = false;  // allows Start() again after Shutdown()
  }
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  started_ = true;
  return Status::OK();
}

bool Listener::running() {
  MutexLock shutdown_lock(&shutdown_mu_);
  return started_;
}

void Listener::Shutdown() {
  MutexLock shutdown_lock(&shutdown_mu_);
  if (!started_) return;

  // 1. Stop accepting: shutdown() wakes the blocked accept(), then the
  //    accept thread exits and no new connection threads appear.
  {
    MutexLock lock(&conn_mu_);
    stopping_ = true;
  }
  shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;

  // 2. Half-close every live connection: handlers blocked in a read see
  //    EOF and return; a handler mid-request finishes it and still
  //    writes the reply (writes stay open).
  std::list<std::thread> threads;
  {
    MutexLock lock(&conn_mu_);
    for (int fd : conn_fds_) shutdown(fd, SHUT_RD);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock lock(&conn_mu_);
    finished_conns_.clear();  // pointed into `threads`, all joined now
  }
  started_ = false;
}

void Listener::AcceptLoop(int listen_fd) {
  while (true) {
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown(listen_fd) during Shutdown() lands here.
      return;
    }
    std::list<std::thread> finished;
    {
      MutexLock lock(&conn_mu_);
      if (stopping_) {
        close(fd);
        return;
      }
      finished = TakeFinishedConns();
      conn_fds_.insert(fd);
      auto self = conn_threads_.emplace(conn_threads_.end());
      *self = std::thread([this, fd, self] {
        handler_(fd);
        MutexLock done_lock(&conn_mu_);
        conn_fds_.erase(fd);
        close(fd);
        finished_conns_.push_back(self);
      });
    }
    for (std::thread& t : finished) t.join();
  }
}

std::list<std::thread> Listener::TakeFinishedConns() {
  std::list<std::thread> finished;
  for (auto it : finished_conns_) {
    finished.splice(finished.end(), conn_threads_, it);
  }
  finished_conns_.clear();
  return finished;
}

}  // namespace cafe::server
