#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "alphabet/nucleotide.h"
#include "util/version.h"

namespace cafe::server {
namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(SearchEngine* engine, const ServerOptions& options)
    : engine_(engine), options_(options) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  connections_ = metrics_->GetCounter("server.connections");
  protocol_errors_ = metrics_->GetCounter("server.protocol_errors");
  stats_requests_ = metrics_->GetCounter("server.stats_requests");
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_) return Status::Internal("Start() called twice");

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Errno("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, /*backlog=*/64) < 0) {
    Status s = Errno("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    Status s = Errno("getsockname");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);

  DispatcherOptions dopt = options_.dispatcher;
  dopt.metrics = metrics_;
  dispatcher_ = std::make_unique<Dispatcher>(engine_, dopt);
  {
    MutexLock lock(&conn_mu_);
    stopping_ = false;  // allows Start() again after Shutdown()
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void Server::Shutdown() {
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

  // 2. Half-close every live connection: handlers blocked in ReadFrame
  //    see EOF and exit; a handler mid-request finishes it and still
  //    writes the response (writes stay open).
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

  // 3. With every connection gone, the dispatcher queue can only
  //    shrink; drain it and join the workers.
  if (dispatcher_ != nullptr) dispatcher_->Stop();
  started_ = false;
}

void Server::AcceptLoop() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown(listen_fd_) during Shutdown() lands here.
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
        HandleConnection(fd);
        MutexLock done_lock(&conn_mu_);
        conn_fds_.erase(fd);
        close(fd);
        finished_conns_.push_back(self);
      });
    }
    for (std::thread& t : finished) t.join();
  }
}

std::list<std::thread> Server::TakeFinishedConns() {
  std::list<std::thread> finished;
  for (auto it : finished_conns_) {
    finished.splice(finished.end(), conn_threads_, it);
  }
  finished_conns_.clear();
  return finished;
}

void Server::HandleConnection(int fd) {
  connections_->Increment();
  Hello hello;
  hello.server_version = kVersionString;
  Status s = WriteFrame(fd, FrameType::kHello, EncodeHello(hello));

  while (s.ok()) {
    FrameType type{};
    std::string payload;
    Status read = ReadFrame(fd, &type, &payload);
    if (!read.ok()) {
      // NotFound = clean hang-up between frames; anything else is a
      // corrupt or misbehaving peer and poisons the stream.
      if (!read.IsNotFound()) protocol_errors_->Increment();
      break;
    }
    switch (type) {
      case FrameType::kSearchRequest: {
        SearchRequest request;
        SearchResponse response;
        Status decoded = DecodeSearchRequest(payload, &request);
        if (!decoded.ok()) {
          protocol_errors_->Increment();
          response.status = std::move(decoded);
        } else {
          // Echo the trace id whatever the outcome, so the caller can
          // join even a rejected request with the server's records.
          response.trace_id = request.trace_id;
          request.query = NormalizeSequence(request.query);
          if (!IsValidSequence(request.query) || request.query.empty()) {
            response.status = Status::InvalidArgument(
                "query contains non-IUPAC characters");
          } else {
            bool sampled = false;
            Result<SearchResult> result =
                dispatcher_->Execute(request, &sampled);
            response.sampled = sampled;
            if (result.ok()) {
              response.truncated = result->truncated;
              response.hits = std::move(result->hits);
            } else {
              response.status = result.status();
            }
          }
        }
        s = WriteFrame(fd, FrameType::kSearchResponse,
                       EncodeSearchResponse(response));
        break;
      }
      case FrameType::kStatsRequest: {
        stats_requests_->Increment();
        s = WriteFrame(fd, FrameType::kStatsResponse, StatsJson());
        break;
      }
      default: {
        protocol_errors_->Increment();
        s = WriteFrame(fd, FrameType::kError,
                       "unsupported frame type");
        break;
      }
    }
  }
}

std::string Server::StatsJson() const {
  std::string out = "{\"command\":\"stats\",\"server\":{\"version\":\"";
  out += obs::JsonEscape(kVersionString);
  out += "\",\"protocol\":";
  out += std::to_string(kProtocolVersion);
  out += ",\"engine\":\"";
  out += obs::JsonEscape(engine_->name());
  out += "\"},\"metrics\":";
  out += metrics_->SnapshotJson();
  out += "}";
  return out;
}

}  // namespace cafe::server
