#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

namespace cafe::server {
namespace {

// A request line plus headers larger than this is not an operator with
// curl; drop the connection instead of buffering unboundedly.
constexpr size_t kMaxRequestBytes = 8192;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

// Reads until the blank line ending the headers, EOF, or the size cap.
// Returns false when no complete request line arrived.
bool ReadRequestHead(int fd, std::string* head) {
  char buf[1024];
  while (head->size() < kMaxRequestBytes) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) break;  // EOF — whatever arrived is all there is
    head->append(buf, static_cast<size_t>(n));
    if (head->find("\r\n\r\n") != std::string::npos ||
        head->find("\n\n") != std::string::npos) {
      break;
    }
  }
  // A usable head has at least a full request line.
  return head->find('\n') != std::string::npos;
}

void WriteAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer went away; nothing useful to do with the error
    }
    written += static_cast<size_t>(n);
  }
}

void WriteResponse(int fd, const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  WriteAll(fd, out);
}

}  // namespace

HttpServer::HttpServer(HttpHandler handler, const HttpOptions& options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.metrics != nullptr) {
    requests_ = options_.metrics->GetCounter("server.http_requests");
  }
}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
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
  if (listen(listen_fd_, /*backlog=*/16) < 0) {
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

  {
    MutexLock lock(&conn_mu_);
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void HttpServer::Shutdown() {
  MutexLock shutdown_lock(&shutdown_mu_);
  if (!started_) return;

  {
    MutexLock lock(&conn_mu_);
    stopping_ = true;
  }
  shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;

  std::list<std::thread> threads;
  {
    MutexLock lock(&conn_mu_);
    for (int fd : conn_fds_) shutdown(fd, SHUT_RDWR);
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

void HttpServer::AcceptLoop() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // shutdown(listen_fd_) during Shutdown() lands here
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

std::list<std::thread> HttpServer::TakeFinishedConns() {
  std::list<std::thread> finished;
  for (auto it : finished_conns_) {
    finished.splice(finished.end(), conn_threads_, it);
  }
  finished_conns_.clear();
  return finished;
}

void HttpServer::HandleConnection(int fd) {
  std::string head;
  if (ReadRequestHead(fd, &head)) {
    if (requests_ != nullptr) requests_->Increment();
    // Request line: METHOD SP PATH SP VERSION. Everything from '?' on
    // is split off and handed to the handler as the raw query string.
    const size_t eol = head.find_first_of("\r\n");
    const std::string line = head.substr(0, eol);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 == std::string::npos ? sp1
                                                               : sp1 + 1);
    HttpResponse response;
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      response.status = 400;
      response.body = "malformed request line\n";
    } else if (line.substr(0, sp1) != "GET") {
      response.status = 405;
      response.body = "only GET is supported\n";
    } else {
      std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      std::string query_string;
      const size_t query = path.find('?');
      if (query != std::string::npos) {
        query_string = path.substr(query + 1);
        path.resize(query);
      }
      response = handler_(path, query_string);
    }
    WriteResponse(fd, response);
  }
}

}  // namespace cafe::server
