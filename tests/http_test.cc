// Tests for the introspection HTTP listener: request parsing, routing
// to the handler, error statuses, and shutdown.

#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace cafe::server {
namespace {

// A client socket connected to 127.0.0.1:`port`.
int ConnectTo(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

// One raw HTTP exchange: connect, send `request` verbatim, read to EOF.
std::string Exchange(uint16_t port, const std::string& request) {
  int fd = ConnectTo(port);
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  shutdown(fd, SHUT_WR);
  std::string response;
  char buf[1024];
  while (true) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    HttpOptions options;
    options.metrics = &metrics_;
    server_ = std::make_unique<HttpServer>(
        [](const std::string& path, const std::string& query) {
          HttpResponse response;
          if (path == "/hello") {
            response.body = "hi there\n";
          } else if (path == "/json") {
            response.content_type = "application/json";
            response.body = "{\"ok\":true}";
          } else if (path == "/echo") {
            response.body = "query=" + query + "\n";
          } else {
            response.status = 404;
            response.body = "nope\n";
          }
          return response;
        },
        options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  obs::MetricsRegistry metrics_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesHandlerResponse) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 9"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\nhi there\n"), std::string::npos);
}

TEST_F(HttpServerTest, ContentTypePassesThrough) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /json HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("{\"ok\":true}"), std::string::npos);
}

TEST_F(HttpServerTest, UnknownPathIs404) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /missing HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos)
      << response;
}

TEST_F(HttpServerTest, QueryStringIsStripped) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /hello?x=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << response;
}

TEST_F(HttpServerTest, QueryStringReachesHandler) {
  StartServer();
  std::string response = Exchange(
      server_->port(), "GET /echo?trace_id=00c0ffee HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("query=trace_id=00c0ffee\n"), std::string::npos)
      << response;
  // No '?' means the handler sees an empty query string.
  response = Exchange(server_->port(), "GET /echo HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("query=\n"), std::string::npos) << response;
}

TEST_F(HttpServerTest, NonGetIs405) {
  StartServer();
  std::string response = Exchange(
      server_->port(), "POST /hello HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 405 Method Not Allowed"),
            std::string::npos)
      << response;
}

TEST_F(HttpServerTest, MalformedRequestLineIs400) {
  StartServer();
  std::string response = Exchange(server_->port(), "GARBAGE\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 400 Bad Request"), std::string::npos)
      << response;
}

TEST_F(HttpServerTest, CountsRequests) {
  StartServer();
  obs::Counter* requests = metrics_.GetCounter("server.http_requests");
  const uint64_t before = requests->Value();
  (void)Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  (void)Exchange(server_->port(), "GET /missing HTTP/1.0\r\n\r\n");
  EXPECT_EQ(requests->Value(), before + 2);
}

TEST_F(HttpServerTest, ShutdownIsIdempotentAndRestartable) {
  StartServer();
  const uint16_t first_port = server_->port();
  server_->Shutdown();
  server_->Shutdown();  // idempotent
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_NE(server_->port(), 0);
  (void)first_port;
  std::string response =
      Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
}

// A client that hangs up before a large reply is written must cost
// that reply only: the server's writes fail with EPIPE rather than
// raising SIGPIPE, which would kill this whole process, server and test
// alike.
TEST(HttpServerHangUpTest, PeerHangUpDuringLargeReplyKeepsServing) {
  std::atomic<bool> client_closed{false};
  HttpServer server(
      [&](const std::string& path, const std::string&) {
        HttpResponse response;
        if (path == "/big") {
          while (!client_closed.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          response.body.assign(size_t{4} << 20, 'x');
        } else {
          response.body = "still here\n";
        }
        return response;
      },
      HttpOptions{});
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectTo(server.port());
  const std::string request = "GET /big HTTP/1.0\r\n\r\n";
  ASSERT_EQ(write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  close(fd);
  client_closed.store(true);

  std::string response =
      Exchange(server.port(), "GET /hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("\r\n\r\nstill here\n"), std::string::npos)
      << response;
  server.Shutdown();  // joins the /big handler: its reply has ended
}

// VmSize of this process in KiB, from /proc/self/status (0 if absent).
uint64_t VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

// Finished handlers are joined from the accept loop, not kept until
// Shutdown(): 200 scrapes in a row grow the address space by far less
// than one thread stack (8 MiB by default) per connection.
TEST_F(HttpServerTest, ConnectionChurnDoesNotGrowAddressSpace) {
  StartServer();
  Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  const uint64_t before = VmSizeKiB();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 200; ++i) {
    Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  }
  const uint64_t after = VmSizeKiB();
  EXPECT_LT(after, before + 200 * 1024)
      << "VmSize grew from " << before << " KiB to " << after << " KiB";
}

}  // namespace
}  // namespace cafe::server
