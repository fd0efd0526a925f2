#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/client.h"

namespace perfbench {
namespace {

double ElapsedSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

cafe::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& work_dir, double timeout_s) {
  const std::string port_file = work_dir + "/server.port";
  const std::string log_file = work_dir + "/server.log";
  ::unlink(port_file.c_str());

  std::vector<std::string> argv_strings = {binary};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  for (const char* extra : {"--host", "127.0.0.1", "--port", "0"}) {
    argv_strings.emplace_back(extra);
  }
  argv_strings.emplace_back("--port-file");
  argv_strings.push_back(port_file);
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return cafe::Status::IOError("fork failed");
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid));

  const auto start = std::chrono::steady_clock::now();
  while (ElapsedSeconds(start) < timeout_s) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      server->pid_ = -1;
      return cafe::Status::IOError("cafe_serve exited during start; see " +
                                   log_file);
    }
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0 && port < 65536) {
      auto client = cafe::server::Client::Connect(
          "127.0.0.1", static_cast<uint16_t>(port));
      if (client.ok()) {
        server->port_ = static_cast<uint16_t>(port);
        return server;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cafe::Status::IOError("cafe_serve did not become ready; see " +
                               log_file);
}

ServerProcess::~ServerProcess() { (void)Stop(); }

cafe::Status ServerProcess::PeakMemory(double* rss_mb, double* vm_mb) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  bool have_rss = false;
  bool have_vm = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double kib = 0;
    fields >> key >> kib;
    if (key == "VmHWM:") {
      *rss_mb = kib / 1024.0;
      have_rss = true;
    } else if (key == "VmPeak:") {
      *vm_mb = kib / 1024.0;
      have_vm = true;
    }
  }
  if (!have_rss || !have_vm) {
    return cafe::Status::IOError("no VmHWM/VmPeak for cafe_serve");
  }
  return cafe::Status::OK();
}

cafe::Status ServerProcess::Stop() {
  if (pid_ < 0) return cafe::Status::OK();
  const pid_t pid = pid_;
  pid_ = -1;
  ::kill(pid, SIGTERM);
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  bool killed = false;
  for (;;) {
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) break;
    if (reaped < 0 && errno != EINTR) {
      return cafe::Status::IOError("lost track of cafe_serve");
    }
    if (!killed && ElapsedSeconds(start) > 10.0) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (killed || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return cafe::Status::IOError("cafe_serve did not drain and exit 0");
  }
  return cafe::Status::OK();
}

}  // namespace perfbench
