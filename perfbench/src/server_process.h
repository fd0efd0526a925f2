// The real cafe_serve binary as a child process: started on loopback
// with an ephemeral port, polled until it accepts connections, sampled
// for peak memory, and stopped with SIGTERM (SIGKILL after a grace
// period). The child is also killed if the benchmark dies first.

#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Runs `binary` with `args` plus --port 0 and a port file in
  /// `work_dir`, its output going to `work_dir`/server.log, and waits up
  /// to `timeout_s` for the port file and a successful connection.
  static cafe::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& work_dir, double timeout_s);

  ~ServerProcess();  // Stop(), ignoring its status
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// VmHWM and VmPeak of the child, in MiB.
  [[nodiscard]] cafe::Status PeakMemory(double* rss_mb, double* vm_mb) const;

  /// SIGTERM, then SIGKILL after 10 s; waits for the exit. Fails unless
  /// the server drained and exited 0 on SIGTERM. Idempotent.
  [[nodiscard]] cafe::Status Stop();

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
