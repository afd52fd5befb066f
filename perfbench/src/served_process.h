#pragma once

// Runs galaxy_served as a child process: launch, wait for /healthz, read
// its peak RSS, stop and reap it.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServedProcess {
 public:
  ServedProcess() = default;
  ~ServedProcess() { Stop(); }
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  /// Starts `binary` with `args` (it must be given --port 0), reads the
  /// bound port from its banner and polls GET /healthz until it answers
  /// 200. `setup_s` receives the time from launch to that first 200.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             double timeout_s, double* setup_s, std::string* error);

  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) in MiB; 0 if unavailable.
  double PeakRssMb() const;

  /// SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench
