#include "served_process.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "http_client.h"

namespace perfbench {

bool ServedProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          double timeout_s, double* setup_s,
                          std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe() failed";
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  const auto launched = std::chrono::steady_clock::now();
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "fork() failed";
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];

  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         launched)
        .count();
  };
  // Banner: "galaxy_served listening on 127.0.0.1:PORT (...)".
  std::string banner;
  while (banner.find('\n') == std::string::npos) {
    const double left = timeout_s - elapsed();
    if (left <= 0) {
      *error = "galaxy_served did not start within the timeout";
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "galaxy_served exited during start-up";
      return false;
    }
    banner.append(buf, static_cast<size_t>(n));
  }
  const size_t at = banner.find("listening on ");
  const size_t colon = at == std::string::npos ? at : banner.find(':', at);
  if (colon == std::string::npos) {
    *error = "unexpected galaxy_served banner: " + banner;
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + colon + 1));
  while (HttpGet(port_, "/healthz", nullptr) != 200) {
    if (elapsed() > timeout_s) {
      *error = "galaxy_served never answered /healthz";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *setup_s = elapsed();
  return true;
}

double ServedProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

void ServedProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 1000 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace perfbench
