#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <pthread.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

int connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    *error = "connect(" + path + "): " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Daemon::~Daemon() { stop(); }

bool Daemon::start(const std::string& papd, const std::string& socket_path,
                   std::string* error) {
  ::unlink(socket_path.c_str());
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: die with the benchmark; keep stdout quiet (the last stdout
    // line of a run is the benchmark's JSON), keep stderr for diagnostics.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
    }
    ::execl(papd.c_str(), papd.c_str(), "--unix", socket_path.c_str(),
            "--workers", "2", "--reactors", "1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "papd exited during start-up";
      return false;
    }
    std::string ignored;
    const int fd = connect_unix(socket_path, &ignored);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "papd did not accept connections within 20 s";
  stop();
  return false;
}

bool Daemon::stop() {
  if (pid_ < 0) return true;
  ::kill(pid_, SIGTERM);
  bool clean = false;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (r < 0 && errno != EINTR) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return clean;
}

double Daemon::peak_rss_mb() const {
  if (pid_ < 0) return 0.0;
  return vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status");
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

IdleSpinners::IdleSpinners() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // spare the SMT sibling
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

LineConn::~LineConn() { close(); }

void LineConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
  in_pos_ = 0;
}

bool LineConn::connect(const std::string& path, std::string* error) {
  close();
  fd_ = connect_unix(path, error);
  return fd_ >= 0;
}

bool LineConn::send(const std::string& line) {
  if (fd_ < 0) return false;
  std::string out;
  out.reserve(line.size() + 1);
  out += line;
  out += '\n';
  const char* data = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, data, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

int LineConn::try_read_line(std::string* out) {
  if (fd_ < 0) return -1;
  for (;;) {
    const std::size_t nl = in_.find('\n', in_pos_);
    if (nl != std::string::npos) {
      out->assign(in_, in_pos_, nl - in_pos_);
      in_pos_ = nl + 1;
      if (in_pos_ > (1u << 16)) {  // compact now and then, not per line
        in_.erase(0, in_pos_);
        in_pos_ = 0;
      }
      return 1;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    if (n <= 0) return -1;
    in_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineConn::read_line(std::string* out) {
  for (;;) {
    const int got = try_read_line(out);
    if (got != 0) return got > 0;
    ::sched_yield();
  }
}

bool LineConn::call(const std::string& line, std::string* reply) {
  return send(line) && read_line(reply);
}

}  // namespace perfbench
