#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/hash.hpp"

namespace pap::serve {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Expected<Client> Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Expected<Client>::error("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Expected<Client>::error(errno_text("socket(unix)"));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string msg = errno_text("connect(" + path + ")");
    ::close(fd);
    return Expected<Client>::error(msg);
  }
  return Client{fd};
}

Expected<Client> Client::connect_tcp(const std::string& host, int port) {
  if (port < 1 || port > 65535) {
    return Expected<Client>::error("tcp port out of range: " +
                                   std::to_string(port) +
                                   " (expected 1..65535)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Expected<Client>::error("bad host: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Expected<Client>::error(errno_text("socket(tcp)"));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string msg =
        errno_text("connect(" + host + ":" + std::to_string(port) + ")");
    ::close(fd);
    return Expected<Client>::error(msg);
  }
  return Client{fd};
}

Status Client::send_line(const std::string& line) {
  if (fd_ < 0) return Status::error("client is not connected");
  std::string out = line;
  out.push_back('\n');
  const char* data = out.data();
  std::size_t len = out.size();
  while (len > 0) {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::error(errno_text("send"));
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Expected<std::string> Client::read_line() {
  if (fd_ < 0) return Expected<std::string>::error("client is not connected");
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[16 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Expected<std::string>::error(errno_text("recv"));
    }
    if (n == 0) {
      return Expected<std::string>::error("connection closed by server");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Expected<std::string> Client::call(const std::string& line) {
  const Status sent = send_line(line);
  if (!sent) return Expected<std::string>::error(sent.message());
  return read_line();
}

namespace {

/// One splitmix64 step: decorrelates the per-shard scores so rendezvous
/// hashing spreads keys evenly even for similar keys.
std::uint64_t route_mix(std::uint64_t x) {
  return splitmix64_mix(x + 0x9e3779b97f4a7c15ull);
}

}  // namespace

std::size_t Client::route(const std::string& key, std::size_t n_shards) {
  if (n_shards <= 1) return 0;
  // Rendezvous (highest-random-weight) hashing: score every shard against
  // the key, pick the max. Deterministic across processes, O(n) with tiny
  // n, and growing n -> n+1 remaps only the keys whose new max is the new
  // shard (~1/(n+1) of the key space) — cache affinity survives resizes.
  // FNV-1a, not std::hash, whose value may differ across implementations:
  // shard routing must agree between every process that touches a key.
  const std::uint64_t kh = fnv1a(key);
  std::size_t best = 0;
  std::uint64_t best_score = 0;
  for (std::size_t i = 0; i < n_shards; ++i) {
    const std::uint64_t score = route_mix(kh ^ route_mix(i));
    if (i == 0 || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

Expected<ShardEndpoint> parse_endpoint(const std::string& text) {
  if (text.empty()) return Expected<ShardEndpoint>::error("empty endpoint");
  ShardEndpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.unix_path = text.substr(5);
    if (ep.unix_path.empty()) {
      return Expected<ShardEndpoint>::error("empty unix path in '" + text +
                                            "'");
    }
    return ep;
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    std::string port_text = rest;
    if (colon != std::string::npos) {
      ep.host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
      if (ep.host.empty()) {
        return Expected<ShardEndpoint>::error("empty host in '" + text +
                                              "' (expected tcp:HOST:PORT)");
      }
      // The grammar is tcp:PORT or tcp:IPV4HOST:PORT. An IPv6 literal
      // ("tcp:::1:7171") would otherwise split on its last colon and
      // silently misparse into a wrong host — refuse it by name.
      if (ep.host.find(':') != std::string::npos) {
        return Expected<ShardEndpoint>::error(
            "IPv6 literal in '" + text +
            "' is not supported (endpoint grammar is tcp:PORT or "
            "tcp:IPV4HOST:PORT)");
      }
    }
    if (port_text.empty()) {
      return Expected<ShardEndpoint>::error("empty tcp port in '" + text +
                                            "' (expected 1..65535)");
    }
    char* end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == port_text.c_str() || *end != '\0' || port < 1 || port > 65535) {
      return Expected<ShardEndpoint>::error("bad tcp port in '" + text +
                                            "' (expected 1..65535)");
    }
    ep.port = static_cast<int>(port);
    return ep;
  }
  ep.unix_path = text;  // bare path = unix socket
  return ep;
}

Expected<Client> ShardRouter::connect(std::size_t index) const {
  if (index >= shards_.size()) {
    return Expected<Client>::error("shard index " + std::to_string(index) +
                                   " out of range (" +
                                   std::to_string(shards_.size()) +
                                   " shards)");
  }
  const ShardEndpoint& ep = shards_[index];
  return ep.unix_path.empty() ? Client::connect_tcp(ep.host, ep.port)
                              : Client::connect_unix(ep.unix_path);
}

}  // namespace pap::serve
