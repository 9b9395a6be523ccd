#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/log.hpp"
#include "serve/inbox.hpp"
#include "serve/protocol.hpp"

namespace pap::serve {

namespace {

Status errno_status(const std::string& what) {
  return Status::error(what + ": " + std::strerror(errno));
}

/// Hard bound on a connection's queued-but-unsent reply bytes. A peer
/// that pipelines requests without reading replies hits this and is
/// disconnected; memory per slow client stays bounded.
constexpr std::size_t kOutBufCap = 4u << 20;

using SteadyClock = std::chrono::steady_clock;

}  // namespace

/// One live connection. Reply closures hold a shared_ptr, so the socket
/// stays open (and the outbound buffer valid) until the last in-flight
/// reply for this connection has been queued — even after its reactor
/// dropped it at EOF or the server began draining. The read-side state
/// (pending, discarding, events) is touched only by the owning reactor
/// thread; the outbound state is shared under out_mu, whose critical
/// sections only append bytes or make one nonblocking send — no thread
/// ever sleeps holding it, or at all, to write.
struct Server::Conn {
  int fd = -1;                     ///< nonblocking
  std::weak_ptr<Reactor> reactor;  ///< owner; expired once the fleet retired
  std::size_t hard_cap = 0;   ///< read-buffer bound before oversized discard
  std::string pending;        ///< partial request line across recv()s
  bool discarding = false;    ///< inside an oversized line, eat until '\n'
  std::uint32_t events = EPOLLIN | EPOLLRDHUP;  ///< current epoll interest

  std::atomic<bool> read_closed{false};  ///< EOF seen; conn lives for replies
  std::atomic<int> inflight{0};  ///< submitted requests awaiting their reply

  std::mutex out_mu;
  std::string out;          ///< reply bytes the socket has not yet accepted
  std::size_t out_off = 0;  ///< consumed prefix of `out`
  bool dead = false;        ///< no further writes; being torn down
  SteadyClock::time_point last_progress{};  ///< socket last accepted bytes

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  bool has_pending_locked() const { return out.size() > out_off; }

  /// Push queued bytes with nonblocking sends until the socket refuses or
  /// the buffer drains. Requires out_mu. Sets `dead` on a dead peer.
  void flush_locked() {
    while (has_pending_locked()) {
      const ssize_t n =
          ::send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (n >= 0) {
        out_off += static_cast<std::size_t>(n);
        last_progress = SteadyClock::now();
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      dead = true;  // peer reset/closed
      break;
    }
    if (out_off == out.size() || dead) {
      out.clear();
      out_off = 0;
    } else if (out_off > 64 * 1024) {
      out.erase(0, out_off);
      out_off = 0;
    }
  }

  enum class SendState { kFlushed, kPending, kDead };

  /// Queue one reply line and push what the socket takes right now; never
  /// blocks. kPending means bytes remain queued and the reactor must
  /// finish the flush on EPOLLOUT. Appends under out_mu, so pipelined
  /// replies from different threads never interleave mid-line. Overflow
  /// past kOutBufCap (or a dead peer) kills the connection: shutdown()
  /// makes the reactor reap it, so the client sees a closed socket, never
  /// a silent hole in its reply stream.
  SendState enqueue(const std::string& reply) {
    std::lock_guard<std::mutex> lock(out_mu);
    if (dead) return SendState::kDead;
    if (!has_pending_locked()) last_progress = SteadyClock::now();
    out.append(reply);
    out.push_back('\n');
    if (out.size() - out_off > kOutBufCap) {
      dead = true;
      out.clear();
      out_off = 0;
    } else {
      flush_locked();
    }
    if (dead) {
      ::shutdown(fd, SHUT_RDWR);
      return SendState::kDead;
    }
    return has_pending_locked() ? SendState::kPending : SendState::kFlushed;
  }
};

/// One epoll event loop owning a share of the connections. Acceptors hand
/// connections over through a mutex-guarded inbox plus an eventfd wake;
/// from then on all read-side work — and all epoll bookkeeping for the
/// write side — happens on this reactor's thread. Worker threads that
/// leave bytes queued on a connection nudge its reactor through the same
/// inbox/wake mechanism (`request_flush`) instead of touching epoll
/// themselves.
class Server::Reactor {
 public:
  Reactor() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  }

  ~Reactor() {
    request_stop();  // destruction is safe even on a never-stopped reactor
    if (thread_.joinable()) thread_.join();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status start(Server* server) {
    if (epoll_fd_ < 0 || wake_fd_ < 0) return errno_status("reactor setup");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return errno_status("epoll_ctl(wake)");
    }
    server_ = server;
    thread_ = std::thread([this] { run(); });
    return Status::ok();
  }

  /// Hand a freshly accepted connection to this reactor. Thread-safe.
  /// Once the loop has exited the connection is dropped here, which
  /// closes its socket.
  void add_conn(std::shared_ptr<Conn> conn) {
    if (inbox_.push(conn)) wake();
  }

  /// Ask the loop to finish flushing (or reap) a connection that has
  /// queued output or just delivered its last in-flight reply after EOF.
  /// Thread-safe; callers reach this through the Conn's weak_ptr. Once the
  /// loop has exited the request is dropped: the caller's reference is
  /// then the only thing keeping the connection open.
  void request_flush(std::shared_ptr<Conn> conn) {
    if (flush_inbox_.push(conn)) wake();
  }

  void request_stop() {
    stop_.store(true, std::memory_order_release);
    wake();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void wake() {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof one);
  }

  void run() {
    loop();
    retire();
  }

  /// The loop has exited: refuse later hand-offs and release every
  /// connection this reactor holds, so each socket closes once no reply
  /// closure needs it, not when the Reactor object is destroyed.
  void retire() {
    (void)inbox_.close();
    (void)flush_inbox_.close();
    writable_.clear();
    conns_.clear();
  }

  void loop() {
    epoll_event events[64];
    for (;;) {
      // Block indefinitely only while no connection has queued output;
      // otherwise tick so the write-stall sweep can disconnect peers that
      // stopped reading.
      const int timeout = writable_.empty() ? -1 : 100;
      const int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // epoll fd gone — shutting down
      }
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == wake_fd_) {
          drain_wake();
        } else {
          on_event(events[i].data.fd, events[i].events);
        }
      }
      sweep_stalled();
      if (stop_.load(std::memory_order_acquire)) return;
    }
  }

  void drain_wake() {
    std::uint64_t count = 0;
    (void)!::read(wake_fd_, &count, sizeof count);
    for (auto& conn : inbox_.take()) {
      epoll_event ev{};
      ev.events = conn->events;
      ev.data.fd = conn->fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
        continue;  // fd already dead; dropping the ref closes it
      }
      conns_.emplace(conn->fd, std::move(conn));
    }
    for (auto& conn : flush_inbox_.take()) try_flush(conn);
  }

  void on_event(int fd, std::uint32_t ev) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // dropped earlier in this batch
    const std::shared_ptr<Conn> conn = it->second;
    if (ev & EPOLLOUT) {
      try_flush(conn);
      const auto again = conns_.find(fd);
      if (again == conns_.end() || again->second != conn) return;  // reaped
    }
    if (!conn->read_closed.load()) {
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        on_readable(conn);
      }
    } else if (ev & (EPOLLHUP | EPOLLERR)) {
      kill(conn);  // peer gone; parked replies are undeliverable
    }
  }

  void on_readable(const std::shared_ptr<Conn>& conn) {
    char buf[16 * 1024];
    // Level-triggered: bounded rounds per event keep one firehose
    // connection from starving its reactor siblings; epoll re-fires for
    // whatever is left.
    for (int round = 0; round < 4; ++round) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        kill(conn);
        return;
      }
      if (n == 0) {  // EOF, peer reset, or SHUT_RD during drain
        on_eof(conn);
        return;
      }
      server_->ingest(conn, buf, static_cast<std::size_t>(n));
      if (conns_.find(conn->fd) == conns_.end()) return;  // killed by ingest
    }
  }

  /// The peer finished sending. The connection stays parked — readable
  /// interest off, in the table — until every in-flight reply has been
  /// queued and flushed, which is what makes the drain guarantee hold.
  void on_eof(const std::shared_ptr<Conn>& conn) {
    conn->read_closed.store(true);
    bool pending = false;
    bool dead = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      pending = conn->has_pending_locked();
      dead = conn->dead;
    }
    if (dead) {
      kill(conn);
      return;
    }
    if (!pending && conn->inflight.load() == 0) {
      remove(conn);  // fully answered: let the refcount close the socket
      return;
    }
    update_events(conn, pending ? EPOLLOUT : 0u);
  }

  /// Push queued bytes, then update epoll interest to match what is left;
  /// reaps the connection once it is both drained and done.
  void try_flush(const std::shared_ptr<Conn>& conn) {
    const auto it = conns_.find(conn->fd);
    if (it == conns_.end() || it->second != conn) return;  // already gone
    bool pending = false;
    bool dead = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->flush_locked();
      pending = conn->has_pending_locked();
      dead = conn->dead;
    }
    if (dead) {
      kill(conn);
      return;
    }
    if (!pending && conn->read_closed.load() && conn->inflight.load() == 0) {
      remove(conn);
      return;
    }
    const std::uint32_t base =
        conn->read_closed.load() ? 0u : (EPOLLIN | EPOLLRDHUP);
    update_events(conn, base | (pending ? EPOLLOUT : 0u));
  }

  /// Disconnect peers whose queued output made no progress for the
  /// configured stall bound — they stopped reading; holding their bytes
  /// (or silently dropping them) would be worse than a clean close.
  void sweep_stalled() {
    if (writable_.empty()) return;
    const auto now = SteadyClock::now();
    std::vector<std::shared_ptr<Conn>> stuck;
    for (const int fd : writable_) {
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::lock_guard<std::mutex> lock(it->second->out_mu);
      if (it->second->has_pending_locked() &&
          now - it->second->last_progress >= server_->config_.write_stall) {
        stuck.push_back(it->second);
      }
    }
    for (auto& conn : stuck) kill(conn);
  }

  void update_events(const std::shared_ptr<Conn>& conn, std::uint32_t ev) {
    if (ev & EPOLLOUT) {
      writable_.insert(conn->fd);
    } else {
      writable_.erase(conn->fd);
    }
    if (conn->events == ev) return;
    epoll_event e{};
    e.events = ev;
    e.data.fd = conn->fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &e) == 0) {
      conn->events = ev;
    }
  }

  /// Tear a connection down on error, overflow or write stall: mark it
  /// dead (late replies are dropped at enqueue), shut the socket so the
  /// peer observes a clean failure, and forget it.
  void kill(const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->dead = true;
      conn->out.clear();
      conn->out_off = 0;
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    remove(conn);
  }

  /// Forget a connection: out of epoll, out of the tables. In-flight
  /// reply closures still hold the Conn; the socket closes when the last
  /// reference drops.
  void remove(const std::shared_ptr<Conn>& conn) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    writable_.erase(conn->fd);
    conns_.erase(conn->fd);
  }

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  Server* server_ = nullptr;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  Inbox<std::shared_ptr<Conn>> inbox_;        // freshly accepted
  Inbox<std::shared_ptr<Conn>> flush_inbox_;  // flush/reap requests
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // loop thread only
  std::unordered_set<int> writable_;  // conns with queued output; loop only
};

Server::Server(ServerConfig config)
    : config_(config), service_(config.service) {}

Server::~Server() { stop(); }

Status Server::unwind_start(Status why) {
  for (auto& r : reactors_) r->request_stop();
  for (auto& r : reactors_) r->join();
  reactors_.clear();
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (unix_bound_) {
    ::unlink(config_.unix_path.c_str());
    unix_bound_ = false;
  }
  bound_tcp_port_ = -1;
  return why;
}

Status Server::start() {
  if (config_.unix_path.empty() && config_.tcp_port < 0) {
    return Status::error("server needs a unix path or a tcp port");
  }
  if (config_.tcp_port > 65535) {
    return Status::error("tcp port out of range: " +
                         std::to_string(config_.tcp_port) +
                         " (expected 0..65535)");
  }
  if (config_.reactors < 1) {
    return Status::error("server needs >= 1 reactor thread");
  }

  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::error("unix socket path too long: " + config_.unix_path);
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return errno_status("socket(unix)");
    ::unlink(config_.unix_path.c_str());  // stale socket from a dead server
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const Status s = errno_status("bind(" + config_.unix_path + ")");
      ::close(fd);
      return s;
    }
    if (::listen(fd, 128) < 0) {
      const Status s = errno_status("listen(unix)");
      ::close(fd);
      ::unlink(config_.unix_path.c_str());
      return s;
    }
    unix_bound_ = true;
    listen_fds_.push_back(fd);
  }

  if (config_.tcp_port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::inet_pton(AF_INET, config_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      return unwind_start(Status::error("bad tcp host: " + config_.tcp_host));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return unwind_start(errno_status("socket(tcp)"));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const Status s = errno_status("bind(" + config_.tcp_host + ":" +
                                    std::to_string(config_.tcp_port) + ")");
      ::close(fd);
      return unwind_start(s);
    }
    if (::listen(fd, 128) < 0) {
      const Status s = errno_status("listen(tcp)");
      ::close(fd);
      return unwind_start(s);
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
    listen_fds_.push_back(fd);
  }

  reactors_.reserve(static_cast<std::size_t>(config_.reactors));
  for (int i = 0; i < config_.reactors; ++i) {
    auto reactor = std::make_shared<Reactor>();
    const Status s = reactor->start(this);
    if (!s) return unwind_start(s);
    reactors_.push_back(std::move(reactor));
  }

  acceptors_.reserve(listen_fds_.size());
  for (const int fd : listen_fds_) {
    acceptors_.emplace_back([this, fd] { accept_loop(fd); });
  }
  return Status::ok();
}

void Server::accept_loop(int listen_fd) {
  std::size_t prune_at = 64;
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or fatal — either way, done
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->hard_cap = config_.service.parse.max_bytes + 4096;
    conn->last_progress = SteadyClock::now();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stopped_) {  // raced with stop(): refuse
        ::close(fd);
        conn->fd = -1;
        continue;
      }
      conns_.push_back(conn);
      // A long-lived daemon must not accumulate one tombstone per
      // connection ever accepted: sweep expired entries, amortized O(1)
      // per accept.
      if (conns_.size() >= prune_at) {
        conns_.remove_if([](const std::weak_ptr<Conn>& w) { return w.expired(); });
        prune_at = std::max<std::size_t>(64, conns_.size() * 2);
      }
    }
    const std::size_t idx =
        next_reactor_.fetch_add(1, std::memory_order_relaxed) %
        reactors_.size();
    conn->reactor = reactors_[idx];
    reactors_[idx]->add_conn(std::move(conn));
  }
}

void Server::deliver(const std::shared_ptr<Conn>& conn,
                     const std::string& reply) {
  if (conn->enqueue(reply) == Conn::SendState::kPending) {
    // The socket would not take everything; the conn's reactor finishes
    // the flush on EPOLLOUT (and enforces the write-stall bound).
    if (auto reactor = conn->reactor.lock()) reactor->request_flush(conn);
  }
}

void Server::ingest(const std::shared_ptr<Conn>& conn, const char* buf,
                    std::size_t len) {
  // A line longer than the parse limit can never become a valid request;
  // reply once and discard bytes until its newline instead of buffering.
  std::string& pending = conn->pending;
  std::size_t start = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (buf[i] != '\n') continue;
    if (conn->discarding) {
      conn->discarding = false;
    } else {
      pending.append(buf + start, i - start);
      if (!pending.empty() && pending.back() == '\r') pending.pop_back();
      if (!pending.empty()) {
        conn->inflight.fetch_add(1);
        service_.submit(pending, [this, conn](std::string reply) {
          deliver(conn, reply);
          // Last reply after EOF: nudge the reactor so the parked conn is
          // reaped once its buffer drains (deliver only nudges when bytes
          // remain queued).
          if (conn->inflight.fetch_sub(1) == 1 && conn->read_closed.load()) {
            if (auto reactor = conn->reactor.lock()) {
              reactor->request_flush(conn);
            }
          }
        });
      }
      pending.clear();
    }
    start = i + 1;
  }
  if (!conn->discarding) {
    pending.append(buf + start, len - start);
    if (pending.size() > conn->hard_cap) {
      deliver(conn, error_reply(
          0, ErrorCode::kParseError,
          "request line exceeds " +
              std::to_string(config_.service.parse.max_bytes) + " bytes"));
      pending.clear();
      pending.shrink_to_fit();
      conn->discarding = true;
    }
  }
}

bool Server::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopped_) return true;
  }
  stopping_.store(true, std::memory_order_relaxed);

  // 1. Stop accepting: shutdown unblocks accept(), then close.
  for (const int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  for (auto& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  acceptors_.clear();
  listen_fds_.clear();
  if (unix_bound_) ::unlink(config_.unix_path.c_str());

  // 2. Quiesce intake on live connections; write side stays open so the
  //    drain below can still deliver replies.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    stopped_ = true;
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RD);
    }
  }

  // 3. Drain every accepted request and flush its reply. The reactors
  //    keep running through the drain, consuming the EOFs from step 2.
  const bool drained = service_.shutdown(config_.drain_deadline);
  if (!drained) {
    log_warn("papd: drain deadline exceeded; abandoning in-flight work");
  }

  // 3b. The drain queued its replies; give the still-running reactors a
  //     bounded window to push any bytes a slow socket has not yet
  //     accepted. Peers stuck past write_stall are disconnected by the
  //     reactor sweep, so this loop terminates.
  if (drained) {
    const auto deadline = std::chrono::steady_clock::now() +
                          config_.write_stall +
                          std::chrono::milliseconds(500);
    for (;;) {
      bool pending = false;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto& weak : conns_) {
          if (auto conn = weak.lock()) {
            std::lock_guard<std::mutex> out_lock(conn->out_mu);
            if (!conn->dead && conn->has_pending_locked()) {
              pending = true;
              break;
            }
          }
        }
      }
      if (!pending || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // 4. Retire the reactor fleet and release sockets (reply closures from
  //    an abandoned drain keep their Conn — and its fd — alive safely).
  for (auto& r : reactors_) r->request_stop();
  for (auto& r : reactors_) r->join();
  reactors_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  return drained;
}

}  // namespace pap::serve
