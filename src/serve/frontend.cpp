#include "serve/frontend.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <system_error>

#include "obs/obs.hpp"
#include "runtime/fault_injection.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"

namespace ocps::serve {

namespace {

using Clock = std::chrono::steady_clock;

// A connection writing a line this long without a newline is not
// speaking the protocol; cut it off instead of buffering forever.
constexpr std::size_t kMaxLineBytes = 1 << 20;

// Minimal HTTP/1.1 responder for the loopback Prometheus listener: one
// short-lived connection per scrape. Reads the request head (bounded),
// then answers the 405/404/501/200 ladder; `refresh` runs before a 200.
void answer_scrape(int fd, const std::atomic<bool>& stopping,
                   const std::function<void()>& refresh) {
  // Read the request head; scrapers send tiny GETs, so bound everything.
  std::string head;
  Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    if (Clock::now() >= give_up || head.size() > 8192 || stopping.load())
      return;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, kPollMs) <= 0) continue;
    char chunk[1024];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return;
    }
    head.append(chunk, static_cast<std::size_t>(n));
  }

  std::istringstream request(head);
  std::string method, path;
  request >> method >> path;

  auto reply = [&](const char* status, const char* content_type,
                   const std::string& body) {
    std::ostringstream os;
    os << "HTTP/1.1 " << status << "\r\nContent-Type: " << content_type
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n"
       << body;
    std::string data = os.str();
    (void)send_all(fd, data.data(), data.size(),
                   std::chrono::milliseconds(2000));
  };

  if (method != "GET") {
    reply("405 Method Not Allowed", "text/plain; charset=utf-8",
          "only GET is supported\n");
    return;
  }
  if (path != "/metrics" && path != "/") {
    reply("404 Not Found", "text/plain; charset=utf-8",
          "unknown path; scrape /metrics\n");
    return;
  }
  if (!obs::enabled()) {
    // Explicit status instead of an empty page: with obs off there is
    // nothing to expose, and a scraper should see that as a config
    // problem, not an idle daemon.
    reply("501 Not Implemented", "text/plain; charset=utf-8",
          "observability disabled (run ocps serve, or set OCPS_OBS=1)\n");
    return;
  }
  refresh();
  std::ostringstream text;
  obs::write_metrics_prometheus(text);
  reply("200 OK", "text/plain; version=0.0.4; charset=utf-8", text.str());
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection.

Connection::~Connection() { ::close(fd); }

// Accepted fds are nonblocking; send_all retries EINTR, continues short
// writes, and polls POLLOUT on EAGAIN bounded by io_timeout. MSG_NOSIGNAL
// inside: a client that hung up must cost an error return, not a SIGPIPE.
bool Connection::send_line(std::string line) {
  line.push_back('\n');
  std::lock_guard<std::mutex> guard(write_mutex_);
  if (broken.load(std::memory_order_relaxed)) return false;

  NetFaultInjector::WriteFault fault = NetFaultInjector::WriteFault::kNone;
  if (faults) fault = faults->write_fault();
  if (fault == NetFaultInjector::WriteFault::kStall)
    std::this_thread::sleep_for(faults->stall_duration());
  if (fault == NetFaultInjector::WriteFault::kReset) {
    // Cut the response mid-line and tear the connection down: the peer
    // reads a partial frame and then EOF, exactly what a crashed process
    // looks like from the other side.
    (void)send_all(fd, line.data(), line.size() / 2, io_timeout);
    ::shutdown(fd, SHUT_RDWR);
    broken.store(true, std::memory_order_relaxed);
    return false;
  }
  std::size_t head = 0;
  if (fault == NetFaultInjector::WriteFault::kTrickle) {
    // Dribble the head out a byte at a time so the peer exercises its
    // partial-read reassembly; the tail goes out normally.
    for (; head < std::min<std::size_t>(line.size(), 32); ++head) {
      if (!send_all(fd, line.data() + head, 1, io_timeout)) {
        broken.store(true, std::memory_order_relaxed);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (!send_all(fd, line.data() + head, line.size() - head, io_timeout)) {
    broken.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Lifecycle.

Frontend::Frontend(FrontendConfig config, std::string conn_limit_metric,
                   Hooks hooks)
    : config_(std::move(config)),
      conn_limit_metric_(std::move(conn_limit_metric)),
      hooks_(std::move(hooks)) {
  OCPS_CHECK(!config_.socket_path.empty() ||
                 !config_.listen_address.empty(),
             "a listener is required (socket path and/or TCP address)");
  OCPS_CHECK(config_.metrics_port >= -1 && config_.metrics_port <= 65535,
             "metrics_port must be in [-1, 65535]");
  OCPS_CHECK(config_.max_connections > 0,
             "max_connections must be positive");
  OCPS_CHECK(config_.io_timeout.count() > 0, "io_timeout must be positive");
}

Frontend::~Frontend() { stop(); }

Result<bool> Frontend::start() {
  Result<bool> claimed = claim_listeners();
  if (!claimed.ok()) {
    release_listeners();
    return claimed;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (http_fd_ >= 0) http_thread_ = std::thread([this] { http_loop(); });
  return Ok(true);
}

Result<bool> Frontend::claim_listeners() {
  // Race-safe claim of the Unix socket path (flock + connect probe; see
  // socket_util.hpp): a clear "in use by a live daemon" error instead of
  // two processes silently stealing each other's socket.
  if (!config_.socket_path.empty()) {
    Result<UnixListener> claimed =
        claim_unix_socket(config_.socket_path, 64);
    if (!claimed.ok()) return claimed.error();
    unix_ = claimed.value();
  }

  auto listen_on = [](const std::string& host, std::uint16_t port,
                      int backlog, int& fd,
                      std::atomic<int>& bound) -> Result<bool> {
    Result<int> listening = listen_tcp(host, port, backlog);
    if (!listening.ok()) return listening.error();
    fd = listening.value();
    Result<std::uint16_t> actual = bound_tcp_port(fd);
    if (!actual.ok()) return actual.error();
    bound.store(actual.value());
    return Ok(true);
  };

  if (!config_.listen_address.empty()) {
    Result<Endpoint> ep = parse_endpoint(config_.listen_address);
    if (!ep.ok()) return ep.error();
    if (!ep.value().is_tcp())
      return Err(ErrorCode::kInvalidArgument,
                 "--listen must be host:port, got: " +
                     config_.listen_address);
    Result<bool> tcp =
        listen_on(ep.value().host, ep.value().port, 64, tcp_fd_, tcp_port_);
    if (!tcp.ok()) return tcp;
  }

  // Prometheus exposition, loopback only. -1 asks the kernel for an
  // ephemeral port (tests); the bound port is read back.
  if (config_.metrics_port != 0) {
    const auto port = static_cast<std::uint16_t>(
        std::max(config_.metrics_port, 0));
    Result<bool> http = listen_on("127.0.0.1", port, 16, http_fd_, http_port_);
    if (!http.ok()) return http;
  }
  return Ok(true);
}

void Frontend::release_listeners() {
  if (http_fd_ >= 0) {
    ::close(http_fd_);
    http_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  release_unix_socket(unix_, config_.socket_path);
}

void Frontend::wait_until_stop_requested() const {
  while (!stopping())
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
}

void Frontend::stop() {
  stopping_.store(true);
  // 1. No new connections (the metrics listener is independent of the
  // request pipeline, so it goes down in the same phase).
  if (accept_thread_.joinable()) accept_thread_.join();
  if (http_thread_.joinable()) http_thread_.join();
  release_listeners();

  // 2. No new requests: join every reader (each notices stopping_ within
  // one poll interval and finishes the line it was handling). swap()
  // keeps the list nodes in place, so each reader's `done` flag stays
  // valid until its join.
  std::list<Reader> readers;
  {
    std::lock_guard<std::mutex> guard(readers_mutex_);
    readers.swap(readers_);
  }
  for (Reader& r : readers) r.thread.join();
}

// ---------------------------------------------------------------------------
// Socket threads.

void Frontend::accept_loop() {
  while (!stopping()) {
    pollfd pfds[2];
    nfds_t nfds = 0;
    if (unix_.fd >= 0) pfds[nfds++] = {unix_.fd, POLLIN, 0};
    if (tcp_fd_ >= 0) pfds[nfds++] = {tcp_fd_, POLLIN, 0};
    int ready = ::poll(pfds, nfds, kPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    for (nfds_t i = 0; i < nfds; ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      // Accepted fds are nonblocking: every read/write goes through a
      // poll-bounded loop, so a stalled peer can never wedge a thread in
      // the kernel.
      int fd = ::accept4(pfds[i].fd, nullptr, nullptr,
                         SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) continue;
      if (config_.net_faults && config_.net_faults->fail_accept()) {
        // Injected accept failure: the peer sees an immediate EOF, as if
        // the process ran out of fds and dropped the connection.
        ::close(fd);
        continue;
      }
      admit(fd);
    }
  }
}

void Frontend::admit(int fd) {
  auto conn = std::make_shared<Connection>(fd, config_.io_timeout,
                                           config_.net_faults);
  std::lock_guard<std::mutex> guard(readers_mutex_);
  if (stopping()) return;  // conn dtor closes the fd
  // Reap readers whose connection closed. Each one set `done` as its
  // last use of this object, so joining here, under the lock, waits only
  // for its thread to unwind.
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
  if (readers_.size() >= config_.max_connections) {
    // Explicit refusal beats letting the backlog time out: the client
    // gets a line it can parse and retry against a replica.
    if (obs::enabled()) obs::counter(conn_limit_metric_).add(1);
    conn->send_line(error_response(
        0, kCodeShuttingDown,
        "connection limit reached (" +
            std::to_string(config_.max_connections) + ")"));
    return;  // conn dtor closes the fd
  }
  Reader& reader = readers_.emplace_back();
  try {
    reader.thread = std::thread([this, conn, &reader] {
      read_loop(conn);
      reader.done.store(true, std::memory_order_release);
    });
  } catch (const std::system_error&) {
    // No thread to serve it (the process is out of memory or thread
    // ids): refuse in band, as at the cap, instead of terminating.
    readers_.pop_back();
    conn->send_line(error_response(0, kCodeShuttingDown,
                                   "cannot start a reader thread"));
  }
}

void Frontend::read_loop(const std::shared_ptr<Connection>& conn) {
  const LineHandler handle = hooks_.open();
  std::string buffer;
  Clock::time_point last_progress = Clock::now();
  while (!stopping()) {
    if (conn->broken.load(std::memory_order_relaxed)) break;
    // A partial line that stops growing is a stalled or byte-trickling
    // peer; answer 400 and drop it rather than buffer a frame forever.
    if (!buffer.empty() &&
        Clock::now() - last_progress > config_.io_timeout) {
      refuse_frame(*conn, "request line stalled mid-frame");
      break;
    }
    pollfd pfd{conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    char chunk[4096];
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // client hung up
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    last_progress = Clock::now();
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle(conn, line);
    }
    if (buffer.size() > kMaxLineBytes) {
      refuse_frame(*conn, "request line too long");
      break;
    }
  }
}

void Frontend::refuse_frame(Connection& conn, const char* why) {
  hooks_.malformed();
  conn.send_line(error_response(0, kCodeBadRequest, why));
}

// One short-lived connection per scrape, handled serially: a scrape
// every few seconds is the design load, and a stalled scraper can block
// no one but the next scraper.
void Frontend::http_loop() {
  while (!stopping()) {
    pollfd pfd{http_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    int fd = ::accept4(http_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    answer_scrape(fd, stopping_, hooks_.refresh);
    ::close(fd);
  }
}

}  // namespace ocps::serve
