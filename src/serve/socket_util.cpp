#include "serve/socket_util.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cstring>


namespace ocps::serve {

namespace {

using Clock = std::chrono::steady_clock;

int poll_fd(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  return ::poll(&pfd, 1, timeout_ms);
}

}  // namespace

std::string Endpoint::display() const {
  if (kind == Kind::kUnix) return path;
  return host + ":" + std::to_string(port);
}

Result<Endpoint> parse_endpoint(const std::string& spec) {
  if (spec.empty())
    return Err(ErrorCode::kInvalidArgument, "empty endpoint");
  Endpoint ep;
  std::size_t colon = spec.rfind(':');
  bool tcp = colon != std::string::npos && colon > 0 &&
             colon + 1 < spec.size();
  if (tcp)
    for (std::size_t i = colon + 1; i < spec.size(); ++i)
      if (!std::isdigit(static_cast<unsigned char>(spec[i]))) {
        tcp = false;
        break;
      }
  if (!tcp) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec;
    return Ok(std::move(ep));
  }
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = spec.substr(0, colon);
  unsigned long port = std::strtoul(spec.c_str() + colon + 1, nullptr, 10);
  if (port > 65535)
    return Err(ErrorCode::kInvalidArgument,
               "port out of range in endpoint: " + spec);
  ep.port = static_cast<std::uint16_t>(port);
  in_addr probe{};
  std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (::inet_pton(AF_INET, host.c_str(), &probe) != 1)
    return Err(ErrorCode::kInvalidArgument,
               "endpoint host must be a numeric IPv4 address or "
               "\"localhost\": " +
                   spec);
  return Ok(std::move(ep));
}

namespace {

Result<sockaddr_in> tcp_sockaddr(const std::string& host,
                                 std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1)
    return Err(ErrorCode::kInvalidArgument,
               "cannot resolve host \"" + host +
                   "\" (numeric IPv4 or \"localhost\" only)");
  return Ok(std::move(addr));
}

}  // namespace

Result<int> listen_tcp(const std::string& host, std::uint16_t port,
                       int backlog) {
  Result<sockaddr_in> addr = tcp_sockaddr(host, port);
  if (!addr.ok()) return addr.error();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0)
    return Err(ErrorCode::kIoError,
               std::string("socket(): ") + std::strerror(errno));
  // A killed-and-restarted daemon must be able to rebind its port while
  // the old connections sit in TIME_WAIT — that restart is exactly what
  // the chaos harness exercises.
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr.value()),
             sizeof(addr.value())) != 0) {
    int err = errno;
    ::close(fd);
    return Err(ErrorCode::kIoError,
               "bind(" + host + ":" + std::to_string(port) +
                   "): " + std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    int err = errno;
    ::close(fd);
    return Err(ErrorCode::kIoError,
               std::string("listen(): ") + std::strerror(err));
  }
  return Ok(std::move(fd));
}

Result<UnixListener> claim_unix_socket(const std::string& path,
                                       int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    return Err(ErrorCode::kInvalidArgument, "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  UnixListener out;
  std::string lock_path = path + ".lock";
  out.lock_fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0600);
  if (out.lock_fd < 0)
    return Err(ErrorCode::kIoError,
               "open(" + lock_path + "): " + std::strerror(errno));
  if (::flock(out.lock_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(out.lock_fd);
    return Err(ErrorCode::kIoError,
               path + " is in use by a live daemon (lock file held)");
  }

  // Never unlink the live daemon's socket or the lock another process
  // may be about to inherit: only release what this claim created.
  auto fail = [&](const std::string& msg,
                  bool unlink_socket) -> Result<UnixListener> {
    if (out.fd >= 0) ::close(out.fd);
    if (unlink_socket) ::unlink(path.c_str());
    ::unlink(lock_path.c_str());
    ::close(out.lock_fd);
    return Err(ErrorCode::kIoError, msg);
  };

  out.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (out.fd < 0)
    return fail(std::string("socket(): ") + std::strerror(errno), false);

  if (::bind(out.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EADDRINUSE)
      return fail("bind(" + path + "): " + std::strerror(errno), false);
    // The path exists and we hold the lock. A connectable socket means a
    // live daemon (possibly from before the lock file existed); refuse
    // to fight it. Connection-refused means a stale file from a crashed
    // daemon: remove it and claim the path — safe, since no other
    // starter holds the flock and can be mid-reclaim here.
    int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    bool live = probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0;
    if (probe >= 0) ::close(probe);
    if (live) return fail("address in use by live daemon: " + path, false);
    ::unlink(path.c_str());
    if (::bind(out.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0)
      return fail("bind(" + path + "): " + std::strerror(errno), false);
  }

  if (::listen(out.fd, backlog) != 0)
    return fail(std::string("listen(): ") + std::strerror(errno), true);
  return Ok(std::move(out));
}

void release_unix_socket(UnixListener& listener, const std::string& path) {
  if (listener.fd >= 0) {
    ::close(listener.fd);
    listener.fd = -1;
    ::unlink(path.c_str());
  }
  if (listener.lock_fd >= 0) {
    ::unlink((path + ".lock").c_str());
    ::close(listener.lock_fd);  // close releases the flock
    listener.lock_fd = -1;
  }
}

Result<std::uint16_t> bound_tcp_port(int fd) {
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    return Err(ErrorCode::kIoError,
               std::string("getsockname(): ") + std::strerror(errno));
  return Ok(static_cast<std::uint16_t>(ntohs(bound.sin_port)));
}

Result<int> connect_endpoint(const Endpoint& ep,
                             std::chrono::milliseconds timeout) {
  int fd = -1;
  sockaddr_storage storage{};
  socklen_t addr_len = 0;
  if (ep.kind == Endpoint::Kind::kUnix) {
    auto* addr = reinterpret_cast<sockaddr_un*>(&storage);
    addr->sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr->sun_path))
      return Err(ErrorCode::kInvalidArgument,
                 "socket path too long: " + ep.path);
    std::memcpy(addr->sun_path, ep.path.c_str(), ep.path.size() + 1);
    addr_len = sizeof(sockaddr_un);
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  } else {
    Result<sockaddr_in> addr = tcp_sockaddr(ep.host, ep.port);
    if (!addr.ok()) return addr.error();
    std::memcpy(&storage, &addr.value(), sizeof(addr.value()));
    addr_len = sizeof(sockaddr_in);
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  }
  if (fd < 0)
    return Err(ErrorCode::kIoError,
               std::string("socket(): ") + std::strerror(errno));

  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&storage), addr_len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    int err = errno;
    ::close(fd);
    return Err(ErrorCode::kIoError,
               "connect(" + ep.display() + "): " + std::strerror(err));
  }
  if (rc != 0) {
    // In-progress TCP connect: wait for writability, bounded.
    Clock::time_point deadline = Clock::now() + timeout;
    for (;;) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        ::close(fd);
        return Err(ErrorCode::kIoError,
                   "connect(" + ep.display() + "): timed out");
      }
      int ready = poll_fd(
          fd, POLLOUT,
          static_cast<int>(std::min<long long>(left.count(), kPollMs)));
      if (ready < 0 && errno != EINTR) {
        int err = errno;
        ::close(fd);
        return Err(ErrorCode::kIoError,
                   std::string("poll(): ") + std::strerror(err));
      }
      if (ready > 0) break;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      ::close(fd);
      return Err(ErrorCode::kIoError,
                 "connect(" + ep.display() +
                     "): " + std::strerror(err != 0 ? err : errno));
    }
  }
  return Ok(std::move(fd));
}

bool send_all(int fd, const char* data, std::size_t len,
              std::chrono::milliseconds timeout) {
  Clock::time_point deadline = Clock::now() + timeout;
  std::size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Short write against a slow peer: wait for the buffer to drain,
      // but never forever — a stalled reader must not wedge a writer.
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      int ready = poll_fd(
          fd, POLLOUT,
          static_cast<int>(std::min<long long>(left.count(), kPollMs)));
      if (ready < 0 && errno != EINTR) return false;
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace ocps::serve
