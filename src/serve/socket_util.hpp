// Shared socket plumbing for the serving plane.
//
// The front end shared by the daemon and the router (frontend.cpp) and
// the blocking client (client.cpp) speak the same two transports — a
// Unix domain stream socket or a TCP stream — so the address grammar and
// the bind/connect/write rituals live here once.
//
// Endpoint grammar (one string, used by every CLI flag and config field):
//   "/run/ocps.sock"        a Unix domain socket path
//   "127.0.0.1:7070"        a TCP host:port (numeric IPv4 or "localhost")
//   "localhost:0"           TCP with an ephemeral port (read the bound
//                           port back after listen)
// A spec is TCP iff it contains a ':' whose suffix is all digits; Unix
// socket paths with colons are not supported (they never were).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "util/result.hpp"

namespace ocps::serve {

/// Poll interval bounding how long any serving thread can miss a stop
/// request: every blocking wait is a poll() or wait_for() of at most this.
constexpr int kPollMs = 50;

/// A parsed transport address.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< Unix: socket file path
  std::string host;  ///< TCP: numeric IPv4 or "localhost"
  std::uint16_t port = 0;

  bool is_tcp() const { return kind == Kind::kTcp; }
  /// Human-readable form ("path" or "host:port").
  std::string display() const;
};

/// Parses the endpoint grammar above. kInvalidArgument on an empty spec,
/// an out-of-range port, or an unresolvable TCP host.
Result<Endpoint> parse_endpoint(const std::string& spec);

/// Binds + listens a TCP socket on `host:port`. Port 0 binds an
/// ephemeral port; read it back with bound_tcp_port(). SO_REUSEADDR is
/// set so a restarted daemon can reclaim a port in TIME_WAIT — the chaos
/// harness kills and restarts backends on fixed ports. Returns the fd.
Result<int> listen_tcp(const std::string& host, std::uint16_t port,
                       int backlog);

/// Port a bound TCP socket actually landed on (ephemeral-port readback).
Result<std::uint16_t> bound_tcp_port(int fd);

/// A claimed Unix listening socket plus the flock-held lock file that
/// made the claim race-safe.
struct UnixListener {
  int fd = -1;
  int lock_fd = -1;
};

/// Binds + listens on a Unix socket path with race-safe stale-socket
/// reclaim. The flock on `path + ".lock"` is the mutual-exclusion token:
/// a connect probe alone has a window where two daemons both see a stale
/// socket and both unlink-and-rebind, silently stealing each other's
/// path. Only the lock holder may reclaim; a connectable socket always
/// means a live daemon and yields a clear "address in use by live
/// daemon" kIoError. The kernel drops the flock on any death, so a
/// crashed daemon never wedges the path.
Result<UnixListener> claim_unix_socket(const std::string& path, int backlog);

/// Closes the listener, releases the flock, and removes the socket +
/// lock files. Safe on a default-constructed (or already released)
/// UnixListener.
void release_unix_socket(UnixListener& listener, const std::string& path);

/// Connects to an endpoint with a bounded wait: the socket is put in
/// nonblocking mode, connect(2) is polled until `timeout`, and the fd is
/// returned still nonblocking (callers poll before every read/write
/// anyway). kIoError on refusal, timeout, or resolution failure.
Result<int> connect_endpoint(const Endpoint& ep,
                             std::chrono::milliseconds timeout);

/// Writes all of `data` to a blocking-or-nonblocking fd, retrying EINTR
/// and polling POLLOUT on EAGAIN until `timeout` elapses. Short writes
/// are continued, never treated as errors. Returns false on peer error
/// or timeout.
bool send_all(int fd, const char* data, std::size_t len,
              std::chrono::milliseconds timeout);

}  // namespace ocps::serve
