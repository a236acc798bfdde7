// The socket front end shared by the daemon (`ocps serve`) and the
// router (`ocps router`): everything between a listening socket and one
// request line.
//   * Listeners: the flock-guarded Unix socket, the optional TCP listener
//     and the optional loopback Prometheus listener.
//   * Admission: one accept thread; a connection over `max_connections`
//     gets an in-band 503; the chaos injector may fail an accept.
//   * Framing: one reader thread per connection; CR is stripped, blank
//     lines skipped, and a line over 1 MiB or a partial line that stops
//     growing for `io_timeout` is answered 400 and the connection dropped.
//   * Reaping: the accept thread joins the readers of closed connections,
//     so a long run of one-shot clients does not pile up thread stacks.
// Owners plug in a per-connection line handler, a hook for the frames
// the reader refused, and the scrape-time gauge refresh (Hooks).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/socket_util.hpp"
#include "util/result.hpp"

namespace ocps {
class NetFaultInjector;  // runtime/fault_injection.hpp
}

namespace ocps::serve {

/// The listener and connection knobs of ServeConfig and RouterConfig
/// (CLI flags of `ocps serve` and `ocps router`). At least one of
/// socket_path and listen_address is required.
struct FrontendConfig {
  std::string socket_path;  ///< Unix listener ("" = off)
  /// TCP listener as "host:port" (numeric IPv4 or "localhost"; port 0 =
  /// ephemeral, read back via bound_listen_port()). "" = off.
  std::string listen_address;
  /// Prometheus exposition over HTTP on 127.0.0.1: 0 = no listener, a
  /// positive value binds that port, -1 an ephemeral one (read back via
  /// bound_metrics_port()).
  int metrics_port = 0;
  /// Hard cap on concurrently connected clients (both transports).
  /// Connection 257 is accepted and immediately told 503 — an explicit
  /// refusal beats a kernel backlog timeout.
  std::size_t max_connections = 256;
  /// Per-connection I/O bound: a response write that cannot make
  /// progress for this long marks the connection broken, and a partial
  /// request line that stops growing for this long is answered 400 and
  /// the connection dropped. Slow peers must not pin threads.
  std::chrono::milliseconds io_timeout{5000};
  /// Chaos seam: when set, consulted on every accept and every response
  /// write (see runtime/fault_injection.hpp). Must outlive its user;
  /// production runs leave it null.
  const NetFaultInjector* net_faults = nullptr;
};

/// One accepted request connection. Its reader and any thread answering
/// for it (the daemon's batching thread) write through send_line.
struct Connection {
  Connection(int fd, std::chrono::milliseconds io_timeout,
             const NetFaultInjector* faults)
      : fd(fd), io_timeout(io_timeout), faults(faults) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Appends the newline and writes the whole line within io_timeout,
  /// applying the injector's write faults. A failed or faulted write
  /// marks the connection broken: a later line would interleave into the
  /// half-written one, so every further send_line fails and the reader
  /// hangs up.
  bool send_line(std::string line);

  const int fd;  ///< nonblocking; closed by the destructor
  const std::chrono::milliseconds io_timeout;
  const NetFaultInjector* const faults;  ///< chaos seam (may be null)
  std::atomic<bool> broken{false};

 private:
  std::mutex write_mutex_;
};

class Frontend {
 public:
  /// Handles one request line (CR stripped, never empty) on the reader
  /// thread of `conn`.
  using LineHandler =
      std::function<void(const std::shared_ptr<Connection>& conn,
                         const std::string& line)>;

  struct Hooks {
    /// Called on each admitted connection's reader thread; the handler it
    /// returns lives as long as the connection, so it may own
    /// per-connection state.
    std::function<LineHandler()> open;
    /// The reader answered a frame 400 (oversized or stalled line).
    std::function<void()> malformed;
    /// Runs before every HTTP scrape so derived gauges are current.
    std::function<void()> refresh;
  };

  /// Connection-limit refusals count on `conn_limit_metric`. Throws
  /// CheckError when no listener is configured or a knob is out of range.
  Frontend(FrontendConfig config, std::string conn_limit_metric,
           Hooks hooks);
  ~Frontend();  ///< stop()
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Claims every configured listener and starts the accept (and HTTP)
  /// threads. On error nothing stays claimed.
  Result<bool> start();

  /// Async-signal-safe: only stores an atomic. Front-end threads notice
  /// within kPollMs.
  void request_stop() noexcept { stopping_.store(true); }
  bool stopping() const { return stopping_.load(); }
  void wait_until_stop_requested() const;

  /// The first two phases of an owner's drain: stop accepting (join the
  /// accept and HTTP threads, release the listeners), then join every
  /// reader, each of which finishes the line it is handling. Idempotent.
  void stop();

  int bound_listen_port() const { return tcp_port_.load(); }
  int bound_metrics_port() const { return http_port_.load(); }

 private:
  struct Reader {
    std::thread thread;
    std::atomic<bool> done{false};  ///< the thread's last use of *this
  };

  Result<bool> claim_listeners();
  void release_listeners();
  void accept_loop();
  void admit(int fd);
  void read_loop(const std::shared_ptr<Connection>& conn);
  void refuse_frame(Connection& conn, const char* why);
  void http_loop();

  const FrontendConfig config_;
  const std::string conn_limit_metric_;
  const Hooks hooks_;
  std::atomic<bool> stopping_{false};

  UnixListener unix_;
  int tcp_fd_ = -1;
  std::atomic<int> tcp_port_{0};
  int http_fd_ = -1;
  std::atomic<int> http_port_{0};

  std::mutex readers_mutex_;
  std::list<Reader> readers_;  ///< live readers and unjoined finished ones

  std::thread accept_thread_;
  std::thread http_thread_;
};

}  // namespace ocps::serve
