// Blocking client for the partition-service daemon.
//
// One connection, synchronous request/response: call() writes a single
// request line and blocks until the matching response line arrives (the
// daemon may answer a batch out of order across *connections*, but each
// call here waits for exactly one line, and the Request helpers stamp an
// id so callers can still sanity-check the echo). This is deliberately
// the simplest correct client — it backs the `ocps query` subcommand,
// the integration tests, and bench_serve's closed-loop workers; anything
// fancier (pipelining, multiplexing) belongs to callers speaking the
// protocol directly.
//
// Resilience layer (call_with_retry): bounded retries with exponential
// backoff + full jitter, applied only to idempotent ops and only to
// failures that plausibly clear on a second try (transport errors, 429
// shed, 503 unavailable, 504 timeout). The request deadline is the
// retry budget — when it runs out the caller gets an explicit 504, never
// a silent extra attempt past its own deadline. The decision loop is the
// pure function run_with_retry so tests drive it with a fake clock and
// scripted failures; the Client method plugs in the real socket, real
// sleep, and reconnect-on-transport-error.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "serve/protocol.hpp"
#include "util/result.hpp"

namespace ocps::serve {

/// Retry knobs for call_with_retry (CLI flags of `ocps query` map onto
/// these). Defaults suit a local fleet: 3 tries, 10ms..500ms backoff.
struct RetryPolicy {
  int max_attempts = 3;  ///< total tries including the first (>= 1)
  std::chrono::milliseconds base_delay{10};  ///< backoff before attempt 2
  std::chrono::milliseconds max_delay{500};  ///< backoff growth cap
  std::uint64_t seed = 0xB0FF;  ///< jitter schedule seed (deterministic)
};

/// Full-jitter backoff before attempt `attempt + 1` (attempt counts the
/// tries already made, so the first retry passes 1): uniform in
/// [0, min(max_delay, base_delay * 2^(attempt-1))], a pure function of
/// (seed, attempt, salt). `salt` decorrelates concurrent retriers (the
/// router salts with the request id) so a shed burst does not come back
/// as a synchronized thundering herd.
std::chrono::milliseconds backoff_delay(const RetryPolicy& policy,
                                        int attempt, std::uint64_t salt = 0);

/// Whether an op may be retried at all. Everything the daemon serves is
/// a pure read except `reload`, which swaps state — a reload whose
/// response was lost may have been applied, so it is never retried.
bool retryable_op(Op op);

/// Whether a response code is worth a second try: 429 (shed), 503
/// (unavailable/draining), 504 (deadline) clear when load drops or a
/// replica recovers; 400/404/422/500 are definitive and relayed as-is.
bool retryable_code(int code);

/// What the retry loop actually did, for telemetry and tests.
struct RetryStats {
  int attempts = 0;  ///< attempt_fn invocations
  std::chrono::milliseconds backoff_total{0};
};

/// The retry decision loop, time- and transport-free. Calls
/// `attempt_fn(attempt)` up to policy.max_attempts times, sleeping
/// `backoff_delay` between tries via `sleep_fn`, reading time from
/// `now_fn`. `budget` of zero means no deadline; otherwise the budget
/// starts at the first now_fn() call and its exhaustion yields an
/// explicit 504 response (ok() Result, Response.ok == false). A
/// non-retryable op or code returns the failure unchanged; exhausted
/// attempts return the last failure unchanged (a transport Err stays an
/// Err so callers can distinguish "daemon said no" from "no daemon").
Result<Response> run_with_retry(
    Op op, std::int64_t id, const RetryPolicy& policy,
    std::chrono::milliseconds budget,
    const std::function<Result<Response>(int attempt)>& attempt_fn,
    const std::function<void(std::chrono::milliseconds)>& sleep_fn,
    const std::function<std::chrono::steady_clock::time_point()>& now_fn,
    RetryStats* stats = nullptr);

class Client {
 public:
  /// Connects to a daemon endpoint — a Unix socket path or "host:port"
  /// (socket_util.hpp grammar) — within `connect_timeout`. kIoError when
  /// nothing is listening or the connect times out.
  static Result<Client> connect(const std::string& endpoint,
                                std::chrono::milliseconds connect_timeout =
                                    std::chrono::milliseconds(5000));

  Client() = default;  ///< disconnected; call() fails with kIoError
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  const std::string& endpoint() const { return endpoint_; }

  /// Sends one raw request line (no trailing newline) and blocks until
  /// one response line arrives or `timeout` passes (kIoError). The
  /// response is decoded but NOT interpreted: a shed/deadline/error
  /// reply is an ok() Result whose Response has ok == false. When the
  /// send fails, a complete line the peer sent before closing (such as
  /// a connection-cap 503) is still returned; otherwise kIoError.
  Result<Response> call(const std::string& request_line,
                        std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(30000));

  /// Serializes and sends a request object.
  Result<Response> call(const json::Value& request,
                        std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(30000));

  /// Literal overload: without it a `call("{...}")` would be ambiguous
  /// between the string and json::Value overloads (Value converts from
  /// const char*).
  Result<Response> call(const char* request_line,
                        std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(30000)) {
    return call(std::string(request_line), timeout);
  }

  /// call() wrapped in run_with_retry: req.deadline_ms is the retry
  /// budget (0 = none), a transport failure drops the connection and the
  /// next attempt reconnects to the same endpoint, and the jitter salt
  /// is req.id. Non-idempotent ops (`reload`) get exactly one attempt.
  Result<Response> call_with_retry(const Request& req,
                                   const RetryPolicy& policy = {},
                                   RetryStats* stats = nullptr);

 private:
  Client(int fd, std::string endpoint)
      : fd_(fd), endpoint_(std::move(endpoint)) {}

  void disconnect();

  int fd_ = -1;
  std::string endpoint_;  ///< for reconnect-on-retry; empty when default
  std::string buffer_;    ///< bytes read past the last returned line
};

}  // namespace ocps::serve
