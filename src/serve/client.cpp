#include "serve/client.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "serve/socket_util.hpp"
#include "util/rng.hpp"

namespace ocps::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9E3779B97F4A7C15ULL);
  return splitmix64(state);
}

// Moves the first complete line of `buffer` (without its newline) into
// `line`; false when no newline has arrived yet.
bool pop_line(std::string& buffer, std::string& line) {
  const std::size_t pos = buffer.find('\n');
  if (pos == std::string::npos) return false;
  line = buffer.substr(0, pos);
  buffer.erase(0, pos + 1);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Retry policy (pure functions; the Client method wires in the socket).

std::chrono::milliseconds backoff_delay(const RetryPolicy& policy,
                                        int attempt, std::uint64_t salt) {
  if (attempt <= 0) return std::chrono::milliseconds(0);
  // Ceiling: base * 2^(attempt-1), clamped to max_delay without
  // overflowing (attempt is caller-bounded but shifts are not).
  long long ceiling = policy.base_delay.count();
  for (int i = 1; i < attempt && ceiling < policy.max_delay.count(); ++i)
    ceiling *= 2;
  ceiling = std::min<long long>(ceiling, policy.max_delay.count());
  if (ceiling <= 0) return std::chrono::milliseconds(0);
  // Full jitter: uniform in [0, ceiling], deterministic per
  // (seed, attempt, salt) so tests can assert exact schedules.
  std::uint64_t h =
      mix(mix(policy.seed, static_cast<std::uint64_t>(attempt)), salt);
  return std::chrono::milliseconds(
      static_cast<long long>(h % (static_cast<std::uint64_t>(ceiling) + 1)));
}

bool retryable_op(Op op) { return op != Op::kReload; }

bool retryable_code(int code) {
  return code == kCodeQueueFull || code == kCodeShuttingDown ||
         code == kCodeDeadlineExceeded;
}

Result<Response> run_with_retry(
    Op op, std::int64_t id, const RetryPolicy& policy,
    std::chrono::milliseconds budget,
    const std::function<Result<Response>(int attempt)>& attempt_fn,
    const std::function<void(std::chrono::milliseconds)>& sleep_fn,
    const std::function<Clock::time_point()>& now_fn,
    RetryStats* stats) {
  const int attempts = std::max(1, policy.max_attempts);
  const bool bounded = budget.count() > 0;
  const Clock::time_point deadline = now_fn() + budget;

  auto budget_exhausted = [&]() -> Result<Response> {
    Response r;
    r.id = id;
    r.ok = false;
    r.code = kCodeDeadlineExceeded;
    r.error = "retry budget exhausted";
    return Ok(std::move(r));
  };

  Result<Response> last = Err(ErrorCode::kIoError, "no attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (bounded && now_fn() >= deadline) return budget_exhausted();
    if (stats) ++stats->attempts;
    last = attempt_fn(attempt);
    if (last.ok() && last.value().ok) return last;
    // Definitive failures are relayed unchanged: a 400/404/422/500 will
    // not improve on a second try, and `reload` must never get one —
    // a lost response may mean the swap already happened.
    if (!retryable_op(op)) return last;
    if (last.ok() && !retryable_code(last.value().code)) return last;
    if (attempt + 1 >= attempts) break;
    std::chrono::milliseconds delay = backoff_delay(
        policy, attempt + 1, static_cast<std::uint64_t>(id));
    if (bounded) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now_fn());
      if (left.count() <= 0) return budget_exhausted();
      delay = std::min(delay, left);
    }
    if (delay.count() > 0) {
      sleep_fn(delay);
      if (stats) stats->backoff_total += delay;
    }
  }
  return last;
}

// ---------------------------------------------------------------------------
// The blocking client.

Result<Client> Client::connect(const std::string& endpoint,
                               std::chrono::milliseconds connect_timeout) {
  Result<Endpoint> ep = parse_endpoint(endpoint);
  if (!ep.ok()) return ep.error();
  Result<int> fd = connect_endpoint(ep.value(), connect_timeout);
  if (!fd.ok()) return fd.error();
  return Ok(Client(fd.value(), endpoint));
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::move(other.endpoint_)),
      buffer_(std::move(other.buffer_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::move(other.endpoint_);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

Result<Response> Client::call(const std::string& request_line,
                              std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Err(ErrorCode::kIoError, "client is not connected");

  // The fd is nonblocking (connect_endpoint leaves it that way):
  // send_all retries EINTR, polls out EAGAIN, and continues short
  // writes — all bounded by the call timeout.
  std::string line = request_line;
  line.push_back('\n');
  std::string response;
  if (!send_all(fd_, line.data(), line.size(), timeout)) {
    // A peer that refuses the connection (the front end's in-band 503 at
    // its connection cap) answers and closes without reading, so the
    // send can fail with that answer already queued here. Take what has
    // arrived, without waiting, before calling the connection lost.
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    if (pop_line(buffer_, response)) return parse_response(response);
    return Err(ErrorCode::kIoError, "send(): connection lost or timed out");
  }

  const auto deadline = Clock::now() + timeout;
  for (;;) {
    if (pop_line(buffer_, response)) return parse_response(response);
    auto now = Clock::now();
    if (now >= deadline)
      return Err(ErrorCode::kIoError, "timed out waiting for response");
    auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                                    1, wait.count())));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Err(ErrorCode::kIoError,
                 std::string("poll(): ") + std::strerror(errno));
    }
    if (ready == 0) continue;  // loop re-checks the deadline
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0)
      return Err(ErrorCode::kIoError, "daemon closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Err(ErrorCode::kIoError,
                 std::string("recv(): ") + std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Result<Response> Client::call(const json::Value& request,
                              std::chrono::milliseconds timeout) {
  return call(request.dump(), timeout);
}

Result<Response> Client::call_with_retry(const Request& req,
                                         const RetryPolicy& policy,
                                         RetryStats* stats) {
  if (!(req.deadline_ms >= 0.0 && req.deadline_ms <= kMaxDeadlineMs))
    return Err(ErrorCode::kInvalidArgument,
               "deadline_ms must be a number in [0, 2^31 - 1]");
  const std::string line = encode_request(req);
  const std::chrono::milliseconds budget(
      static_cast<long long>(req.deadline_ms));
  const Clock::time_point deadline = Clock::now() + budget;

  auto attempt = [&](int) -> Result<Response> {
    // Per-attempt timeout: whatever is left of the budget, or a generous
    // default when the request carries no deadline.
    std::chrono::milliseconds per_call(30000);
    if (budget.count() > 0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      per_call = std::max(std::chrono::milliseconds(1), left);
    }
    if (fd_ < 0) {
      if (endpoint_.empty())
        return Err(ErrorCode::kIoError, "client is not connected");
      Result<Client> fresh = Client::connect(endpoint_, per_call);
      if (!fresh.ok()) return fresh.error();
      *this = std::move(fresh.value());
    }
    Result<Response> r = call(line, per_call);
    // A transport failure poisons the stream (a response could still be
    // in flight and would mis-pair with the next request): reconnect on
    // the next attempt instead.
    if (!r.ok()) disconnect();
    return r;
  };

  return run_with_retry(
      req.op, req.id, policy, budget, attempt,
      [](std::chrono::milliseconds d) { std::this_thread::sleep_for(d); },
      [] { return Clock::now(); }, stats);
}

}  // namespace ocps::serve
