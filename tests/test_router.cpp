// Resilience-layer tests: the pieces the chaos harness relies on, each
// driven deterministically — the consistent-hash ring, the circuit
// breaker on a fake timeline, the retry/backoff engine with scripted
// failures and an injected clock, the socket-layer fault injector's
// seeded schedule, the endpoint grammar and race-safe Unix socket
// claim, and finally a real Router in front of real Servers covering
// placement, failover, breaker ejection/recovery, reload fan-out, and
// the router's locally answered health/metrics ops.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "locality/footprint_io.hpp"
#include "obs/obs.hpp"
#include "runtime/fault_injection.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/socket_util.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"

namespace ocps::serve {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCapacity = 64;

std::vector<ProgramModel> make_models(std::size_t count = 4) {
  std::vector<ProgramModel> models;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < count; ++i) {
    Trace t;
    switch (i % 4) {
      case 0: t = make_cyclic(n, 20 + 7 * i); break;
      case 1: t = make_zipf(n, 50 + 13 * i, 0.8, 100 + i); break;
      case 2: t = make_hot_cold(n, 4 + i, 40 + 9 * i, 0.85, 200 + i); break;
      default: t = make_sawtooth(n, 16 + 5 * i); break;
    }
    models.push_back(make_program_model("prog" + std::to_string(i),
                                        0.5 + 0.25 * i, compute_footprint(t),
                                        kCapacity));
  }
  return models;
}

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> seq{0};
  return "/tmp/ocps_rtest_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(seq.fetch_add(1)) + ".sock";
}

std::string partition_line(std::int64_t id, double deadline_ms = 0.0) {
  Request req;
  req.id = id;
  req.op = Op::kPartition;
  req.programs = {"prog0", "prog1"};
  req.deadline_ms = deadline_ms;
  return encode_request(req);
}

/// Spins until `pred` holds or `budget` elapses; returns the final value.
bool wait_for(const std::function<bool()>& pred,
              milliseconds budget = milliseconds(5000)) {
  Clock::time_point deadline = Clock::now() + budget;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return pred();
}

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_metrics();
  }
  void TearDown() override { obs::set_enabled(true); }
};

// ---------------------------------------------------------------------------
// Endpoint grammar + Unix socket claim.

TEST_F(RouterTest, EndpointGrammar) {
  Result<Endpoint> unix_ep = parse_endpoint("/tmp/some.sock");
  ASSERT_TRUE(unix_ep.ok());
  EXPECT_FALSE(unix_ep.value().is_tcp());
  EXPECT_EQ(unix_ep.value().path, "/tmp/some.sock");

  Result<Endpoint> tcp = parse_endpoint("127.0.0.1:7070");
  ASSERT_TRUE(tcp.ok());
  EXPECT_TRUE(tcp.value().is_tcp());
  EXPECT_EQ(tcp.value().host, "127.0.0.1");
  EXPECT_EQ(tcp.value().port, 7070);

  Result<Endpoint> local = parse_endpoint("localhost:0");
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(local.value().is_tcp());
  EXPECT_EQ(local.value().port, 0);

  EXPECT_FALSE(parse_endpoint("").ok());
  EXPECT_FALSE(parse_endpoint("127.0.0.1:99999").ok());
  // A colon without an all-digit suffix is a Unix path, not TCP.
  Result<Endpoint> odd = parse_endpoint("/tmp/with:colon");
  ASSERT_TRUE(odd.ok());
  EXPECT_FALSE(odd.value().is_tcp());
}

TEST_F(RouterTest, UnixClaimGuardsLiveDaemonAndReclaimsStale) {
  std::string path = unique_socket_path("claim");

  Result<UnixListener> first = claim_unix_socket(path, 8);
  ASSERT_TRUE(first.ok());

  // A second claim while the first holder is alive must refuse with a
  // clear error and must NOT unlink the live socket.
  Result<UnixListener> second = claim_unix_socket(path, 8);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.error().message.find("in use"), std::string::npos)
      << second.error().message;
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);

  // Simulate a crash: close the fds without unlinking. The kernel drops
  // the flock, the socket file goes stale, and the next claim reclaims.
  ::close(first.value().fd);
  ::close(first.value().lock_fd);
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);  // stale file left behind
  Result<UnixListener> third = claim_unix_socket(path, 8);
  ASSERT_TRUE(third.ok());
  UnixListener l = third.value();
  release_unix_socket(l, path);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // cleanly removed
}

// ---------------------------------------------------------------------------
// Consistent-hash ring.

TEST_F(RouterTest, HashRingOrderIsDeterministicAndComplete) {
  HashRing ring(5);
  HashRing twin(5);
  for (int k = 0; k < 50; ++k) {
    std::string key = "tenant-" + std::to_string(k);
    std::vector<std::size_t> order = ring.order_for(key);
    // A permutation of all backends: failover always has somewhere to go.
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 5u);
    // Deterministic across instances (two routers agree on placement).
    EXPECT_EQ(order, twin.order_for(key));
    EXPECT_EQ(order.front(), ring.primary_for(key));
  }
}

TEST_F(RouterTest, HashRingSpreadsKeys) {
  HashRing ring(3);
  std::vector<int> hits(3, 0);
  for (int k = 0; k < 3000; ++k)
    hits[ring.primary_for("key-" + std::to_string(k))]++;
  for (int h : hits) {
    EXPECT_GT(h, 3000 / 10) << "a backend got <10% of the key space";
    EXPECT_LT(h, 3000 * 6 / 10) << "a backend got >60% of the key space";
  }
}

TEST_F(RouterTest, HashRingGrowthRemapsOnlyAFraction) {
  HashRing small(4);
  HashRing grown(5);
  int moved = 0;
  const int kKeys = 2000;
  for (int k = 0; k < kKeys; ++k) {
    std::string key = "key-" + std::to_string(k);
    if (small.primary_for(key) != grown.primary_for(key)) ++moved;
  }
  // Consistent hashing moves ~1/5 of keys when growing 4 -> 5; modulo
  // hashing would move ~4/5. Generous bound to stay vnode-layout-proof.
  EXPECT_LT(moved, kKeys * 45 / 100) << "growth remapped like mod-N hashing";
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------------
// Circuit breaker on a fake timeline.

TEST_F(RouterTest, BreakerOpensAfterConsecutiveFailuresAndRecovers) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown = milliseconds(100);
  cfg.probe_successes = 1;
  CircuitBreaker b(cfg);
  Clock::time_point t0 = Clock::now();

  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow(t0));
  b.record_failure(t0);
  b.record_failure(t0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);  // 2 < threshold
  b.record_failure(t0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);

  // Open: nothing admitted until the cooldown has fully passed.
  EXPECT_FALSE(b.allow(t0));
  EXPECT_FALSE(b.allow(t0 + milliseconds(99)));

  // Cooled down: exactly one probe is admitted, the second caller is not.
  EXPECT_TRUE(b.allow(t0 + milliseconds(100)));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(b.allow(t0 + milliseconds(100)));

  // Probe succeeds: closed again, traffic flows.
  b.record_success(t0 + milliseconds(101));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow(t0 + milliseconds(101)));
}

TEST_F(RouterTest, BreakerProbeFailureRestartsCooldown) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown = milliseconds(100);
  CircuitBreaker b(cfg);
  Clock::time_point t0 = Clock::now();

  b.record_failure(t0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  ASSERT_TRUE(b.allow(t0 + milliseconds(100)));  // the probe
  b.record_failure(t0 + milliseconds(110));      // probe failed
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  // The cooldown restarted at the probe failure, not the original trip.
  EXPECT_FALSE(b.allow(t0 + milliseconds(205)));
  EXPECT_TRUE(b.allow(t0 + milliseconds(210)));
}

TEST_F(RouterTest, BreakerRequiresConfiguredProbeSuccesses) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown = milliseconds(10);
  cfg.probe_successes = 2;
  CircuitBreaker b(cfg);
  Clock::time_point t0 = Clock::now();

  b.record_failure(t0);
  ASSERT_TRUE(b.allow(t0 + milliseconds(10)));
  b.record_success(t0 + milliseconds(11));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);  // 1 of 2
  ASSERT_TRUE(b.allow(t0 + milliseconds(12)));  // next probe admitted
  b.record_success(t0 + milliseconds(13));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

TEST_F(RouterTest, BreakerSuccessResetsFailureStreak) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  CircuitBreaker b(cfg);
  Clock::time_point t0 = Clock::now();
  b.record_failure(t0);
  b.record_failure(t0);
  b.record_success(t0);  // streak broken
  b.record_failure(t0);
  b.record_failure(t0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  b.record_failure(t0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
}

// ---------------------------------------------------------------------------
// Backoff + retry engine (fake clock, scripted failures).

TEST_F(RouterTest, BackoffDelayIsJitteredBoundedDeterministic) {
  RetryPolicy policy;
  policy.base_delay = milliseconds(10);
  policy.max_delay = milliseconds(200);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    milliseconds ceiling = policy.base_delay;
    for (int i = 1; i < attempt && ceiling < policy.max_delay; ++i)
      ceiling *= 2;
    ceiling = std::min(ceiling, policy.max_delay);
    milliseconds d = backoff_delay(policy, attempt, /*salt=*/7);
    EXPECT_GE(d.count(), 0);
    EXPECT_LE(d.count(), ceiling.count()) << "attempt " << attempt;
    // Pure function of (seed, attempt, salt).
    EXPECT_EQ(d, backoff_delay(policy, attempt, 7));
  }
  EXPECT_EQ(backoff_delay(policy, 0).count(), 0);

  // Different salts decorrelate the schedules (no thundering herd):
  // across several attempts at least one delay must differ.
  bool differs = false;
  for (int attempt = 1; attempt <= 8 && !differs; ++attempt)
    differs = backoff_delay(policy, attempt, 1) !=
              backoff_delay(policy, attempt, 2);
  EXPECT_TRUE(differs);
}

TEST_F(RouterTest, RetryClassifiers) {
  EXPECT_TRUE(retryable_op(Op::kPartition));
  EXPECT_TRUE(retryable_op(Op::kSweep));
  EXPECT_TRUE(retryable_op(Op::kHealth));
  EXPECT_TRUE(retryable_op(Op::kMetrics));
  EXPECT_TRUE(retryable_op(Op::kSlowlog));
  EXPECT_TRUE(retryable_op(Op::kTrace));
  EXPECT_TRUE(retryable_op(Op::kSlo));
  EXPECT_FALSE(retryable_op(Op::kReload));

  EXPECT_TRUE(retryable_code(kCodeQueueFull));
  EXPECT_TRUE(retryable_code(kCodeShuttingDown));
  EXPECT_TRUE(retryable_code(kCodeDeadlineExceeded));
  EXPECT_FALSE(retryable_code(kCodeBadRequest));
  EXPECT_FALSE(retryable_code(kCodeNotFound));
  EXPECT_FALSE(retryable_code(kCodeUnprocessable));
  EXPECT_FALSE(retryable_code(kCodeInternal));
}

/// A controllable timeline for run_with_retry: sleeps advance it, and
/// each attempt can be given a fixed cost.
struct FakeClock {
  Clock::time_point now = Clock::time_point{} + std::chrono::hours(1);
  std::vector<milliseconds> sleeps;

  std::function<Clock::time_point()> now_fn() {
    return [this] { return now; };
  }
  std::function<void(milliseconds)> sleep_fn() {
    return [this](milliseconds d) {
      sleeps.push_back(d);
      now += d;
    };
  }
};

Response failure(int code) {
  Response r;
  r.ok = false;
  r.code = code;
  r.error = "scripted";
  return r;
}

TEST_F(RouterTest, RetrySucceedsAfterTransportFailures) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  RetryStats stats;
  int calls = 0;
  Result<Response> out = run_with_retry(
      Op::kPartition, /*id=*/9, policy, /*budget=*/milliseconds(0),
      [&](int attempt) -> Result<Response> {
        EXPECT_EQ(attempt, calls);
        ++calls;
        if (calls < 3) return Err(ErrorCode::kIoError, "conn reset");
        Response ok;
        ok.ok = true;
        ok.id = 9;
        return Ok(std::move(ok));
      },
      clock.sleep_fn(), clock.now_fn(), &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().ok);
  EXPECT_EQ(stats.attempts, 3);
  ASSERT_EQ(clock.sleeps.size(), 2u);  // one backoff between each attempt
  milliseconds total(0);
  for (milliseconds d : clock.sleeps) total += d;
  EXPECT_EQ(stats.backoff_total, total);
}

TEST_F(RouterTest, RetryBudgetExhaustionYields504) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.base_delay = milliseconds(20);
  RetryStats stats;
  Result<Response> out = run_with_retry(
      Op::kPartition, 1, policy, /*budget=*/milliseconds(50),
      [&](int) -> Result<Response> {
        clock.now += milliseconds(30);  // each attempt burns 30ms
        return Ok(failure(kCodeShuttingDown));
      },
      clock.sleep_fn(), clock.now_fn(), &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().ok);
  EXPECT_EQ(out.value().code, kCodeDeadlineExceeded);
  EXPECT_LT(stats.attempts, 100);  // stopped by the budget, not the cap
}

TEST_F(RouterTest, RetryNeverRetriesReload) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryStats stats;
  int calls = 0;
  Result<Response> out = run_with_retry(
      Op::kReload, 1, policy, milliseconds(0),
      [&](int) -> Result<Response> {
        ++calls;
        return Ok(failure(kCodeShuttingDown));  // retryable code...
      },
      clock.sleep_fn(), clock.now_fn(), &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().code, kCodeShuttingDown);  // ...returned unchanged
  EXPECT_EQ(calls, 1);  // ...but the op is not idempotent
  EXPECT_TRUE(clock.sleeps.empty());
}

TEST_F(RouterTest, RetryReturnsDefinitiveCodeUnchanged) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Result<Response> out = run_with_retry(
      Op::kPartition, 1, policy, milliseconds(0),
      [&](int) -> Result<Response> {
        ++calls;
        return Ok(failure(kCodeNotFound));
      },
      clock.sleep_fn(), clock.now_fn(), nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().code, kCodeNotFound);
  EXPECT_EQ(calls, 1);
}

TEST_F(RouterTest, RetryExhaustionReturnsLastFailureUnchanged) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryStats stats;
  // Scripted 429s forever: exhaustion hands back the last 429, so the
  // caller knows the daemon is alive but shedding.
  Result<Response> shed = run_with_retry(
      Op::kPartition, 1, policy, milliseconds(0),
      [&](int) { return Ok(failure(kCodeQueueFull)); }, clock.sleep_fn(),
      clock.now_fn(), &stats);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().code, kCodeQueueFull);
  EXPECT_EQ(stats.attempts, 3);

  // Scripted transport errors forever: exhaustion stays an Err, so the
  // caller can distinguish "no daemon" from "daemon said no".
  Result<Response> dead = run_with_retry(
      Op::kPartition, 1, policy, milliseconds(0),
      [&](int) -> Result<Response> {
        return Err(ErrorCode::kIoError, "refused");
      },
      clock.sleep_fn(), clock.now_fn(), nullptr);
  EXPECT_FALSE(dead.ok());
}

// ---------------------------------------------------------------------------
// Socket-layer fault injector.

TEST_F(RouterTest, NetFaultScheduleIsSeededAndDeterministic) {
  NetFaultConfig cfg;
  cfg.accept_fail_rate = 0.3;
  cfg.reset_rate = 0.2;
  cfg.trickle_rate = 0.2;
  cfg.stall_rate = 0.2;
  cfg.seed = 1234;
  NetFaultInjector a(cfg);
  NetFaultInjector b(cfg);
  int accept_failures = 0;
  for (int i = 0; i < 400; ++i) {
    bool fa = a.fail_accept();
    EXPECT_EQ(fa, b.fail_accept()) << "accept draw " << i;
    EXPECT_EQ(a.write_fault(), b.write_fault()) << "write draw " << i;
    if (fa) ++accept_failures;
  }
  EXPECT_EQ(a.injected_accept_failures(),
            static_cast<std::size_t>(accept_failures));
  // ~30% of 400; generous bounds, but zero or all would mean a broken mix.
  EXPECT_GT(accept_failures, 40);
  EXPECT_LT(accept_failures, 360);
  EXPECT_GT(a.injected_total(), a.injected_accept_failures());

  NetFaultConfig other = cfg;
  other.seed = 4321;
  NetFaultInjector c(other);
  bool diverged = false;
  for (int i = 0; i < 400 && !diverged; ++i)
    diverged = c.fail_accept() != b.fail_accept();
  EXPECT_TRUE(diverged) << "different seeds produced identical schedules";
}

TEST_F(RouterTest, NetFaultRateEndpointsAreExact) {
  NetFaultInjector never(NetFaultConfig{});  // all rates 0
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.fail_accept());
    EXPECT_EQ(never.write_fault(), NetFaultInjector::WriteFault::kNone);
  }
  NetFaultInjector always(NetFaultConfig::uniform(1.0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(always.fail_accept());
    // Reset wins the precedence order when every kind fires.
    EXPECT_EQ(always.write_fault(), NetFaultInjector::WriteFault::kReset);
  }
}

// ---------------------------------------------------------------------------
// Router integration: real servers, real sockets.

struct Fleet {
  std::vector<ServeConfig> configs;
  std::vector<std::unique_ptr<Server>> servers;

  explicit Fleet(std::size_t n, const char* tag) {
    for (std::size_t i = 0; i < n; ++i) {
      ServeConfig cfg;
      cfg.socket_path = unique_socket_path(tag);
      cfg.capacity = kCapacity;
      configs.push_back(cfg);
      servers.push_back(std::make_unique<Server>(cfg, make_models()));
    }
  }
  ~Fleet() {
    for (auto& s : servers)
      if (s) {
        s->request_stop();
        s->stop();
      }
  }
  std::vector<std::string> endpoints() const {
    std::vector<std::string> out;
    for (const ServeConfig& c : configs) out.push_back(c.socket_path);
    return out;
  }
  void start_all() {
    for (auto& s : servers) ASSERT_TRUE(s->start().ok());
  }
  void kill(std::size_t i) {
    servers[i]->request_stop();
    servers[i]->stop();
    servers[i].reset();
  }
};

RouterConfig fast_router_config(const Fleet& fleet, const char* tag) {
  RouterConfig cfg;
  cfg.socket_path = unique_socket_path(tag);
  cfg.backends = fleet.endpoints();
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown = milliseconds(200);
  cfg.connect_timeout = milliseconds(500);
  cfg.io_timeout = milliseconds(3000);
  cfg.health_interval = milliseconds(100);
  return cfg;
}

TEST_F(RouterTest, RouterForwardsWithStablePlacement) {
  Fleet fleet(2, "fwd");
  fleet.start_all();
  Router router(fast_router_config(fleet, "fwd_r"));
  ASSERT_TRUE(router.start().ok());

  Result<Client> client = Client::connect(router.config().socket_path);
  ASSERT_TRUE(client.ok());
  for (int i = 1; i <= 6; ++i) {
    Result<Response> resp = client.value().call(partition_line(i));
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_TRUE(resp.value().ok) << resp.value().error;
    EXPECT_EQ(resp.value().id, i) << "relay must preserve the request id";
    const json::Value* alloc = resp.value().body.find("alloc");
    ASSERT_NE(alloc, nullptr);
  }
  // Same profile set -> same backend every time: exactly one backend's
  // request counter moved (health probes hit `health`, which the
  // daemon's serve.requests counter also counts, so compare deltas of
  // answered partitions instead).
  std::size_t answered_on = 0;
  for (auto& s : fleet.servers)
    if (s->counters().answered > 0) ++answered_on;
  EXPECT_EQ(answered_on, 1u) << "one tenant group spread over >1 backend";

  Router::Counters c = router.counters();
  EXPECT_GE(c.requests, 6u);
  EXPECT_GE(c.forwarded, 6u);
  EXPECT_EQ(c.no_backend, 0u);
  router.stop();
}

TEST_F(RouterTest, RouterFailsOverWhenBackendDies) {
  Fleet fleet(2, "fo");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "fo_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.value().call(partition_line(1)).ok());

  // Kill the backend that answered; every request must keep succeeding
  // (failover to the survivor), with zero wrong answers.
  std::size_t victim =
      fleet.servers[0]->counters().answered > 0 ? 0 : 1;
  fleet.kill(victim);
  for (int i = 2; i <= 8; ++i) {
    Result<Response> resp = client.value().call(partition_line(i));
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_TRUE(resp.value().ok) << resp.value().error;
    EXPECT_EQ(resp.value().id, i);
  }
  EXPECT_GE(router.counters().failovers, 1u);

  // The health prober ejects the corpse within a few intervals.
  EXPECT_TRUE(wait_for([&] {
    return router.breaker_state(victim) == CircuitBreaker::State::kOpen;
  })) << "breaker never opened for the dead backend";
  router.stop();
}

TEST_F(RouterTest, RouterRecoversWhenBackendReturns) {
  Fleet fleet(2, "rec");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "rec_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());

  std::size_t victim = 0;
  ServeConfig victim_cfg = fleet.configs[victim];
  fleet.kill(victim);
  ASSERT_TRUE(wait_for([&] {
    return router.breaker_state(victim) == CircuitBreaker::State::kOpen;
  }));

  // Resurrect on the same socket path (exercises stale-claim reclaim),
  // and the breaker must walk open -> half-open probe -> closed.
  fleet.servers[victim] =
      std::make_unique<Server>(victim_cfg, make_models());
  ASSERT_TRUE(fleet.servers[victim]->start().ok());
  EXPECT_TRUE(wait_for([&] {
    return router.breaker_state(victim) == CircuitBreaker::State::kClosed;
  })) << "breaker never re-closed after the backend came back";
  router.stop();
}

TEST_F(RouterTest, RouterAllBackendsDownGives502Then503) {
  // Backends that were never started: connects fail immediately.
  RouterConfig cfg;
  cfg.socket_path = unique_socket_path("down_r");
  cfg.backends = {unique_socket_path("ghost0"), unique_socket_path("ghost1")};
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown = milliseconds(60000);  // stays open for the test
  cfg.connect_timeout = milliseconds(200);
  cfg.health_interval = milliseconds(50);
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());

  // While breakers are still closed the walk tries (and fails) every
  // backend: 502. Once the prober has tripped both breakers: 503.
  Result<Response> early = client.value().call(partition_line(1));
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(early.value().ok);
  EXPECT_TRUE(early.value().code == kCodeBadGateway ||
              early.value().code == kCodeShuttingDown)
      << early.value().code;

  ASSERT_TRUE(wait_for([&] {
    return router.breaker_state(0) == CircuitBreaker::State::kOpen &&
           router.breaker_state(1) == CircuitBreaker::State::kOpen;
  }));
  Result<Response> late = client.value().call(partition_line(2));
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late.value().ok);
  EXPECT_EQ(late.value().code, kCodeShuttingDown);
  Router::Counters c = router.counters();
  EXPECT_GE(c.all_open, 1u);
  router.stop();
}

TEST_F(RouterTest, RouterReloadFansOutToWholeFleet) {
  std::string fp_path = "/tmp/ocps_rtest_reload.fp";
  {
    std::vector<ProgramModel> fresh = make_models(1);
    FootprintFile file;
    file.name = "fresh0";
    file.access_rate = fresh[0].access_rate;
    file.trace_length = fresh[0].trace_length;
    file.distinct = fresh[0].distinct;
    file.footprint = fresh[0].footprint;
    save_footprint_file(file, fp_path);
  }
  Fleet fleet(2, "rl");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "rl_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());

  Request reload;
  reload.id = 1;
  reload.op = Op::kReload;
  reload.paths = {fp_path};
  Result<Response> resp = client.value().call(encode_request(reload));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().ok) << resp.value().error;
  // Both backends swapped to the new (1-program) profile set.
  for (auto& s : fleet.servers) EXPECT_EQ(s->profile_version(), 2u);

  // With one backend down, reload reports partial failure as 502 —
  // never "success" while part of the fleet serves stale profiles.
  fleet.kill(0);
  reload.id = 2;
  Result<Response> partial = client.value().call(encode_request(reload));
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial.value().ok);
  EXPECT_EQ(partial.value().code, kCodeBadGateway);
  std::remove(fp_path.c_str());
  router.stop();
}

TEST_F(RouterTest, RouterAnswersHealthAndMetricsLocally) {
  Fleet fleet(2, "hm");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "hm_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());

  // Eager registration: the full serve.router.* surface exists before
  // any traffic, so the first scrape already carries every series.
  obs::MetricsSnapshot snap = obs::metrics_snapshot();
  for (const char* name :
       {"serve.router.requests", "serve.router.forwarded",
        "serve.router.failovers", "serve.router.no_backend",
        "serve.router.all_open", "serve.router.health_probes",
        "serve.router.conn_limit_rejected"}) {
    bool found = false;
    for (const auto& [n, v] : snap.counters) found = found || n == name;
    EXPECT_TRUE(found) << name << " not registered at startup";
  }

  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());
  Result<Response> health = client.value().call(R"({"id":1,"op":"health"})");
  ASSERT_TRUE(health.ok());
  ASSERT_TRUE(health.value().ok);
  const json::Value* role = health.value().body.find("role");
  ASSERT_NE(role, nullptr);
  const json::Value* rows = health.value().body.find("backends");
  ASSERT_NE(rows, nullptr);

  EXPECT_TRUE(wait_for([&] {
    Result<Response> h = client.value().call(R"({"id":2,"op":"health"})");
    return h.ok() && h.value().ok &&
           h.value().body.get_number("healthy", 0.0) == 2.0;
  })) << "prober never marked both backends up";

  Result<Response> metrics = client.value().call(R"({"id":3,"op":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics.value().ok) << metrics.value().error;
  const json::Value* m = metrics.value().body.find("metrics");
  ASSERT_NE(m, nullptr);
  const json::Value* prom = metrics.value().body.find("prometheus");
  ASSERT_NE(prom, nullptr);
  // Fleet aggregates ingested from backend `health` answers are present.
  const json::Value* gauges = m->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("serve.fleet.requests"), nullptr);
  router.stop();
}

TEST_F(RouterTest, FleetRollupCountsEachBackendOnce) {
  // Both backends share this process and its registry, as perfbench's
  // fleet does: the roll-up sums each backend's own counts, which its
  // `health` answer carries, not its process's, which `metrics` carries.
  Fleet fleet(2, "rollup");
  fleet.start_all();
  Router router(fast_router_config(fleet, "rollup_r"));
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(router.config().socket_path);
  ASSERT_TRUE(client.ok());
  for (int i = 1; i <= 10; ++i) {
    Result<Response> resp = client.value().call(partition_line(i));
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp.value().ok) << resp.value().error;
  }
  // Five probes after the last answer span a whole probe round, and the
  // gauge refresh that follows it, on the final counts.
  const std::uint64_t probes = router.counters().health_probes;
  ASSERT_TRUE(wait_for(
      [&] { return router.counters().health_probes >= probes + 5; }));
  EXPECT_EQ(obs::gauge("serve.fleet.answered").value(), 10.0);
  EXPECT_GE(obs::gauge("serve.fleet.requests").value(), 10.0);
  router.stop();
}

TEST_F(RouterTest, RouterFrontTcpListener) {
  Fleet fleet(1, "tcp");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "tcp_r");
  cfg.socket_path.clear();
  cfg.listen_address = "127.0.0.1:0";
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  ASSERT_GT(router.bound_listen_port(), 0);

  Result<Client> client = Client::connect(
      "127.0.0.1:" + std::to_string(router.bound_listen_port()));
  ASSERT_TRUE(client.ok()) << client.error().message;
  Result<Response> resp = client.value().call(partition_line(1));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().ok) << resp.value().error;
  router.stop();
}

TEST_F(RouterTest, RouterChaosResetCutsFrontAnswers) {
  // The router's front connections take the injector's write faults, as
  // a daemon's do: a reset answer reaches the client as half a line and
  // then EOF, which it must see as a transport error.
  NetFaultConfig chaos;
  chaos.reset_rate = 1.0;
  NetFaultInjector injector(chaos);
  Fleet fleet(1, "rreset");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "rreset_r");
  cfg.net_faults = &injector;
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());
  Result<Response> first = client.value().call(partition_line(1));
  EXPECT_FALSE(first.ok()) << "a cut answer must not read as a response";
  EXPECT_GT(injector.injected_resets(), 0u);
  router.stop();
}

TEST_F(RouterTest, RouterDrainRefusesNewWork) {
  Fleet fleet(1, "drain");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "drain_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());
  router.request_stop();
  Result<Response> resp =
      client.value().call(partition_line(1), milliseconds(1000));
  // Either the reader answered 503 before exiting or the connection is
  // torn down at stop(); both are clean refusals, never a wrong answer.
  if (resp.ok()) {
    EXPECT_FALSE(resp.value().ok);
    EXPECT_EQ(resp.value().code, kCodeShuttingDown);
  }
  router.stop();
}

// ---------------------------------------------------------------------------
// Distributed tracing through the router, per-backend latency series, and
// the router's own SLO engine.

TEST_F(RouterTest, RouterStampsTraceContextOnForwards) {
  obs::clear_trace_events();
  Fleet fleet(1, "trctx");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "trctx_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());

  Request tagged;
  tagged.id = 1;
  tagged.op = Op::kPartition;
  tagged.programs = {"prog0", "prog1"};
  tagged.trace_id = 9001;
  Result<Response> resp = client.value().call(encode_request(tagged));
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp.value().ok) << resp.value().error;

  // Router and backends share this process's obs rings, so the whole
  // cross-tier span tree is visible here: the router's forward span, the
  // backend's hop marker (hop > 0, arg = the router's span nonce), and
  // the backend's solve — all under the client's trace id.
  bool fwd = false, hop = false, solve = false;
  std::uint64_t hop_parent = 0, fwd_nonce = 0;
  for (int spin = 0; spin < 2000 && !(fwd && hop && solve); ++spin) {
    fwd = hop = solve = false;
    for (const obs::TraceEvent& e : obs::trace_events_for(9001)) {
      std::string name = e.name ? e.name : "";
      if (name == "serve.router.forward") {
        fwd = true;
        fwd_nonce = e.arg;
      }
      if (name == "serve.hop") {
        hop = true;
        hop_parent = e.arg;
      }
      if (name == "serve.solve") solve = true;
    }
    if (!(fwd && hop && solve))
      std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(fwd) << "router never recorded its forward span";
  EXPECT_TRUE(hop) << "backend never saw a hop > 0";
  EXPECT_TRUE(solve) << "backend solve span not linked to the trace";
  EXPECT_NE(hop_parent, 0u) << "hop marker lost the parent span nonce";
  EXPECT_EQ(hop_parent, fwd_nonce) << "the span nonce changed on the wire";

  // An untraced client request still gets a minted id: the backend's
  // slowlog row carries a non-zero trace_id the operator can query.
  ASSERT_TRUE(client.value().call(partition_line(2)).ok());
  Result<Client> direct = Client::connect(fleet.configs[0].socket_path);
  ASSERT_TRUE(direct.ok());
  // The backend records a slowlog row only after writing the answer, so
  // read the slowlog until request 2's row shows, for at most 5 s.
  auto has_row_2 = [](const Response& r) {
    const json::Value* rows = r.body.find("slowlog");
    if (rows == nullptr) return false;
    for (const json::Value& row : rows->as_array())
      if (row.get_number("id", 0.0) == 2.0) return true;
    return false;
  };
  Result<Response> slow = direct.value().call(R"({"id":3,"op":"slowlog"})");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (slow.ok() && slow.value().ok && !has_row_2(slow.value()) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
    slow = direct.value().call(R"({"id":3,"op":"slowlog"})");
  }
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(slow.value().ok);
  const json::Value* rows = slow.value().body.find("slowlog");
  ASSERT_NE(rows, nullptr);
  ASSERT_FALSE(rows->as_array().empty());
  // The router's forward span for request 2 carries the minted id.
  std::uint64_t router_id = 0;
  EXPECT_TRUE(wait_for([&] {
    for (const obs::TraceEvent& e : obs::trace_events())
      if (std::string(e.name) == "serve.router.forward" && e.trace_id != 9001)
        router_id = e.trace_id;
    return router_id != 0;
  }));
  bool minted = false;
  for (const json::Value& row : rows->as_array()) {
    if (row.get_number("id", 0.0) == 2.0) {
      const double backend_id = row.get_number("trace_id", 0.0);
      EXPECT_GT(backend_id, 0.0)
          << "router forwarded hop without minting a trace id";
      EXPECT_EQ(backend_id < 18446744073709551616.0
                    ? static_cast<std::uint64_t>(backend_id)
                    : 0u,
                router_id)
          << "the minted trace id changed on the wire";
      minted = true;
    }
  }
  EXPECT_TRUE(minted) << "request 2 never reached the backend slowlog";
  router.stop();
}

TEST_F(RouterTest, RouterTraceOpStitchesRouterAndBackendProcs) {
  obs::clear_trace_events();
  Fleet fleet(2, "trfan");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "trfan_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());

  Request tagged;
  tagged.id = 1;
  tagged.op = Op::kPartition;
  tagged.programs = {"prog0", "prog1"};
  tagged.trace_id = 9002;
  ASSERT_TRUE(client.value().call(encode_request(tagged)).ok());

  // The fan-out merges the router's own proc with every backend's,
  // replicas disambiguated as "serve.<slot>". Spans close asynchronously,
  // so poll until the backend's solve shows up in the merged timeline.
  Request query;
  query.id = 2;
  query.op = Op::kTrace;
  query.trace_id = 9002;
  bool router_fwd = false, backend_solve = false;
  json::Value last_body;
  for (int spin = 0; spin < 2000 && !(router_fwd && backend_solve);
       ++spin) {
    Result<Response> r = client.value().call(encode_request(query));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok) << r.value().error;
    last_body = r.value().body;
    const json::Value* procs = last_body.find("procs");
    ASSERT_NE(procs, nullptr);
    router_fwd = backend_solve = false;
    for (const json::Value& proc : procs->as_array()) {
      std::string label = proc.get_string("proc", "");
      const json::Value* spans = proc.find("spans");
      ASSERT_NE(spans, nullptr);
      for (const json::Value& s : spans->as_array()) {
        std::string name = s.get_string("name", "");
        if (label == "router" && name == "serve.router.forward")
          router_fwd = true;
        if (label.rfind("serve.", 0) == 0 && name == "serve.solve")
          backend_solve = true;
      }
    }
    if (!(router_fwd && backend_solve))
      std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(router_fwd) << "merged trace lost the router span";
  EXPECT_TRUE(backend_solve) << "merged trace lost the backend solve";

  // The router's own proc leads the list; every proc entry carries the
  // clock pair the stitcher aligns timelines with.
  EXPECT_EQ(last_body.get_number("trace_id", 0.0), 9002.0);
  const json::Value* procs = last_body.find("procs");
  ASSERT_GE(procs->as_array().size(), 2u);
  EXPECT_EQ(procs->as_array()[0].get_string("proc", ""), "router");
  for (const json::Value& proc : procs->as_array()) {
    EXPECT_GT(proc.get_number("mono_ns", 0.0), 0.0);
    EXPECT_GT(proc.get_number("wall_ns", 0.0), 0.0);
  }
  router.stop();
}

TEST_F(RouterTest, RouterRecordsPerBackendLatencySeries) {
  Fleet fleet(2, "blat");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "blat_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());

  // Eager registration: one latency histogram and windowed p99 gauge per
  // backend slot exist before any traffic.
  obs::MetricsSnapshot snap = obs::metrics_snapshot();
  for (const char* name :
       {"serve.router.backend_latency.0", "serve.router.backend_latency.1"}) {
    bool found = false;
    for (const auto& h : snap.histograms) found = found || h.name == name;
    EXPECT_TRUE(found) << name << " not registered at startup";
  }

  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());
  for (int i = 1; i <= 4; ++i)
    ASSERT_TRUE(client.value().call(partition_line(i)).ok());

  // All four requests share a placement key, so exactly one backend's
  // histogram saw the attempts.
  snap = obs::metrics_snapshot();
  std::uint64_t attempts = 0;
  std::size_t backends_hit = 0;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("serve.router.backend_latency.", 0) != 0) continue;
    attempts += h.count;
    if (h.count > 0) ++backends_hit;
  }
  EXPECT_GE(attempts, 4u);
  EXPECT_EQ(backends_hit, 1u);

  // A metrics scrape refreshes the per-backend windowed p99 gauges.
  Result<Response> metrics =
      client.value().call(R"({"id":9,"op":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics.value().ok) << metrics.value().error;
  const json::Value* gauges = metrics.value().body.find("metrics")->find(
      "gauges");
  ASSERT_NE(gauges, nullptr);
  double p99_0 =
      gauges->get_number("serve.router.backend_latency.0.window.p99", -1.0);
  double p99_1 =
      gauges->get_number("serve.router.backend_latency.1.window.p99", -1.0);
  EXPECT_GE(p99_0, 0.0);
  EXPECT_GE(p99_1, 0.0);
  EXPECT_GT(std::max(p99_0, p99_1), 0.0)
      << "no backend's windowed p99 moved after 4 forwards";
  router.stop();
}

TEST_F(RouterTest, RouterSloOpReportsFleetBurn) {
  Fleet fleet(1, "rslo");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "rslo_r");
  cfg.slo_p99_ms = 60000.0;  // everything is fast: never breaching
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().call(partition_line(1)).ok());

  // Answered locally by the router's own tracker (fleet-level burn over
  // forward outcomes), with the role marker distinguishing it from a
  // backend's answer. Obs-independent, like the daemon's `slo`.
  obs::set_enabled(false);
  Result<Response> r = client.value().call(R"({"id":2,"op":"slo"})");
  obs::set_enabled(true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().ok) << r.value().error;
  EXPECT_EQ(r.value().body.get_string("role", ""), "router");
  EXPECT_TRUE(r.value().body.get_bool("configured", false));
  const json::Value* objectives = r.value().body.find("objectives");
  ASSERT_NE(objectives, nullptr);
  ASSERT_EQ(objectives->as_array().size(), 1u);
  const json::Value& latency = objectives->as_array()[0];
  EXPECT_EQ(latency.get_string("name", ""), "latency");
  EXPECT_DOUBLE_EQ(latency.get_number("target", 0.0), 60000.0);
  EXPECT_FALSE(latency.get_bool("breaching", true));
  EXPECT_EQ(r.value().body.get_number("alerts_total", -1.0), 0.0);
  router.stop();
}

TEST_F(RouterTest, RouterDecisionsFanOutAndReconcileFindsTheIssuer) {
  Fleet fleet(2, "dfan");
  fleet.start_all();
  RouterConfig cfg = fast_router_config(fleet, "dfan_r");
  Router router(cfg);
  ASSERT_TRUE(router.start().ok());
  Result<Client> client = Client::connect(cfg.socket_path);
  ASSERT_TRUE(client.ok());

  // One partition request lands on exactly one backend (stable
  // placement), minting decision id 1 there and nowhere else.
  Result<Response> part = client.value().call(partition_line(1));
  ASSERT_TRUE(part.ok());
  ASSERT_TRUE(part.value().ok) << part.value().error;
  EXPECT_EQ(part.value().body.get_number("decision_id", 0.0), 1.0);

  // `decisions` fans out breaker-blind: the fleet view is the union of
  // every backend's ring, each row tagged with its origin slot.
  Request list;
  list.id = 2;
  list.op = Op::kDecisions;
  Result<Response> listed = client.value().call(encode_request(list));
  ASSERT_TRUE(listed.ok());
  ASSERT_TRUE(listed.value().ok) << listed.value().error;
  EXPECT_EQ(listed.value().body.get_string("role", ""), "router");
  const json::Value* rows = listed.value().body.find("backends");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->as_array().size(), 2u);
  std::size_t total = 0;
  for (const json::Value& row : rows->as_array()) {
    EXPECT_GE(row.get_number("backend", -1.0), 0.0);
    EXPECT_FALSE(row.get_string("endpoint", "").empty());
    const json::Value* decs = row.find("decisions");
    ASSERT_NE(decs, nullptr);
    ASSERT_NE(row.find("accuracy"), nullptr);
    ASSERT_NE(row.find("drift"), nullptr);
    total += decs->as_array().size();
  }
  EXPECT_EQ(total, 1u);

  // Reconcile walks the fleet: the non-issuer answers 404 and is
  // skipped; the issuer's acceptance comes back tagged with its slot.
  Request rec;
  rec.id = 3;
  rec.op = Op::kReconcile;
  rec.decision_id = 1;
  rec.realized = {0.5, 0.5};
  Result<Response> applied = client.value().call(encode_request(rec));
  ASSERT_TRUE(applied.ok());
  ASSERT_TRUE(applied.value().ok) << applied.value().error;
  EXPECT_GE(applied.value().body.get_number("backend", -1.0), 0.0);
  const json::Value* decision = applied.value().body.find("decision");
  ASSERT_NE(decision, nullptr);
  EXPECT_TRUE(decision->get_bool("reconciled", false));

  // A second application is a definitive rejection (422) — relayed as
  // is, never retried on the other backend, where the same id could
  // collide with a different decision.
  rec.id = 4;
  Result<Response> again = client.value().call(encode_request(rec));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().ok);
  EXPECT_EQ(again.value().code, kCodeUnprocessable);

  // An id no backend ever issued is a fleet-wide 404.
  rec.id = 5;
  rec.decision_id = 99;
  Result<Response> unknown = client.value().call(encode_request(rec));
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown.value().ok);
  EXPECT_EQ(unknown.value().code, kCodeNotFound);

  // Fetch-one through the router: only the issuer contributes a row,
  // and an id nobody knows is 404 rather than an empty union.
  Request one;
  one.id = 6;
  one.op = Op::kDecisions;
  one.decision_id = 1;
  Result<Response> fetched = client.value().call(encode_request(one));
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched.value().ok) << fetched.value().error;
  const json::Value* hit = fetched.value().body.find("backends");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->as_array().size(), 1u);
  ASSERT_NE(hit->as_array()[0].find("decision"), nullptr);

  one.id = 7;
  one.decision_id = 99;
  Result<Response> missing = client.value().call(encode_request(one));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().ok);
  EXPECT_EQ(missing.value().code, kCodeNotFound);
  router.stop();
}

TEST_F(RouterTest, RouterConfigValidatesSloKnobs) {
  RouterConfig cfg;
  cfg.socket_path = unique_socket_path("badslo_r");
  cfg.backends = {unique_socket_path("ghost")};
  cfg.slo_p99_ms = -5.0;
  EXPECT_THROW(Router{cfg}, CheckError);
  cfg.slo_p99_ms = 0.0;
  cfg.slo_availability = 1.5;  // must be in [0, 1)
  EXPECT_THROW(Router{cfg}, CheckError);
}

}  // namespace
}  // namespace ocps::serve
