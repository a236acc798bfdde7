// Tests for the observability layer: metrics registry (concurrent
// counters, histogram bucketing), trace ring buffers, and the Chrome
// trace_event JSON export (round-tripped through a minimal JSON parser).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "runtime/controller.hpp"
#include "trace/generators.hpp"
#include "trace/interleave.hpp"
#include "util/json.hpp"

namespace ocps {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_metrics();
    obs::clear_trace_events();
  }
  void TearDown() override { obs::set_enabled(false); }
};

// ---------------------------------------------------------------- metrics

TEST_F(ObsTest, CounterConcurrentIncrementsSumExactly) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, CounterMacroAccumulatesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        OCPS_OBS_COUNT("test.macro_counter", 2);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(obs::counter("test.macro_counter").value(),
            2 * kThreads * kPerThread);
}

TEST_F(ObsTest, HistogramConcurrentObservationsSumExactly) {
  obs::Histogram& h = obs::histogram("test.concurrent_hist");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(3.0);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0 * kThreads * kPerThread);
  // All 3.0s land in the [2, 4) bucket.
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_index(3.0)),
            kThreads * kPerThread);
}

TEST_F(ObsTest, HistogramBucketBoundariesAreExactPowersOfTwo) {
  using H = obs::Histogram;
  // Everything below 1 (and non-finite garbage) lands in bucket 0.
  EXPECT_EQ(H::bucket_index(0.0), 0u);
  EXPECT_EQ(H::bucket_index(0.5), 0u);
  EXPECT_EQ(H::bucket_index(0.999999), 0u);
  EXPECT_EQ(H::bucket_index(-7.0), 0u);
  EXPECT_EQ(H::bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(H::bucket_index(std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(H::bucket_index(-std::numeric_limits<double>::infinity()), 0u);
  // Bucket i >= 1 covers [2^(i-1), 2^i): the boundary value 2^k belongs
  // to bucket k+1, and the value just below it to bucket k.
  EXPECT_EQ(H::bucket_index(1.0), 1u);
  EXPECT_EQ(H::bucket_index(1.999), 1u);
  EXPECT_EQ(H::bucket_index(2.0), 2u);
  EXPECT_EQ(H::bucket_index(3.999), 2u);
  EXPECT_EQ(H::bucket_index(4.0), 3u);
  for (std::size_t k = 0; k + 2 < obs::kHistogramBuckets; ++k) {
    double v = std::ldexp(1.0, static_cast<int>(k));  // 2^k
    EXPECT_EQ(H::bucket_index(v), k + 1) << "v = 2^" << k;
    EXPECT_EQ(H::bucket_index(std::nextafter(v, 0.0)), k == 0 ? 0u : k)
        << "v just below 2^" << k;
    EXPECT_DOUBLE_EQ(H::bucket_lower_bound(k + 1), v);
    EXPECT_DOUBLE_EQ(H::bucket_upper_bound(k + 1),
                     std::ldexp(1.0, static_cast<int>(k) + 1));
  }
  // The last bucket is open-ended.
  EXPECT_EQ(H::bucket_index(std::ldexp(1.0, 62)),
            obs::kHistogramBuckets - 1);
  EXPECT_EQ(H::bucket_index(std::numeric_limits<double>::max()),
            obs::kHistogramBuckets - 1);
  EXPECT_TRUE(std::isinf(
      H::bucket_upper_bound(obs::kHistogramBuckets - 1)));
}

TEST_F(ObsTest, HistogramObserveMatchesBucketIndex) {
  obs::Histogram& h = obs::histogram("test.boundary_hist");
  h.observe(1.0);    // bucket 1
  h.observe(2.0);    // bucket 2
  h.observe(1.999);  // bucket 1
  h.observe(0.25);   // bucket 0
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST_F(ObsTest, ResetZeroesButKeepsAddresses) {
  obs::Counter& c = obs::counter("test.reset_counter");
  obs::Histogram& h = obs::histogram("test.reset_hist");
  c.add(41);
  h.observe(8.0);
  obs::reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &obs::counter("test.reset_counter"));
  // The histogram must be zeroed in place: OCPS_OBS_HIST caches a
  // reference per call site, so the object may never be reallocated.
  EXPECT_EQ(&h, &obs::histogram("test.reset_hist"));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  c.add(1);
  h.observe(2.0);
  EXPECT_EQ(obs::counter("test.reset_counter").value(), 1u);
  EXPECT_EQ(obs::histogram("test.reset_hist").count(), 1u);
}

TEST_F(ObsTest, DisabledSitesRecordNothing) {
  obs::set_enabled(false);
  OCPS_OBS_COUNT("test.disabled_counter", 1);
  obs::ScopedSpan span("test.disabled_span", "test");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.elapsed_ns(), 0u);
  obs::set_enabled(true);
  EXPECT_EQ(obs::counter("test.disabled_counter").value(), 0u);
}

// ----------------------------------------------------------------- spans

TEST_F(ObsTest, RingOverwriteKeepsNewestEvents) {
  const std::uint64_t total = obs::kRingCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i)
    obs::instant_event("test.ring", "test", "i", i);
  std::vector<std::uint64_t> seen;
  for (const auto& e : obs::trace_events())
    if (std::string(e.name) == "test.ring") seen.push_back(e.arg);
  ASSERT_EQ(seen.size(), obs::kRingCapacity);
  // The oldest 100 events were overwritten; the newest survive, in order.
  std::uint64_t expect = 100;
  for (std::uint64_t v : seen) EXPECT_EQ(v, expect++);
}

TEST_F(ObsTest, SpansRecordDurationAndArgs) {
  {
    obs::ScopedSpan span("test.span", "test");
    span.set_arg("size", 17);
    EXPECT_TRUE(span.active());
  }
  bool found = false;
  for (const auto& e : obs::trace_events()) {
    if (std::string(e.name) != "test.span") continue;
    found = true;
    EXPECT_FALSE(e.instant);
    EXPECT_STREQ(e.cat, "test");
    EXPECT_STREQ(e.arg_name, "size");
    EXPECT_EQ(e.arg, 17u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, EventsFromMultipleThreadsCarryDistinctTids) {
  std::thread other([] { obs::instant_event("test.tid", "test", "t", 2); });
  other.join();
  obs::instant_event("test.tid", "test", "t", 1);
  std::vector<std::uint32_t> tids;
  for (const auto& e : obs::trace_events())
    if (std::string(e.name) == "test.tid") tids.push_back(e.tid);
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_NE(tids[0], tids[1]);
}

std::size_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  return 0;
}

TEST_F(ObsTest, RingsOfExitedThreadsAreReused) {
  // Each ring reserves kRingCapacity events (256 KiB), and a server runs
  // one short-lived reader thread per connection: a ring kept per thread
  // ever started grows the process without bound.
  auto short_thread = [] {
    std::thread t([] { obs::instant_event("test.reuse", "test"); });
    t.join();
  };
  for (int i = 0; i < 8; ++i) short_thread();
  const std::size_t before = vm_size_kb();
  for (int i = 0; i < 200; ++i) short_thread();
  EXPECT_LT(vm_size_kb(), before + 16 * 1024);  // 200 rings: +50 MiB
  // Reuse keeps every event exportable, each under its own thread's tid.
  std::set<std::uint32_t> tids;
  for (const auto& e : obs::trace_events())
    if (std::string(e.name) == "test.reuse") tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 208u);
}

// ---------------------------------------------- minimal JSON round-trip

// Just enough of a JSON parser to validate the exported artifacts:
// objects, arrays, strings (no escapes beyond \"), numbers, null.
struct MiniJson {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;

  explicit MiniJson(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r'))
      ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }
  bool peek(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }
  std::string string() {
    if (!eat('"')) return "";
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out.push_back(s[i++]);
    }
    eat('"');
    return out;
  }
  void number() {
    ws();
    if (i + 4 <= s.size() && s.compare(i, 4, "null") == 0) {
      i += 4;
      return;
    }
    // Strict JSON numbers only: bare inf/nan tokens must fail the parse.
    std::size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E'))
      ++i;
    if (i == start) ok = false;
  }
  void value() {
    ws();
    if (peek('{')) {
      object(nullptr);
    } else if (peek('[')) {
      array(nullptr);
    } else if (peek('"')) {
      string();
    } else {
      number();
    }
  }
  /// Parses an object; when `keys` is non-null, collects the keys seen.
  void object(std::vector<std::string>* keys) {
    if (!eat('{')) return;
    if (peek('}')) {
      eat('}');
      return;
    }
    do {
      std::string k = string();
      if (keys) keys->push_back(k);
      if (!eat(':')) return;
      value();
    } while (ok && peek(',') && eat(','));
    eat('}');
  }
  /// Parses an array; returns the element count.
  std::size_t array(std::vector<std::vector<std::string>>* element_keys) {
    if (!eat('[')) return 0;
    if (peek(']')) {
      eat(']');
      return 0;
    }
    std::size_t n = 0;
    do {
      ws();
      if (peek('{') && element_keys) {
        element_keys->emplace_back();
        object(&element_keys->back());
      } else {
        value();
      }
      ++n;
    } while (ok && peek(',') && eat(','));
    eat(']');
    return n;
  }
};

TEST_F(ObsTest, ChromeTraceJsonRoundTrips) {
  {
    obs::ScopedSpan span("test.json_span", "test");
    span.set_arg("n", 5);
  }
  obs::instant_event("test.json_marker", "test");

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string text = os.str();

  MiniJson parser(text);
  std::vector<std::string> top_keys;
  // Parse the outer shell manually so we can inspect the array.
  ASSERT_TRUE(parser.eat('{'));
  EXPECT_EQ(parser.string(), "traceEvents");
  ASSERT_TRUE(parser.eat(':'));
  std::vector<std::vector<std::string>> events;
  std::size_t n = parser.array(&events);
  ASSERT_TRUE(parser.eat('}'));
  parser.ws();
  EXPECT_TRUE(parser.ok) << text;
  EXPECT_EQ(parser.i, text.size()) << "trailing garbage";

  EXPECT_EQ(n, obs::trace_events().size());
  ASSERT_GE(n, 2u);
  for (const auto& keys : events) {
    // Chrome requires name/ph/pid/tid/ts on every event.
    for (const char* required : {"name", "cat", "ph", "pid", "tid", "ts"})
      EXPECT_NE(std::find(keys.begin(), keys.end(), required), keys.end())
          << "missing key " << required;
  }
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  obs::counter("test.json_counter").add(3);
  obs::histogram("test.json_hist").observe(100.0);
  obs::gauge("test.json_gauge").set(2.5);
  obs::gauge("test.json_inf_gauge").set(
      std::numeric_limits<double>::infinity());
  obs::gauge("test.json_nan_gauge").set(
      std::numeric_limits<double>::quiet_NaN());

  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string text = os.str();

  MiniJson parser(text);
  std::vector<std::string> top_keys;
  parser.object(&top_keys);
  parser.ws();
  EXPECT_TRUE(parser.ok) << text;
  EXPECT_EQ(parser.i, text.size()) << "trailing garbage";
  for (const char* required : {"counters", "gauges", "histograms"})
    EXPECT_NE(std::find(top_keys.begin(), top_keys.end(), required),
              top_keys.end());
  EXPECT_NE(text.find("\"test.json_counter\":3"), std::string::npos);
  EXPECT_NE(text.find("\"test.json_hist\""), std::string::npos);
  // Non-finite gauges must serialize as null, never as nan/inf tokens.
  EXPECT_NE(text.find("\"test.json_inf_gauge\":null"), std::string::npos);
  EXPECT_NE(text.find("\"test.json_nan_gauge\":null"), std::string::npos);
}

TEST_F(ObsTest, TextTimelineListsEvents) {
  { obs::ScopedSpan span("test.timeline_span", "test"); }
  std::ostringstream os;
  obs::write_text_timeline(os);
  EXPECT_NE(os.str().find("test/test.timeline_span"), std::string::npos);
}

// ------------------------------------------------- controller tracing

TEST_F(ObsTest, ControllerEmitsOneSpanPerEpochStage) {
  Trace a = make_cyclic(30000, 64);
  Trace b = make_sawtooth(30000, 128);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 60000);
  ControllerConfig config;
  config.capacity = 256;
  config.epoch_length = 10000;
  run_online_controller(mix, 2, config, {});

  std::size_t epochs = 0, estimates = 0, sanitizes = 0, solves = 0,
              applies = 0;
  for (const auto& e : obs::trace_events()) {
    std::string name = e.name;
    if (name == "epoch") ++epochs;
    if (name == "estimate") ++estimates;
    if (name == "sanitize") ++sanitizes;
    if (name == "dp_solve") ++solves;
    if (name == "apply") ++applies;
  }
  EXPECT_EQ(epochs, 5u);  // 60000 accesses / 10000 per epoch - final partial
  EXPECT_EQ(estimates, epochs);
  EXPECT_EQ(sanitizes, epochs);
  EXPECT_EQ(solves, epochs);
  EXPECT_EQ(applies, epochs);
  EXPECT_EQ(obs::counter("controller.epochs").value(), epochs);
  EXPECT_GT(obs::histogram("dp.solve_ns").count(), 0u);
}

// ------------------------------------------------- DP work accounting

TEST_F(ObsTest, DpWorkIsAccountedOncePerSolveOnEveryPath) {
  // The prefix solver (sweep, serve, controller) reports through the
  // same counters as optimize_partition: dp.cells advances by exactly
  // the cells the solver says it examined, one dp.solves per solve.
  CostMatrix costs(5, 64);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t c = 0; c <= 64; ++c)
      costs(i, c) = 1.0 / static_cast<double>(1 + c + 3 * i);
  PrefixDpSolver solver;
  solver.configure(costs.view(), 64, DpObjective::kSumCost);
  const std::uint32_t groups[3][3] = {{0, 1, 2}, {0, 1, 3}, {1, 2, 4}};
  const std::size_t lo[3] = {10, 5, 20};
  DpResult out;
  for (const auto& members : groups) {
    solver.solve(members, 3, nullptr, out);
    solver.solve(members, 3, lo, out);
  }
  EXPECT_EQ(obs::counter("dp.cells").value(), solver.stats().cells);
  EXPECT_EQ(obs::counter("dp.solves").value(), solver.stats().solves);
  EXPECT_EQ(obs::histogram("dp.solve_ns").count(), solver.stats().solves);

  // One controller epoch, one solve: dp.solves comes from the solver
  // alone, not from the controller as well.
  obs::reset_metrics();
  obs::clear_trace_events();
  Trace a = make_cyclic(30000, 64);
  Trace b = make_sawtooth(30000, 128);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 60000);
  ControllerConfig config;
  config.capacity = 256;
  config.epoch_length = 10000;
  run_online_controller(mix, 2, config, {});
  std::uint64_t dp_solve_spans = 0;
  for (const auto& e : obs::trace_events())
    if (std::string(e.name) == "dp_solve") ++dp_solve_spans;
  ASSERT_GT(dp_solve_spans, 0u);
  EXPECT_EQ(obs::counter("dp.solves").value(), dp_solve_spans);
  EXPECT_EQ(obs::histogram("dp.solve_ns").count(), dp_solve_spans);
}

// ------------------------------------------- quantiles & exposition

TEST_F(ObsTest, HistogramQuantileInterpolatesWithinBuckets) {
  // 100 observations of 3.0 all land in bucket [2, 4): the median
  // interpolates to the bucket midpoint, p100 to the upper bound.
  obs::HistogramSnapshot h;
  h.count = 100;
  h.buckets = {{obs::Histogram::bucket_index(3.0), 100}};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 4.0);

  // 50 in [1, 2) + 50 in [2, 4): the crossing walks the cumulative
  // counts and interpolates inside the crossing bucket only.
  obs::HistogramSnapshot two;
  two.count = 100;
  two.buckets = {{1, 50}, {2, 50}};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(two, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(two, 0.75), 3.0);

  // The log-bucket guarantee: the estimate is within a factor of 2 of
  // any true value inside the crossing bucket.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    double est = obs::histogram_quantile(two, q);
    EXPECT_GE(est, 1.0);
    EXPECT_LE(est, 4.0);
  }
}

TEST_F(ObsTest, HistogramQuantileEdgeCases) {
  obs::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(empty, 0.5), 0.0);

  // Bucket 0 holds v < 1; its lower bound is reported as 0 so sub-unit
  // latencies do not all flatten to 1.
  obs::HistogramSnapshot tiny;
  tiny.count = 10;
  tiny.buckets = {{0, 10}};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(tiny, 0.5), 0.5);

  // The last bucket is open-ended: clamp to its lower bound instead of
  // interpolating toward infinity.
  obs::HistogramSnapshot top;
  top.count = 4;
  top.buckets = {{obs::kHistogramBuckets - 1, 4}};
  EXPECT_DOUBLE_EQ(
      obs::histogram_quantile(top, 0.99),
      obs::Histogram::bucket_lower_bound(obs::kHistogramBuckets - 1));

  // Out-of-range q clamps rather than extrapolating.
  obs::HistogramSnapshot one;
  one.count = 1;
  one.buckets = {{1, 1}};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(one, -3.0),
                   obs::histogram_quantile(one, 0.0));
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(one, 7.0),
                   obs::histogram_quantile(one, 1.0));
}

TEST_F(ObsTest, WindowedHistogramForgetsOldSeconds) {
  constexpr std::uint64_t kSec = 1000000000ULL;
  obs::WindowedHistogram w(/*window_seconds=*/3);
  EXPECT_EQ(w.window_seconds(), 3u);
  // One observation per second at seconds 0..5, values 10, 20, ..., 60.
  for (std::uint64_t s = 0; s < 6; ++s)
    w.observe_at(10.0 * static_cast<double>(s + 1), s * kSec);

  // At second 5 the window covers seconds 3..5: values 40, 50, 60.
  obs::HistogramSnapshot now = w.snapshot_at("w", 5 * kSec);
  EXPECT_EQ(now.count, 3u);
  EXPECT_DOUBLE_EQ(now.sum, 150.0);

  // A scrape with an older clock sees only what survives in the ring:
  // seconds 0 and 1 were recycled by 4 and 5 (4-slot ring), so the
  // window ending at second 2 holds just second 2 itself.
  obs::HistogramSnapshot past = w.snapshot_at("w", 2 * kSec);
  EXPECT_EQ(past.count, 1u);
  EXPECT_DOUBLE_EQ(past.sum, 30.0);

  // Far in the future every slot has aged out.
  obs::HistogramSnapshot later = w.snapshot_at("w", 100 * kSec);
  EXPECT_EQ(later.count, 0u);

  // A slot recycled by a new second drops its old contents exactly once:
  // second 6 hashes onto second 2's slot (ring of window+1 = 4 slots).
  w.observe_at(5.0, 6 * kSec);
  obs::HistogramSnapshot wrapped = w.snapshot_at("w", 6 * kSec);
  EXPECT_EQ(wrapped.count, 3u);  // seconds 4, 5, 6
  EXPECT_DOUBLE_EQ(wrapped.sum, 50.0 + 60.0 + 5.0);
}

TEST_F(ObsTest, PrometheusExpositionIsWellFormed) {
  obs::counter("test.prom.counter").add(7);
  obs::gauge("test.prom.gauge").set(2.5);
  obs::gauge("test.prom.nan_gauge").set(
      std::numeric_limits<double>::quiet_NaN());
  obs::Histogram& h = obs::histogram("test.prom.hist");
  h.observe(0.5);   // bucket 0
  h.observe(3.0);   // bucket [2, 4)
  h.observe(3.5);   // bucket [2, 4)
  h.observe(100.0);  // bucket [64, 128)

  std::ostringstream os;
  obs::write_metrics_prometheus(os);
  const std::string text = os.str();

  // Dots sanitize to underscores; every family gets a TYPE line.
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 2.5"), std::string::npos);
  // Non-finite gauges use Prometheus spellings, not JSON null.
  EXPECT_NE(text.find("test_prom_nan_gauge NaN"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_hist histogram"),
            std::string::npos);

  // Histogram series: cumulative buckets, +Inf equals _count.
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"4\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"128\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 4"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_sum 107"), std::string::npos);

  // Raw dots must never leak into metric names.
  EXPECT_EQ(text.find("test.prom"), std::string::npos);
}

TEST_F(ObsTest, SpansDroppedCountsRingOverwrites) {
  // Fill this thread's ring exactly, then push 7 more: each overwrite
  // bumps obs.spans_dropped so truncated exports are detectable.
  for (std::uint64_t i = 0; i < obs::kRingCapacity; ++i)
    obs::instant_event("test.fill", "test", "i", i);
  EXPECT_EQ(obs::counter("obs.spans_dropped").value(), 0u);
  for (std::uint64_t i = 0; i < 7; ++i)
    obs::instant_event("test.overflow", "test", "i", i);
  EXPECT_EQ(obs::counter("obs.spans_dropped").value(), 7u);

  // The counter appears in the Prometheus scrape.
  std::ostringstream os;
  obs::write_metrics_prometheus(os);
  EXPECT_NE(os.str().find("obs_spans_dropped 7"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceParsesWithUtilJsonAfterWrap) {
  // Spans from two threads sharing one trace id, plus enough instant
  // events to wrap the main thread's ring — the export must stay valid
  // JSON with every span a complete X event carrying dur.
  {
    obs::ScopedSpan s("test.wrap_root", "test");
    s.set_trace_id(42);
    s.set_arg("id", 9);
  }
  std::thread worker([] {
    obs::ScopedSpan s("test.wrap_child", "test");
    s.set_trace_id(42);
  });
  worker.join();
  for (std::uint64_t i = 0; i < obs::kRingCapacity + 50; ++i)
    obs::instant_event("test.wrap_noise", "test", "i", i);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  Result<json::Value> parsed = json::parse(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();

  const json::Value* events = parsed.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t spans_with_id = 0;
  std::vector<double> tids;
  for (const json::Value& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    std::string ph = e.get_string("ph", "");
    EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    EXPECT_NE(e.find("name"), nullptr);
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
    // Complete (X) events must carry a duration; instants must not.
    if (ph == "X") {
      const json::Value* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->as_number(), 0.0);
    } else {
      EXPECT_EQ(e.find("dur"), nullptr);
    }
    // Spans tagged with the request's trace id link via bind_id and echo
    // it in args for the viewer's detail pane.
    if (e.get_number("bind_id", 0.0) == 42.0) {
      ++spans_with_id;
      tids.push_back(e.get_number("tid", -1.0));
      const json::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->get_number("trace_id", 0.0), 42.0);
    }
  }
  // The root span's ring wrapped, but the worker thread's ring kept its
  // span: at least one tagged event survives, and when both do they come
  // from distinct threads.
  ASSERT_GE(spans_with_id, 1u);
  if (spans_with_id >= 2) {
    EXPECT_NE(tids[0], tids[1]);
  }
}

TEST_F(ObsTest, WindowedHistogramRecyclesLazilyAcrossLongIdleGap) {
  constexpr std::uint64_t kSec = 1000000000ULL;
  obs::WindowedHistogram w(/*window_seconds=*/3);
  // Two live seconds, then a ~3-hour idle gap. Slots are recycled lazily
  // (on the next write that lands on them), so the stale slots survive in
  // the ring — the window filter alone must keep them out of snapshots.
  w.observe_at(10.0, 4 * kSec);  // slot 0 (ring of window+1 = 4)
  w.observe_at(20.0, 5 * kSec);  // slot 1

  // First scrape after the gap, before any new write: nothing in window.
  obs::HistogramSnapshot idle = w.snapshot_at("w", 10001 * kSec);
  EXPECT_EQ(idle.count, 0u);
  EXPECT_DOUBLE_EQ(idle.sum, 0.0);

  // Second 10001 aliases onto second 5's slot (10001 % 4 == 1): the
  // write recycles it, and only the fresh observation is visible.
  w.observe_at(7.0, 10001 * kSec);
  obs::HistogramSnapshot fresh = w.snapshot_at("w", 10001 * kSec);
  EXPECT_EQ(fresh.count, 1u);
  EXPECT_DOUBLE_EQ(fresh.sum, 7.0);

  // Second 4's slot was never written again, so it still holds the old
  // second — proving recycling is lazy — but a window ending inside the
  // gap cannot see it, while a window covering second 4 still can.
  obs::HistogramSnapshot gap = w.snapshot_at("w", 9000 * kSec);
  EXPECT_EQ(gap.count, 0u);
  obs::HistogramSnapshot old_window = w.snapshot_at("w", 6 * kSec);
  EXPECT_EQ(old_window.count, 1u);
  EXPECT_DOUBLE_EQ(old_window.sum, 10.0);
}

TEST_F(ObsTest, WindowedHistogramExpiredWindowGoesEmptyNotStale) {
  constexpr std::uint64_t kSec = 1000000000ULL;
  obs::WindowedHistogram w(/*window_seconds=*/3);
  for (std::uint64_t s = 0; s < 4; ++s) w.observe_at(12.0, s * kSec);
  ASSERT_GT(w.snapshot_at("w", 3 * kSec).count, 0u);

  // Once every slot has aged out, the snapshot — and therefore any gauge
  // derived from it — must report empty, not the last live quantiles.
  obs::HistogramSnapshot expired = w.snapshot_at("w", 500 * kSec);
  EXPECT_EQ(expired.count, 0u);
  EXPECT_DOUBLE_EQ(expired.sum, 0.0);
  EXPECT_TRUE(expired.buckets.empty());
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(expired, 0.50), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(expired, 0.99), 0.0);
}

// -------------------------------------------------------------- exemplars

TEST_F(ObsTest, ExemplarStoreKeepsLatestPerBucket) {
  obs::note_exemplar("test.ex", 3.0, 42);
  obs::note_exemplar("test.ex", 3.5, 43);    // same [2,4) bucket: replaces
  obs::note_exemplar("test.ex", 100.0, 44);  // [64,128) bucket

  auto ex = obs::exemplars_for("test.ex");
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0].first, obs::Histogram::bucket_index(3.5));
  EXPECT_EQ(ex[0].second.trace_id, 43u);
  EXPECT_DOUBLE_EQ(ex[0].second.value, 3.5);
  EXPECT_EQ(ex[1].first, obs::Histogram::bucket_index(100.0));
  EXPECT_EQ(ex[1].second.trace_id, 44u);

  // Unknown histograms have no exemplars, and reset_metrics clears all.
  EXPECT_TRUE(obs::exemplars_for("test.ex_other").empty());
  obs::reset_metrics();
  EXPECT_TRUE(obs::exemplars_for("test.ex").empty());
}

TEST_F(ObsTest, ExemplarIgnoresUntracedAndDisabledObservations) {
  // trace_id 0 means "no trace attached" — never an exemplar.
  obs::note_exemplar("test.ex_skip", 5.0, 0);
  EXPECT_TRUE(obs::exemplars_for("test.ex_skip").empty());

  // With observability off the store must not accumulate.
  obs::set_enabled(false);
  obs::note_exemplar("test.ex_skip", 5.0, 77);
  obs::set_enabled(true);
  EXPECT_TRUE(obs::exemplars_for("test.ex_skip").empty());
}

TEST_F(ObsTest, PrometheusBucketsCarryExemplarSuffix) {
  obs::Histogram& h = obs::histogram("test.exprom");
  h.observe(3.5);
  obs::note_exemplar("test.exprom", 3.5, 43);
  h.observe(1e20);  // folds into the +Inf bucket
  obs::note_exemplar("test.exprom", 1e20, 99);

  std::ostringstream os;
  obs::write_metrics_prometheus(os);
  const std::string text = os.str();

  // OpenMetrics-style suffix on the bucket the exemplar landed in…
  EXPECT_NE(
      text.find("test_exprom_bucket{le=\"4\"} 1 # {trace_id=\"43\"} 3.5"),
      std::string::npos);
  // …including buckets folded into +Inf.
  EXPECT_NE(text.find("test_exprom_bucket{le=\"+Inf\"} 2 "
                      "# {trace_id=\"99\"} 1e+20"),
            std::string::npos);
  // Buckets without exemplars stay bare (exactly one suffix emitted).
  std::size_t first = text.find("# {trace_id=\"43\"}");
  EXPECT_EQ(text.find("# {trace_id=\"43\"}", first + 1), std::string::npos);
}

TEST_F(ObsTest, MetricsJsonCarriesExemplars) {
  obs::histogram("test.exjson").observe(3.5);
  obs::note_exemplar("test.exjson", 3.5, 51);

  std::ostringstream os;
  obs::write_metrics_json(os);
  Result<json::Value> parsed = json::parse(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();

  const json::Value* hists = parsed.value().find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* h = hists->find("test.exjson");
  ASSERT_NE(h, nullptr);
  const json::Value* exemplars = h->find("exemplars");
  ASSERT_NE(exemplars, nullptr);
  ASSERT_TRUE(exemplars->is_array());
  ASSERT_EQ(exemplars->as_array().size(), 1u);
  const json::Value& e = exemplars->as_array()[0];
  EXPECT_EQ(e.get_number("trace_id", 0.0), 51.0);
  EXPECT_DOUBLE_EQ(e.get_number("value", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(e.get_number("lo", -1.0),
                   obs::Histogram::bucket_lower_bound(
                       obs::Histogram::bucket_index(3.5)));
}

// --------------------------------------------------- trace event filtering

TEST_F(ObsTest, TraceEventsForReturnsOnlyTaggedEvents) {
  {
    obs::ScopedSpan s("test.tagged", "test");
    s.set_trace_id(314);
  }
  {
    obs::ScopedSpan s("test.untagged", "test");
  }
  obs::instant_event("test.tagged_instant", "test", "hop", 2, 314);

  std::vector<obs::TraceEvent> events = obs::trace_events_for(314);
  ASSERT_EQ(events.size(), 2u);
  for (const obs::TraceEvent& e : events) EXPECT_EQ(e.trace_id, 314u);
  EXPECT_TRUE(obs::trace_events_for(9999).empty());
}

// ------------------------------------------------------------ SLO tracker
//
// The SloTracker is deliberately independent of the OCPS_OBS runtime
// flag (the `slo` op answers with obs off), so these tests leave it
// alone. All clocks are synthetic.

namespace slo_test {
constexpr std::uint64_t kSec = 1000000000ULL;
}  // namespace slo_test

TEST(SloTrackerTest, UnconfiguredTrackerReportsNothing) {
  obs::SloTracker slo{obs::SloConfig{}};
  EXPECT_FALSE(slo.configured());
  slo.record(1000.0, false, 0);  // dropped: nothing to judge against
  obs::SloTracker::Status st = slo.status(0);
  EXPECT_TRUE(st.objectives.empty());
  EXPECT_TRUE(st.alerts.empty());
  EXPECT_EQ(st.alerts_total, 0u);
}

TEST(SloTrackerTest, LatencyBurnRateMatchesBudgetMath) {
  using slo_test::kSec;
  obs::SloConfig cfg;
  cfg.p99_ms = 10.0;
  obs::SloTracker slo{cfg};
  ASSERT_TRUE(slo.configured());

  // 100 requests, 2 over target: 2% bad against a 1% budget = burn 2.0
  // in both windows (all traffic is recent).
  for (int i = 0; i < 98; ++i) slo.record(5.0, true, 10 * kSec);
  for (int i = 0; i < 2; ++i) slo.record(50.0, true, 10 * kSec);

  obs::SloTracker::Status st = slo.status(10 * kSec);
  ASSERT_EQ(st.objectives.size(), 1u);
  const obs::SloTracker::Objective& o = st.objectives[0];
  EXPECT_EQ(o.name, "latency");
  EXPECT_DOUBLE_EQ(o.target, 10.0);
  EXPECT_DOUBLE_EQ(o.budget, 0.01);
  EXPECT_DOUBLE_EQ(o.burn_short, 2.0);
  EXPECT_DOUBLE_EQ(o.burn_long, 2.0);
  EXPECT_TRUE(o.breaching);
  EXPECT_EQ(st.alerts_total, 1u);

  // Burning at half the budget rate is healthy, not a breach.
  obs::SloTracker calm{cfg};
  for (int i = 0; i < 199; ++i) calm.record(5.0, true, 10 * kSec);
  calm.record(50.0, true, 10 * kSec);
  obs::SloTracker::Status cst = calm.status(10 * kSec);
  ASSERT_EQ(cst.objectives.size(), 1u);
  EXPECT_DOUBLE_EQ(cst.objectives[0].burn_short, 0.5);
  EXPECT_FALSE(cst.objectives[0].breaching);
  EXPECT_EQ(cst.alerts_total, 0u);
}

TEST(SloTrackerTest, AvailabilityObjectiveCountsFailures) {
  using slo_test::kSec;
  obs::SloConfig cfg;
  cfg.p99_ms = 10.0;
  cfg.availability = 0.99;  // 1% error budget
  obs::SloTracker slo{cfg};

  // Fast but failing: latency healthy, availability burning at 4x.
  for (int i = 0; i < 96; ++i) slo.record(1.0, true, 5 * kSec);
  for (int i = 0; i < 4; ++i) slo.record(1.0, false, 5 * kSec);

  obs::SloTracker::Status st = slo.status(5 * kSec);
  ASSERT_EQ(st.objectives.size(), 2u);
  EXPECT_EQ(st.objectives[0].name, "latency");
  EXPECT_FALSE(st.objectives[0].breaching);
  EXPECT_EQ(st.objectives[1].name, "availability");
  EXPECT_DOUBLE_EQ(st.objectives[1].target, 0.99);
  // Budget is 1.0 - 0.99 in doubles, so the burn is 4.0 up to rounding.
  EXPECT_NEAR(st.objectives[1].burn_short, 4.0, 1e-9);
  EXPECT_TRUE(st.objectives[1].breaching);
  ASSERT_EQ(st.alerts.size(), 1u);
  EXPECT_EQ(st.alerts[0].objective, "availability");
}

TEST(SloTrackerTest, BreachRequiresBothWindowsBurning) {
  using slo_test::kSec;
  obs::SloConfig cfg;
  cfg.p99_ms = 10.0;
  obs::SloTracker slo{cfg};

  // An incident at t=0s: every request slow.
  for (int i = 0; i < 50; ++i) slo.record(100.0, true, 0);

  // 10 minutes later the 5m window holds only healthy traffic while the
  // 1h window still remembers the incident: burning long-only must NOT
  // page (that is the whole point of multi-window burn rates).
  for (int i = 0; i < 50; ++i) slo.record(1.0, true, 600 * kSec);
  obs::SloTracker::Status st = slo.status(600 * kSec);
  ASSERT_EQ(st.objectives.size(), 1u);
  EXPECT_DOUBLE_EQ(st.objectives[0].burn_short, 0.0);
  EXPECT_DOUBLE_EQ(st.objectives[0].burn_long, 50.0);
  EXPECT_FALSE(st.objectives[0].breaching);
  EXPECT_EQ(st.alerts_total, 0u);

  // Conversely a short spike with an empty long window does not page
  // either — both windows must agree.
  obs::SloTracker spike{cfg};
  obs::SloTracker::Status empty = spike.status(0);
  ASSERT_EQ(empty.objectives.size(), 1u);
  EXPECT_FALSE(empty.objectives[0].breaching);
}

TEST(SloTrackerTest, AlertsAreEdgeTriggeredAndBounded) {
  using slo_test::kSec;
  obs::SloConfig cfg;
  cfg.p99_ms = 10.0;
  cfg.alert_capacity = 2;
  obs::SloTracker slo{cfg};

  // Three breach episodes separated by > the long window, so each one
  // starts from clean windows. Every episode: slow traffic, then several
  // status() calls — the alert fires once per episode, not per call.
  std::uint64_t alerts_seen = 0;
  for (int episode = 0; episode < 3; ++episode) {
    std::uint64_t t = static_cast<std::uint64_t>(episode) * 10000 * kSec;
    for (int i = 0; i < 20; ++i) slo.record(100.0, true, t);
    obs::SloTracker::Status st = slo.status(t);
    ASSERT_EQ(st.objectives.size(), 1u);
    EXPECT_TRUE(st.objectives[0].breaching);
    EXPECT_EQ(st.alerts_total, alerts_seen + 1);
    obs::SloTracker::Status again = slo.status(t);
    EXPECT_EQ(again.alerts_total, alerts_seen + 1);  // latched, no re-fire
    alerts_seen = st.alerts_total;

    // Recovery: healthy traffic after the windows have fully drained.
    std::uint64_t calm = t + 5000 * kSec;
    for (int i = 0; i < 20; ++i) slo.record(1.0, true, calm);
    obs::SloTracker::Status rec = slo.status(calm);
    EXPECT_FALSE(rec.objectives[0].breaching);
  }

  // Three alerts fired, but the log is bounded at capacity 2 and keeps
  // the most recent ones (monotonic seq survives the trim).
  obs::SloTracker::Status final_st =
      slo.status(3 * 10000 * kSec);
  EXPECT_EQ(final_st.alerts_total, 3u);
  ASSERT_EQ(final_st.alerts.size(), 2u);
  EXPECT_EQ(final_st.alerts[0].seq, 2u);
  EXPECT_EQ(final_st.alerts[1].seq, 3u);
}

TEST(SloTrackerTest, SlotRecyclingSurvivesLongIdleGaps) {
  using slo_test::kSec;
  obs::SloConfig cfg;
  cfg.p99_ms = 10.0;
  obs::SloTracker slo{cfg};

  // Bad traffic, then a multi-day gap: the stale slots must not leak
  // into windows anchored at the new time.
  for (int i = 0; i < 30; ++i) slo.record(100.0, true, 0);
  std::uint64_t later = 400000 * kSec;
  for (int i = 0; i < 30; ++i) slo.record(1.0, true, later);
  obs::SloTracker::Status st = slo.status(later);
  ASSERT_EQ(st.objectives.size(), 1u);
  EXPECT_DOUBLE_EQ(st.objectives[0].burn_short, 0.0);
  EXPECT_DOUBLE_EQ(st.objectives[0].burn_long, 0.0);
  EXPECT_FALSE(st.objectives[0].breaching);
}

}  // namespace
}  // namespace ocps
