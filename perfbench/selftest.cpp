// Self-tests of the measurement plumbing: the percentile helper against
// exact sorted samples, the open-loop clock against a synthetic stall,
// and the metric-name rule. Exits non-zero when any check fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void test_percentile() {
  // 1..1000 in a scrambled order: the q-th percentile must be the sample
  // of rank ceil(q * n) in the sorted order.
  const std::size_t n = 1000;
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(static_cast<double>((i * 7919) % n + 1));
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank == 0) rank = 1;
    expect(perfbench::percentile(samples, q) == sorted[rank - 1],
           "percentile " + std::to_string(q));
  }
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  expect(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.0, "median of four is the lower middle");
  expect(perfbench::percentile({5.0}, 0.99) == 5.0, "one sample");
  const double inf = std::numeric_limits<double>::infinity();
  expect(perfbench::percentile({1.0, 2.0, inf}, 0.95) == inf,
         "a failed request (+inf) misses the tail percentile");
  bool threw = false;
  try {
    perfbench::percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of nothing throws");
}

// One lane, 40 operations every 5 ms; operation 10 stalls for 100 ms.
// Everything due during the stall must wait for it, and that wait must
// show both in its latency (measured from the due time) and in how late
// the generator sent it.
void test_open_loop_stall() {
  using namespace std::chrono_literals;
  std::vector<perfbench::Scheduled> schedule;
  for (std::uint64_t i = 0; i < 40; ++i) schedule.push_back({0, i * 5'000'000});
  auto run = [&](bool stall) {
    return perfbench::run_open_loop(schedule, 1, [&](std::size_t op) {
      if (stall && op == 10) std::this_thread::sleep_for(100ms);
      return true;
    });
  };
  const auto stalled = run(true);
  const auto smooth = run(false);
  std::vector<double> late_stalled, late_smooth;
  for (const auto& o : stalled) late_stalled.push_back(o.late_ms);
  for (const auto& o : smooth) late_smooth.push_back(o.late_ms);
  expect(stalled[10].latency_ms >= 100.0, "the stalled call's own latency");
  // Op 11 is due 5 ms into the stall, so it waits at least 95 ms more.
  expect(stalled[11].latency_ms >= 90.0, "latency of the op queued behind the stall");
  expect(stalled[11].late_ms >= 90.0, "the op behind the stall is sent late");
  expect(stalled[11].service_ms < stalled[11].latency_ms,
         "service time excludes the wait behind the stall");
  expect(perfbench::percentile(late_stalled, 0.99) >= 80.0, "stall shows in late p99");
  expect(perfbench::percentile(late_stalled, 0.99) > perfbench::percentile(late_smooth, 0.99),
         "late p99 is higher with the stall than without");
  // Nothing is ever sent early.
  for (const auto& o : smooth) expect(o.late_ms >= 0.0, "no early send");
}

// A stall on one lane must not delay another lane's sends.
void test_lanes_are_independent() {
  using namespace std::chrono_literals;
  std::vector<perfbench::Scheduled> schedule;
  for (std::uint64_t i = 0; i < 20; ++i) schedule.push_back({i % 2, i * 5'000'000});
  const auto out = perfbench::run_open_loop(schedule, 2, [&](std::size_t op) {
    if (op == 0) std::this_thread::sleep_for(60ms);
    return op != 3;
  });
  expect(out[1].late_ms < 30.0, "lane 1 is not held back by lane 0");
  expect(out[2].late_ms >= 40.0, "lane 0 queues behind its own stall");
  expect(!out[3].ok && out[4].ok, "per-operation success is kept");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("core.method.natural_baseline_s"), "dotted name");
  expect(valid_metric_name("obs.overhead_frac.table1"), "digits");
  expect(valid_metric_name("a-b"), "dash");
  expect(!valid_metric_name(""), "empty");
  expect(!valid_metric_name("p99 ms"), "space");
  expect(!valid_metric_name("serve/stage"), "slash");
  expect(!valid_metric_name(std::string(65, 'a')), "too long");
  perfbench::Report report;
  report.add("x", 1.0, "s");
  bool threw = false;
  try {
    report.add("x", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "duplicate metric rejected");
  threw = false;
  try {
    report.add("bad name", 1.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "bad metric name rejected");
  report.fail("synthetic");
  expect(!report.correct() && report.failed() == 1, "a failure marks the run incorrect");
}

}  // namespace

int main() {
  test_percentile();
  test_open_loop_stall();
  test_lanes_are_independent();
  test_metric_names();
  if (g_failures > 0) {
    std::cerr << g_failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
