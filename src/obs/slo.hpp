// Declarative SLOs evaluated as multi-window burn rates.
//
// An objective says "99% of requests finish under X ms" (latency) or
// "99.9% of requests succeed" (availability). The complement of the
// target is the error budget; the burn rate is how fast the service is
// spending it — observed bad fraction divided by budget, so burn 1.0
// means "exactly on budget" and burn 10 means "the monthly budget is
// gone in three days". Following the standard multi-window practice, a
// breach requires BOTH a short window (5 m, fast detection) and a long
// window (1 h, de-flapping) to burn above threshold; breach edges are
// appended to a bounded alert log.
//
// This module is deliberately independent of the obs registry and of the
// OCPS_OBS runtime flag: every method takes `now_ns` explicitly
// (deterministic tests drive a synthetic clock, production callers pass
// obs::steady_now_ns()), so the serve daemon's `slo` op answers with obs
// off, exactly like `slowlog`. Exporting burn rates as serve.slo.* gauges
// is the caller's job and is what the runtime flag gates.
//
// Thread safety: all methods lock an internal mutex; record() is O(1)
// and status() is O(window seconds), called at scrape rate.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/second_ring.hpp"

namespace ocps::obs {

/// Objectives and alerting knobs. A target of 0 disables that objective.
struct SloConfig {
  double p99_ms = 0.0;  ///< latency objective: p99 under this many ms
  double availability = 0.0;  ///< success-rate objective, e.g. 0.999
  /// Both windows must burn at or above this rate to count as a breach.
  /// 1.0 = burning the error budget exactly as fast as it accrues.
  double burn_threshold = 1.0;
  std::size_t alert_capacity = 64;  ///< bounded alert log (oldest evicted)
};

/// Deterministic multi-window burn-rate tracker (see file comment).
class SloTracker {
 public:
  static constexpr unsigned kShortWindowSeconds = 300;   // 5 m
  static constexpr unsigned kLongWindowSeconds = 3600;   // 1 h

  explicit SloTracker(SloConfig config = {});

  /// True when at least one objective is set.
  bool configured() const noexcept;

  /// Feed one finished request: its end-to-end latency and whether it
  /// succeeded (ok == the response the client saw was a success).
  void record(double latency_ms, bool ok, std::uint64_t now_ns);

  /// One objective's evaluation at a point in time.
  struct Objective {
    std::string name;     ///< "latency" or "availability"
    double target = 0.0;  ///< p99_ms or availability as configured
    double budget = 0.0;  ///< allowed bad fraction (0.01 for a p99 SLO)
    double burn_short = 0.0;  ///< 5 m burn rate (0 when window empty)
    double burn_long = 0.0;   ///< 1 h burn rate
    bool breaching = false;
  };

  /// One appended breach-edge record.
  struct Alert {
    std::uint64_t seq = 0;  ///< monotonically increasing, never reused
    std::uint64_t at_ns = 0;
    std::string objective;
    double burn_short = 0.0;
    double burn_long = 0.0;
  };

  struct Status {
    std::vector<Objective> objectives;  ///< only configured ones
    std::vector<Alert> alerts;          ///< bounded, oldest first
    std::uint64_t alerts_total = 0;     ///< edges ever seen (incl evicted)
  };

  /// Evaluates both windows at `now_ns` and latches breach edges into
  /// the alert log (edge-triggered: one alert per transition into
  /// breach, re-armed when the objective recovers).
  Status status(std::uint64_t now_ns);

 private:
  struct Counts {  // one second's requests, or a window's sum
    std::uint64_t total = 0;
    std::uint64_t fast = 0;  ///< latency under target (counted only if set)
    std::uint64_t good = 0;  ///< ok == true
  };
  Counts window_counts(std::uint64_t now_ns, unsigned window) const;

  SloConfig config_;
  mutable std::mutex mu_;
  SecondRing<Counts> ring_{kLongWindowSeconds};
  std::vector<Alert> alerts_;
  std::uint64_t alerts_total_ = 0;
  bool latency_breaching_ = false;
  bool availability_breaching_ = false;
};

}  // namespace ocps::obs
