#include "obs/slo.hpp"

#include <algorithm>

namespace ocps::obs {

SloTracker::SloTracker(SloConfig config) : config_(config) {}

bool SloTracker::configured() const noexcept {
  return config_.p99_ms > 0.0 || config_.availability > 0.0;
}

void SloTracker::record(double latency_ms, bool ok, std::uint64_t now_ns) {
  if (!configured()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Counts& s = ring_.at(now_ns);
  ++s.total;
  if (config_.p99_ms <= 0.0 || latency_ms <= config_.p99_ms) ++s.fast;
  if (ok) ++s.good;
}

SloTracker::Counts SloTracker::window_counts(std::uint64_t now_ns,
                                             unsigned window) const {
  Counts w;
  ring_.for_window(now_ns, window, [&](const Counts& s) {
    w.total += s.total;
    w.fast += s.fast;
    w.good += s.good;
  });
  return w;
}

SloTracker::Status SloTracker::status(std::uint64_t now_ns) {
  Status out;
  std::lock_guard<std::mutex> lock(mu_);
  Counts sw = window_counts(now_ns, kShortWindowSeconds);
  Counts lw = window_counts(now_ns, kLongWindowSeconds);

  auto burn = [](std::uint64_t bad, std::uint64_t total, double budget) {
    if (total == 0 || budget <= 0.0) return 0.0;
    return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
  };
  auto evaluate = [&](const char* name, double target, double budget,
                      std::uint64_t sw_bad, std::uint64_t lw_bad,
                      bool* latched) {
    Objective o;
    o.name = name;
    o.target = target;
    o.budget = budget;
    o.burn_short = burn(sw_bad, sw.total, budget);
    o.burn_long = burn(lw_bad, lw.total, budget);
    o.breaching = sw.total > 0 && lw.total > 0 &&
                  o.burn_short >= config_.burn_threshold &&
                  o.burn_long >= config_.burn_threshold;
    if (o.breaching && !*latched) {
      ++alerts_total_;
      alerts_.push_back(Alert{alerts_total_, now_ns, o.name, o.burn_short,
                              o.burn_long});
      if (alerts_.size() > config_.alert_capacity)
        alerts_.erase(alerts_.begin(),
                      alerts_.begin() +
                          static_cast<std::ptrdiff_t>(alerts_.size() -
                                                      config_.alert_capacity));
    }
    *latched = o.breaching;
    out.objectives.push_back(std::move(o));
  };

  if (config_.p99_ms > 0.0) {
    // A p99 objective allows 1% of requests over target: budget 0.01.
    evaluate("latency", config_.p99_ms, 0.01, sw.total - sw.fast,
             lw.total - lw.fast, &latency_breaching_);
  }
  if (config_.availability > 0.0) {
    double budget = std::max(1.0 - config_.availability, 1e-9);
    evaluate("availability", config_.availability, budget,
             sw.total - sw.good, lw.total - lw.good,
             &availability_breaching_);
  }
  out.alerts = alerts_;
  out.alerts_total = alerts_total_;
  return out;
}

}  // namespace ocps::obs
