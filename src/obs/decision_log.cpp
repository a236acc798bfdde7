#include "obs/decision_log.hpp"

#include <algorithm>
#include <cmath>

namespace ocps::obs {

const char* decision_trigger_name(DecisionTrigger t) {
  switch (t) {
    case DecisionTrigger::kEpoch: return "epoch";
    case DecisionTrigger::kReload: return "reload";
    case DecisionTrigger::kFallback: return "fallback";
    case DecisionTrigger::kRequest: return "request";
  }
  return "unknown";
}

DecisionLog::DecisionLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

std::uint64_t DecisionLog::record(DecisionRecord rec, std::uint64_t now_ns) {
  const std::size_t n = rec.tenants.size();
  rec.predicted_mr.resize(n, std::nan(""));
  rec.alloc.resize(n, 0);
  rec.tenant_degraded.resize(n, false);
  rec.reconciled = false;
  rec.partial = false;
  rec.reconciled_at_ns = 0;
  rec.realized_mr.clear();
  rec.error.clear();
  rec.at_ns = now_ns;

  std::lock_guard<std::mutex> lock(mu_);
  rec.id = ++next_id_;
  const std::uint64_t id = rec.id;
  ring_[(id - 1) % capacity_] = std::move(rec);
  return id;
}

DecisionLog::ReconcileStatus DecisionLog::reconcile(
    std::uint64_t id, const std::vector<double>& realized, bool partial,
    std::uint64_t now_ns, DecisionRecord* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > next_id_) return ReconcileStatus::kUnknownId;
  DecisionRecord& rec = ring_[(id - 1) % capacity_];
  if (rec.id != id) return ReconcileStatus::kUnknownId;  // evicted
  if (rec.reconciled) return ReconcileStatus::kAlreadyReconciled;
  if (realized.size() != rec.tenants.size())
    return ReconcileStatus::kSizeMismatch;

  rec.realized_mr = realized;
  rec.error.resize(realized.size());
  for (std::size_t i = 0; i < realized.size(); ++i) {
    // A non-finite prediction propagates as-is (histograms route it to
    // bucket 0); a zero-access tenant (realized NaN) yields a NaN error.
    // Either way the sample is excluded from the accuracy accumulators.
    const double err = rec.predicted_mr[i] - realized[i];
    rec.error[i] = err;
    if (std::isfinite(err)) {
      ++error_samples_;
      sum_abs_error_ += std::fabs(err);
      max_abs_error_ = std::max(max_abs_error_, std::fabs(err));
      sum_signed_error_ += err;
    }
  }
  rec.reconciled = true;
  rec.partial = partial;
  rec.reconciled_at_ns = now_ns;
  ++reconciled_total_;
  if (out) *out = rec;
  return ReconcileStatus::kOk;
}

bool DecisionLog::find(std::uint64_t id, DecisionRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > next_id_) return false;
  const DecisionRecord& rec = ring_[(id - 1) % capacity_];
  if (rec.id != id) return false;
  if (out) *out = rec;
  return true;
}

std::vector<DecisionRecord> DecisionLog::recent(std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DecisionRecord> out;
  const std::uint64_t newest = next_id_;
  const std::uint64_t span = std::min<std::uint64_t>(
      {newest, capacity_, limit == 0 ? capacity_ : limit});
  out.reserve(span);
  for (std::uint64_t k = 0; k < span; ++k) {
    const std::uint64_t id = newest - k;
    const DecisionRecord& rec = ring_[(id - 1) % capacity_];
    if (rec.id == id) out.push_back(rec);
  }
  return out;
}

DecisionAccuracy DecisionLog::accuracy() const {
  std::lock_guard<std::mutex> lock(mu_);
  DecisionAccuracy a;
  a.decisions_total = next_id_;
  a.reconciled_total = reconciled_total_;
  a.error_samples = error_samples_;
  if (error_samples_ > 0) {
    a.mean_abs_error = sum_abs_error_ / static_cast<double>(error_samples_);
    a.max_abs_error = max_abs_error_;
    a.mean_signed_error =
        sum_signed_error_ / static_cast<double>(error_samples_);
  }
  return a;
}

std::uint64_t DecisionLog::last_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

DriftDetector::DriftDetector(DriftConfig config) : config_(config) {}

void DriftDetector::fold(Ewma& e, double err) const {
  const double abs_err = std::fabs(err);
  if (e.samples == 0) {
    e.abs = abs_err;
    e.bias = err;
  } else {
    e.abs = config_.alpha * abs_err + (1.0 - config_.alpha) * e.abs;
    e.bias = config_.alpha * err + (1.0 - config_.alpha) * e.bias;
  }
  ++e.samples;
}

void DriftDetector::observe(const DecisionRecord& rec, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  bool any = false;
  for (std::size_t i = 0; i < rec.error.size(); ++i) {
    const double err = rec.error[i];
    if (!std::isfinite(err)) continue;  // no prediction / no accesses
    any = true;
    fold(aggregate_, err);
    const std::string& name =
        i < rec.tenants.size() ? rec.tenants[i] : std::string();
    auto it = std::lower_bound(
        tenants_.begin(), tenants_.end(), name,
        [](const auto& a, const std::string& b) { return a.first < b; });
    if (it == tenants_.end() || it->first != name)
      it = tenants_.insert(it, {name, Ewma{}});
    fold(it->second, err);
  }
  if (!any || config_.threshold <= 0.0) return;

  const bool over = aggregate_.abs > config_.threshold;
  if (over && !breaching_) {
    // Edge: attribute the breach to the tenant with the worst EWMA.
    DriftAlert alert;
    alert.seq = ++alerts_total_;
    alert.at_ns = now_ns;
    alert.decision_id = rec.id;
    alert.ewma_abs = aggregate_.abs;
    alert.threshold = config_.threshold;
    double worst = -1.0;
    for (const auto& [name, e] : tenants_) {
      if (e.abs > worst) {
        worst = e.abs;
        alert.tenant = name;
      }
    }
    if (alerts_.size() >= config_.alert_capacity && !alerts_.empty())
      alerts_.erase(alerts_.begin());
    alerts_.push_back(std::move(alert));
  }
  breaching_ = over;  // re-arm once the EWMA drops back below
}

DriftStatus DriftDetector::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  DriftStatus s;
  s.configured = config_.threshold > 0.0;
  s.alpha = config_.alpha;
  s.threshold = config_.threshold;
  s.ewma_abs = aggregate_.abs;
  s.bias = aggregate_.bias;
  s.samples = aggregate_.samples;
  s.breaching = breaching_;
  s.alerts_total = alerts_total_;
  s.tenants.reserve(tenants_.size());
  for (const auto& [name, e] : tenants_) {
    DriftTenantStatus t;
    t.tenant = name;
    t.ewma_abs = e.abs;
    t.bias = e.bias;
    t.samples = e.samples;
    s.tenants.push_back(std::move(t));
  }
  return s;
}

std::vector<DriftAlert> DriftDetector::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

std::uint64_t DriftDetector::alerts_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_total_;
}

void record_prediction_errors(const DecisionRecord& rec,
                              DriftDetector* drift,
                              WindowedHistogram* window,
                              std::uint64_t now_ns) {
  if (drift) drift->observe(rec, now_ns);
  if (!enabled()) return;
  static Histogram& aggregate = histogram("dp.prediction_error");
  for (std::size_t i = 0; i < rec.error.size(); ++i) {
    const double err = rec.error[i];
    if (std::isnan(err)) continue;  // zero-access tenant: skip entirely
    // Finite errors are scaled to ppm so [-1,1] spreads across the log
    // buckets; infinities pass through raw and land in bucket 0.
    const double scaled =
        std::isfinite(err) ? std::fabs(err) * kErrorScale : err;
    aggregate.observe(scaled);
    if (i < rec.tenants.size() && !rec.tenants[i].empty())
      histogram("dp.prediction_error." + rec.tenants[i]).observe(scaled);
    if (window) window->observe_at(scaled, now_ns);
    note_exemplar("dp.prediction_error", scaled, rec.id);
  }
}

void publish_decision_metrics(const DecisionLog& log,
                              const DriftDetector* drift,
                              const WindowedHistogram* window,
                              std::uint64_t now_ns) {
  if (!enabled()) return;
  const DecisionAccuracy a = log.accuracy();
  gauge("dp.decision.total").set(static_cast<double>(a.decisions_total));
  gauge("dp.decision.reconciled")
      .set(static_cast<double>(a.reconciled_total));
  gauge("dp.decision.last_id").set(static_cast<double>(log.last_id()));
  gauge("dp.decision.mean_abs_error").set(a.mean_abs_error);
  gauge("dp.decision.max_abs_error").set(a.max_abs_error);
  gauge("dp.decision.bias").set(a.mean_signed_error);
  if (drift) {
    const DriftStatus s = drift->status();
    gauge("dp.drift.ewma_abs_error").set(s.ewma_abs);
    gauge("dp.drift.bias").set(s.bias);
    gauge("dp.drift.threshold").set(s.threshold);
    gauge("dp.drift.breaching").set(s.breaching ? 1.0 : 0.0);
    gauge("dp.drift.alerts_total").set(static_cast<double>(s.alerts_total));
    gauge("dp.drift.samples").set(static_cast<double>(s.samples));
  }
  if (window) {
    // Windowed quantiles are reported back in ratio units.
    const HistogramSnapshot snap =
        window->snapshot_at("dp.prediction_error", now_ns);
    gauge("dp.prediction_error.window.p50")
        .set(histogram_quantile(snap, 0.50) / kErrorScale);
    gauge("dp.prediction_error.window.p99")
        .set(histogram_quantile(snap, 0.99) / kErrorScale);
  }
}

}  // namespace ocps::obs
