// Decision-quality plane: partition decision audit trail + model drift.
//
// The DP pipeline turns *predicted* per-tenant miss ratios into an
// allocation, applies it, and moves on — nothing ever checks the
// prediction against what the cache then actually did. This module
// closes that loop:
//
//  * DecisionLog — a bounded, thread-safe ring of DecisionRecords, one
//    per partition decision (controller epoch, serve request, reload or
//    fallback), each with a stable monotonically-increasing id. One
//    epoch later the caller reconciles the record with realized
//    per-tenant miss ratios; the signed gap `predicted - realized`
//    (positive = the model over-predicted misses) is the prediction
//    error the whole plane is built around.
//  * DriftDetector — an EWMA of the absolute prediction error with a
//    configurable breach threshold and an edge-triggered bounded alert
//    log (same shape as SloTracker's). When the paper's independence
//    assumption stops holding — shared footprints, phase changes — the
//    EWMA climbs and exactly one alert fires per excursion.
//
// Like SloTracker, both classes are deliberately independent of the
// metrics registry and of the OCPS_OBS runtime flag: they cost a mutex
// + a few vectors, and the `decisions` serve op answers from them even
// with observability off. Callers stamp records with
// obs::steady_now_ns().
// Only the helper functions at the bottom (histograms, gauges,
// exemplars) touch the registry, and those gate on obs::enabled().
//
// Units: miss-ratio errors live in [-1, 1], which would collapse into
// bucket 0 of the power-of-two log histograms. dp.prediction_error
// histograms therefore record |error| in parts-per-million
// (kErrorScale); non-finite errors are passed through raw so they land
// in bucket 0 by the registry's own convention. Gauges stay in ratio
// units. See docs/observability.md, "Decision quality and model drift".
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace ocps::obs {

/// Histogram scaling: ratio error -> parts-per-million.
inline constexpr double kErrorScale = 1e6;

/// What prompted a partition decision.
enum class DecisionTrigger {
  kEpoch,     ///< controller epoch boundary, DP re-solved
  kReload,    ///< first decision after a profile-set hot reload
  kFallback,  ///< degradation ladder engaged (held / equal / restart)
  kRequest,   ///< on-demand solve for a serve `partition` request
};

const char* decision_trigger_name(DecisionTrigger t);

/// One partition decision and, once reconciled, its realized outcome.
/// `predicted_mr[i]` is the model's miss-ratio forecast for tenant i at
/// the chosen allocation (NaN = the model had no estimate);
/// `realized_mr[i]` is misses/accesses observed over the following
/// epoch (NaN = the tenant made no accesses, skipped in accuracy
/// stats); `error[i] = predicted_mr[i] - realized_mr[i]`.
struct DecisionRecord {
  std::uint64_t id = 0;  ///< 1-based, assigned by DecisionLog; 0 = invalid
  std::uint64_t epoch = 0;
  std::uint64_t at_ns = 0;
  DecisionTrigger trigger = DecisionTrigger::kEpoch;
  std::vector<std::string> tenants;
  std::vector<std::size_t> alloc;      ///< chosen units per tenant
  std::vector<double> predicted_mr;
  std::vector<bool> tenant_degraded;   ///< estimate repaired/dropped
  std::uint64_t solve_ns = 0;          ///< DP wall time (0 = no solve)
  bool incremental = false;            ///< suffix-only DP re-solve
  std::string note;                    ///< human reason (fallback cause)
  // Reconciliation (one epoch later).
  bool reconciled = false;
  bool partial = false;  ///< realized over a truncated trailing epoch
  std::uint64_t reconciled_at_ns = 0;
  std::vector<double> realized_mr;
  std::vector<double> error;
};

/// Lifetime accuracy summary over every reconciled decision (not just
/// those still in the ring). `mean_signed_error` is the bias: positive
/// means the model systematically over-predicts miss ratios.
struct DecisionAccuracy {
  std::uint64_t decisions_total = 0;
  std::uint64_t reconciled_total = 0;
  std::uint64_t error_samples = 0;  ///< finite per-tenant errors
  double mean_abs_error = 0.0;
  double max_abs_error = 0.0;
  double mean_signed_error = 0.0;
};

/// Bounded thread-safe audit trail of partition decisions. Ids are
/// stable and monotonically increasing; the ring keeps the most recent
/// `capacity` records and lookup stays O(1) across wraparound (slot
/// (id-1) % capacity, validated against the stored id).
class DecisionLog {
 public:
  enum class ReconcileStatus {
    kOk,
    kUnknownId,          ///< never issued, or already evicted
    kAlreadyReconciled,
    kSizeMismatch,       ///< realized vector != tenant count
  };

  explicit DecisionLog(std::size_t capacity = 128);

  /// Stamps `rec` with the next id and `now_ns`, stores it, returns the
  /// id. Tenant-indexed vectors the caller left empty are normalized to
  /// tenants.size() (predicted_mr padded with NaN).
  std::uint64_t record(DecisionRecord rec, std::uint64_t now_ns);

  /// Attaches realized miss ratios to decision `id` and computes the
  /// signed errors. On kOk, `*out` (if non-null) receives the updated
  /// record. NaN entries in `realized` mark zero-access tenants; their
  /// error is NaN and excluded from accuracy totals.
  ReconcileStatus reconcile(std::uint64_t id,
                            const std::vector<double>& realized,
                            bool partial, std::uint64_t now_ns,
                            DecisionRecord* out = nullptr);

  /// O(1) id lookup; false when the id was never issued or has been
  /// overwritten by ring wraparound.
  bool find(std::uint64_t id, DecisionRecord* out) const;

  /// Up to `limit` most recent records, newest first.
  std::vector<DecisionRecord> recent(std::size_t limit) const;

  DecisionAccuracy accuracy() const;
  std::uint64_t last_id() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<DecisionRecord> ring_;
  std::uint64_t next_id_ = 0;  ///< last issued id
  // Lifetime accuracy accumulators (survive ring eviction).
  std::uint64_t reconciled_total_ = 0;
  std::uint64_t error_samples_ = 0;
  double sum_abs_error_ = 0.0;
  double max_abs_error_ = 0.0;
  double sum_signed_error_ = 0.0;
};

/// DriftDetector tuning. `threshold` compares against the EWMA of the
/// absolute prediction error (ratio units); 0 disables alerting but
/// the EWMAs are still tracked for status views.
struct DriftConfig {
  double alpha = 0.25;          ///< EWMA weight of the newest sample
  double threshold = 0.0;
  std::size_t alert_capacity = 64;
};

/// One edge-triggered drift breach (same shape as SloTracker::Alert).
/// `tenant` names the worst offender (highest per-tenant EWMA) at the
/// moment of the breach; `decision_id` is the reconciled decision whose
/// errors tipped the aggregate over.
struct DriftAlert {
  std::uint64_t seq = 0;
  std::uint64_t at_ns = 0;
  std::uint64_t decision_id = 0;
  std::string tenant;
  double ewma_abs = 0.0;
  double threshold = 0.0;
};

struct DriftTenantStatus {
  std::string tenant;
  double ewma_abs = 0.0;
  double bias = 0.0;  ///< EWMA of the signed error
  std::uint64_t samples = 0;
};

struct DriftStatus {
  bool configured = false;  ///< threshold > 0
  double alpha = 0.0;
  double threshold = 0.0;
  double ewma_abs = 0.0;    ///< aggregate |error| EWMA
  double bias = 0.0;        ///< aggregate signed-error EWMA
  std::uint64_t samples = 0;
  bool breaching = false;
  std::uint64_t alerts_total = 0;
  std::vector<DriftTenantStatus> tenants;  ///< sorted by tenant name
};

/// EWMA model-drift monitor. Feed every reconciled decision through
/// observe(); alerts are edge-triggered on the *aggregate* EWMA
/// crossing the threshold (re-armed when it drops back below), so one
/// sustained excursion logs exactly one alert. Per-tenant EWMAs are
/// kept for attribution (`ocps why`, status views) but do not alert on
/// their own. Thread-safe; registry-independent like DecisionLog.
class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig config = {});

  /// Folds the record's finite errors into the EWMAs. Non-finite
  /// errors (no prediction / zero-access tenants) are skipped. May
  /// append one alert.
  void observe(const DecisionRecord& rec, std::uint64_t now_ns);

  DriftStatus status() const;
  std::vector<DriftAlert> alerts() const;  ///< bounded, oldest dropped
  std::uint64_t alerts_total() const;
  const DriftConfig& config() const { return config_; }

 private:
  struct Ewma {
    double abs = 0.0;
    double bias = 0.0;
    std::uint64_t samples = 0;
  };
  void fold(Ewma& e, double err) const;

  const DriftConfig config_;
  mutable std::mutex mu_;
  Ewma aggregate_;
  std::vector<std::pair<std::string, Ewma>> tenants_;  ///< sorted by name
  bool breaching_ = false;
  std::uint64_t alerts_total_ = 0;
  std::vector<DriftAlert> alerts_;
};

/// Feeds one freshly-reconciled record into the metrics plane: the
/// drift detector (always, it is registry-independent), and — only
/// when obs::enabled() — the dp.prediction_error lifetime histograms
/// (aggregate + per-tenant, ppm), the optional windowed histogram, and
/// per-bucket exemplars keyed by the decision id. Call immediately
/// after DecisionLog::reconcile returns kOk.
void record_prediction_errors(const DecisionRecord& rec,
                              DriftDetector* drift,
                              WindowedHistogram* window,
                              std::uint64_t now_ns);

/// Publishes the dp.decision.* / dp.drift.* gauge families from the
/// current log + detector state (ratio units), plus windowed
/// dp.prediction_error quantile gauges when `window` is given. No-op
/// when obs::enabled() is false. Call on scrape.
void publish_decision_metrics(const DecisionLog& log,
                              const DriftDetector* drift,
                              const WindowedHistogram* window,
                              std::uint64_t now_ns);

}  // namespace ocps::obs
