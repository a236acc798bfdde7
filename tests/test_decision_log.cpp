// Tests for the decision-quality plane (obs/decision_log.hpp): the
// bounded decision audit ring, predicted-vs-realized reconciliation,
// the EWMA drift detector's edge-triggered alerts, and the registry
// helpers' handling of the edge cases the issue calls out — zero-access
// tenants (NaN, skipped), non-finite errors (bucket 0), and id->entry
// consistency across ring wraparound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/decision_log.hpp"
#include "obs/obs.hpp"

namespace ocps {
namespace {

using obs::DecisionAccuracy;
using obs::DecisionLog;
using obs::DecisionRecord;
using obs::DecisionTrigger;
using obs::DriftAlert;
using obs::DriftConfig;
using obs::DriftDetector;
using obs::DriftStatus;

DecisionRecord make_record(std::vector<double> predicted) {
  DecisionRecord rec;
  rec.tenants.resize(predicted.size());
  rec.alloc.resize(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    rec.tenants[i] = "t" + std::to_string(i);
    rec.alloc[i] = 100 + i;
  }
  rec.predicted_mr = std::move(predicted);
  return rec;
}

// ------------------------------------------------------------ DecisionLog

TEST(DecisionLogTest, AssignsMonotonicIdsAndFindsRecords) {
  DecisionLog log(8);
  EXPECT_EQ(log.last_id(), 0u);
  std::uint64_t a = log.record(make_record({0.5, 0.25}), 10);
  std::uint64_t b = log.record(make_record({0.4, 0.2}), 20);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(log.last_id(), 2u);

  DecisionRecord rec;
  ASSERT_TRUE(log.find(a, &rec));
  EXPECT_EQ(rec.id, a);
  EXPECT_EQ(rec.at_ns, 10u);
  EXPECT_EQ(rec.tenants.size(), 2u);
  EXPECT_FALSE(rec.reconciled);
  EXPECT_FALSE(log.find(99, &rec));
  EXPECT_FALSE(log.find(0, &rec));
}

TEST(DecisionLogTest, NormalizesShortTenantVectors) {
  DecisionLog log(4);
  DecisionRecord in;
  in.tenants = {"a", "b", "c"};
  in.alloc = {1, 2, 3};
  in.predicted_mr = {0.5};  // too short: padded with NaN
  std::uint64_t id = log.record(in, 1);
  DecisionRecord rec;
  ASSERT_TRUE(log.find(id, &rec));
  ASSERT_EQ(rec.predicted_mr.size(), 3u);
  EXPECT_DOUBLE_EQ(rec.predicted_mr[0], 0.5);
  EXPECT_TRUE(std::isnan(rec.predicted_mr[1]));
  EXPECT_TRUE(std::isnan(rec.predicted_mr[2]));
  EXPECT_EQ(rec.tenant_degraded.size(), 3u);
}

TEST(DecisionLogTest, RingWraparoundKeepsIdEntryConsistency) {
  constexpr std::size_t kCap = 4;
  DecisionLog log(kCap);
  for (int i = 0; i < 10; ++i)
    log.record(make_record({0.1 * i}), static_cast<std::uint64_t>(i));
  EXPECT_EQ(log.last_id(), 10u);

  // Ids 1..6 were evicted; 7..10 survive, and each slot's stored id must
  // match the id used for lookup (no aliased stale entries).
  DecisionRecord rec;
  for (std::uint64_t id = 1; id <= 6; ++id)
    EXPECT_FALSE(log.find(id, &rec)) << "id " << id;
  for (std::uint64_t id = 7; id <= 10; ++id) {
    ASSERT_TRUE(log.find(id, &rec)) << "id " << id;
    EXPECT_EQ(rec.id, id);
    EXPECT_EQ(rec.at_ns, id - 1);
  }

  // recent() is newest-first and bounded by what the ring still holds.
  std::vector<DecisionRecord> recent = log.recent(100);
  ASSERT_EQ(recent.size(), kCap);
  EXPECT_EQ(recent.front().id, 10u);
  EXPECT_EQ(recent.back().id, 7u);
  EXPECT_EQ(log.recent(2).size(), 2u);
}

TEST(DecisionLogTest, ReconcileComputesSignedErrors) {
  DecisionLog log(8);
  std::uint64_t id = log.record(make_record({0.5, 0.2}), 1);
  DecisionRecord rec;
  ASSERT_EQ(log.reconcile(id, {0.4, 0.3}, /*partial=*/false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  EXPECT_TRUE(rec.reconciled);
  EXPECT_FALSE(rec.partial);
  EXPECT_EQ(rec.reconciled_at_ns, 2u);
  ASSERT_EQ(rec.error.size(), 2u);
  // error = predicted - realized; positive = over-prediction.
  EXPECT_NEAR(rec.error[0], 0.1, 1e-12);
  EXPECT_NEAR(rec.error[1], -0.1, 1e-12);

  DecisionAccuracy acc = log.accuracy();
  EXPECT_EQ(acc.decisions_total, 1u);
  EXPECT_EQ(acc.reconciled_total, 1u);
  EXPECT_EQ(acc.error_samples, 2u);
  EXPECT_NEAR(acc.mean_abs_error, 0.1, 1e-12);
  EXPECT_NEAR(acc.max_abs_error, 0.1, 1e-12);
  EXPECT_NEAR(acc.mean_signed_error, 0.0, 1e-12);
}

TEST(DecisionLogTest, ReconcileRejectsBadIdsSizesAndDoubleReconcile) {
  DecisionLog log(8);
  std::uint64_t id = log.record(make_record({0.5}), 1);
  EXPECT_EQ(log.reconcile(id + 1, {0.4}, false, 2),
            DecisionLog::ReconcileStatus::kUnknownId);
  EXPECT_EQ(log.reconcile(id, {0.4, 0.5}, false, 2),
            DecisionLog::ReconcileStatus::kSizeMismatch);
  EXPECT_EQ(log.reconcile(id, {0.4}, false, 2),
            DecisionLog::ReconcileStatus::kOk);
  EXPECT_EQ(log.reconcile(id, {0.4}, false, 3),
            DecisionLog::ReconcileStatus::kAlreadyReconciled);
  // The rejected attempts must not have polluted the accuracy totals.
  EXPECT_EQ(log.accuracy().reconciled_total, 1u);
}

TEST(DecisionLogTest, ZeroAccessTenantsAreSkippedNotNan) {
  DecisionLog log(8);
  std::uint64_t id = log.record(make_record({0.5, 0.2, 0.3}), 1);
  // Tenant 1 made no accesses: realized NaN. Tenant 2 had no prediction.
  DecisionRecord in = make_record({0.5, 0.2, std::nan("")});
  DecisionLog log2(8);
  std::uint64_t id2 = log2.record(in, 1);

  DecisionRecord rec;
  ASSERT_EQ(log.reconcile(id, {0.4, std::nan(""), 0.3}, false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  EXPECT_TRUE(std::isnan(rec.error[1]));
  DecisionAccuracy acc = log.accuracy();
  EXPECT_EQ(acc.error_samples, 2u);  // NaN tenant skipped
  EXPECT_FALSE(std::isnan(acc.mean_abs_error));
  EXPECT_FALSE(std::isnan(acc.mean_signed_error));

  // A missing prediction also yields a NaN error, also skipped.
  ASSERT_EQ(log2.reconcile(id2, {0.4, 0.2, 0.3}, false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  EXPECT_TRUE(std::isnan(rec.error[2]));
  EXPECT_EQ(log2.accuracy().error_samples, 2u);
}

TEST(DecisionLogTest, LifetimeAccuracySurvivesRingEviction) {
  DecisionLog log(2);
  for (int i = 0; i < 6; ++i) {
    std::uint64_t id = log.record(make_record({0.5}), 1);
    ASSERT_EQ(log.reconcile(id, {0.4}, false, 2),
              DecisionLog::ReconcileStatus::kOk);
  }
  DecisionAccuracy acc = log.accuracy();
  EXPECT_EQ(acc.decisions_total, 6u);
  EXPECT_EQ(acc.reconciled_total, 6u);
  EXPECT_EQ(acc.error_samples, 6u);
  EXPECT_NEAR(acc.mean_abs_error, 0.1, 1e-12);
}

// ---------------------------------------------------------- DriftDetector

DecisionRecord reconciled_record(DecisionLog& log, double predicted,
                                 double realized) {
  std::uint64_t id = log.record(make_record({predicted}), 1);
  DecisionRecord rec;
  EXPECT_EQ(log.reconcile(id, {realized}, false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  return rec;
}

TEST(DriftDetectorTest, EwmaTracksAbsAndSignedError) {
  DriftConfig cfg;
  cfg.alpha = 0.5;
  DriftDetector drift(cfg);
  DecisionLog log(16);

  // First sample initializes the EWMA; later samples blend.
  drift.observe(reconciled_record(log, 0.5, 0.4), 10);  // err +0.1
  DriftStatus s = drift.status();
  EXPECT_NEAR(s.ewma_abs, 0.1, 1e-12);
  EXPECT_NEAR(s.bias, 0.1, 1e-12);
  EXPECT_EQ(s.samples, 1u);

  drift.observe(reconciled_record(log, 0.2, 0.5), 20);  // err -0.3
  s = drift.status();
  EXPECT_NEAR(s.ewma_abs, 0.5 * 0.1 + 0.5 * 0.3, 1e-12);
  EXPECT_NEAR(s.bias, 0.5 * 0.1 + 0.5 * -0.3, 1e-12);
  EXPECT_EQ(s.samples, 2u);

  ASSERT_EQ(s.tenants.size(), 1u);
  EXPECT_EQ(s.tenants[0].tenant, "t0");
  EXPECT_EQ(s.tenants[0].samples, 2u);
}

TEST(DriftDetectorTest, NonFiniteErrorsDoNotPoisonTheEwma) {
  DriftDetector drift(DriftConfig{});
  DecisionLog log(16);
  std::uint64_t id = log.record(make_record({0.5, std::nan("")}), 1);
  DecisionRecord rec;
  ASSERT_EQ(log.reconcile(id, {0.4, std::nan("")}, false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  drift.observe(rec, 10);
  DriftStatus s = drift.status();
  EXPECT_EQ(s.samples, 1u);  // only the finite error counted
  EXPECT_FALSE(std::isnan(s.ewma_abs));
}

TEST(DriftDetectorTest, AlertsAreEdgeTriggeredOnceAndRearm) {
  DriftConfig cfg;
  cfg.alpha = 1.0;  // EWMA = latest sample, easy to steer
  cfg.threshold = 0.05;
  DriftDetector drift(cfg);
  DecisionLog log(32);

  // Below threshold: no alert.
  drift.observe(reconciled_record(log, 0.50, 0.49), 10);
  EXPECT_EQ(drift.alerts_total(), 0u);
  EXPECT_FALSE(drift.status().breaching);

  // Crossing fires exactly one alert; staying above does not re-fire.
  drift.observe(reconciled_record(log, 0.50, 0.30), 20);
  drift.observe(reconciled_record(log, 0.50, 0.20), 30);
  drift.observe(reconciled_record(log, 0.50, 0.25), 40);
  EXPECT_EQ(drift.alerts_total(), 1u);
  EXPECT_TRUE(drift.status().breaching);

  // Dropping below re-arms; the next excursion fires one more.
  drift.observe(reconciled_record(log, 0.50, 0.50), 50);
  EXPECT_FALSE(drift.status().breaching);
  drift.observe(reconciled_record(log, 0.50, 0.10), 60);
  EXPECT_EQ(drift.alerts_total(), 2u);

  std::vector<DriftAlert> alerts = drift.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].seq, 1u);
  EXPECT_EQ(alerts[1].seq, 2u);
  EXPECT_EQ(alerts[0].at_ns, 20u);
  EXPECT_EQ(alerts[1].at_ns, 60u);
  EXPECT_EQ(alerts[0].tenant, "t0");
  EXPECT_GT(alerts[0].ewma_abs, alerts[0].threshold);
}

TEST(DriftDetectorTest, ZeroThresholdNeverAlertsButStillTracks) {
  DriftDetector drift(DriftConfig{});  // threshold 0 = alerting off
  DecisionLog log(16);
  drift.observe(reconciled_record(log, 0.9, 0.1), 10);
  EXPECT_EQ(drift.alerts_total(), 0u);
  DriftStatus s = drift.status();
  EXPECT_FALSE(s.configured);
  EXPECT_FALSE(s.breaching);
  EXPECT_NEAR(s.ewma_abs, 0.8, 1e-12);
}

TEST(DriftDetectorTest, AlertAttributesWorstTenant) {
  DriftConfig cfg;
  cfg.alpha = 1.0;
  cfg.threshold = 0.05;
  DriftDetector drift(cfg);
  DecisionLog log(16);
  std::uint64_t id = log.record(make_record({0.5, 0.5}), 1);
  DecisionRecord rec;
  // t1's error (0.4) dwarfs t0's (0.01): the alert names t1.
  ASSERT_EQ(log.reconcile(id, {0.49, 0.1}, false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  drift.observe(rec, 10);
  std::vector<DriftAlert> alerts = drift.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].tenant, "t1");
  EXPECT_EQ(alerts[0].decision_id, rec.id);
}

// ------------------------------------------------------- registry helpers

class DecisionMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_metrics();
  }
  void TearDown() override { obs::set_enabled(false); }
};

TEST_F(DecisionMetricsTest, NonFinitePredictionErrorLandsInBucketZero) {
  // The registry convention the issue pins down: non-finite observations
  // land in bucket 0 (as does anything < 1).
  EXPECT_EQ(obs::Histogram::bucket_index(
                std::numeric_limits<double>::infinity()),
            0u);
  EXPECT_EQ(obs::Histogram::bucket_index(std::nan("")), 0u);

  DecisionLog log(8);
  std::uint64_t id =
      log.record(make_record({std::numeric_limits<double>::infinity(),
                              0.5, 0.2}),
                 1);
  DecisionRecord rec;
  // Errors: +inf (observed raw -> bucket 0), NaN (skipped), 0.3 finite
  // (scaled to ppm).
  ASSERT_EQ(log.reconcile(id, {0.4, std::nan(""), -0.1}, false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  obs::record_prediction_errors(rec, nullptr, nullptr, 2);

  obs::Histogram& h = obs::histogram("dp.prediction_error");
  EXPECT_EQ(h.count(), 2u);  // inf + finite; the NaN tenant is skipped
  EXPECT_EQ(h.bucket(0), 1u);
  // 0.3 * 1e6 ppm lands in the bucket holding 300000.
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_index(0.3 * obs::kErrorScale)),
            1u);
}

TEST_F(DecisionMetricsTest, PublishesDecisionAndDriftGauges) {
  DecisionLog log(8);
  DriftConfig cfg;
  cfg.threshold = 0.01;
  DriftDetector drift(cfg);
  std::uint64_t id = log.record(make_record({0.5}), 1);
  DecisionRecord rec;
  ASSERT_EQ(log.reconcile(id, {0.4}, false, 2, &rec),
            DecisionLog::ReconcileStatus::kOk);
  obs::record_prediction_errors(rec, &drift, nullptr, 2);
  obs::publish_decision_metrics(log, &drift, nullptr, 2);

  EXPECT_DOUBLE_EQ(obs::gauge("dp.decision.total").value(), 1.0);
  EXPECT_DOUBLE_EQ(obs::gauge("dp.decision.reconciled").value(), 1.0);
  EXPECT_NEAR(obs::gauge("dp.decision.mean_abs_error").value(), 0.1, 1e-12);
  EXPECT_NEAR(obs::gauge("dp.drift.ewma_abs_error").value(), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(obs::gauge("dp.drift.breaching").value(), 1.0);
  EXPECT_DOUBLE_EQ(obs::gauge("dp.drift.alerts_total").value(), 1.0);
}

TEST_F(DecisionMetricsTest, BuildInfoIsAlwaysPresent) {
  obs::BuildInfo info = obs::build_info();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.simd_kernel.empty());

  // Both expositions carry it, enabled or not.
  std::ostringstream prom;
  obs::write_metrics_prometheus(prom);
  EXPECT_NE(prom.str().find("ocps_build_info{"), std::string::npos);
  std::ostringstream js;
  obs::write_metrics_json(js);
  EXPECT_NE(js.str().find("\"build_info\""), std::string::npos);
}

}  // namespace
}  // namespace ocps
