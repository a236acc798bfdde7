// Tests for the fault-tolerance layer: Result<T>, the profile sanitizer,
// hardened loaders, the fault injector, and the controller's graceful
// degradation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "locality/footprint.hpp"
#include "locality/footprint_io.hpp"
#include "locality/sanitize.hpp"
#include "runtime/controller.hpp"
#include "runtime/fault_injection.hpp"
#include "trace/generators.hpp"
#include "trace/interleave.hpp"
#include "trace/trace_io.hpp"
#include "util/check.hpp"
#include "util/result.hpp"

namespace ocps {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------- Result

TEST(Result, HoldsValueOrError) {
  Result<int> ok = Ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.value_or(7), 42);

  Result<int> err(ErrorCode::kInfeasible, "no partition");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, ErrorCode::kInfeasible);
  EXPECT_EQ(err.value_or(7), 7);
  EXPECT_EQ(err.error().to_string(), "infeasible: no partition");
}

TEST(Result, WrongSideAccessIsACheckFailure) {
  Result<int> ok = Ok(1);
  EXPECT_THROW(ok.error(), CheckError);
  Result<int> err(ErrorCode::kInternal, "boom");
  EXPECT_THROW(err.value(), CheckError);
}

// ------------------------------------------------------------- sanitizer

TEST(SanitizeMrc, CleanCurvePassesThroughBitIdentical) {
  std::vector<double> ratios = {1.0, 0.8, 0.5, 0.5, 0.25, 0.0};
  RepairReport report;
  Result<MissRatioCurve> r = sanitize_mrc(ratios, 100, 5, &report);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ratios(), ratios);
  EXPECT_EQ(report.total(), 0u);
}

TEST(SanitizeMrc, RepairsNaNByCarryingNeighbours) {
  RepairReport report;
  Result<MissRatioCurve> r =
      sanitize_mrc({kNaN, 0.9, kNaN, kNaN, 0.4}, 100, 4, &report);
  ASSERT_TRUE(r.ok());
  // Leading NaN takes the first finite value; interior NaNs carry left.
  std::vector<double> want = {0.9, 0.9, 0.9, 0.9, 0.4};
  EXPECT_EQ(r.value().ratios(), want);
  EXPECT_EQ(report.nonfinite, 3u);
}

TEST(SanitizeMrc, ClampsAndRestoresMonotonicity) {
  RepairReport report;
  Result<MissRatioCurve> r =
      sanitize_mrc({1.0, 0.6, 2.5, 0.3, -0.2}, 100, 4, &report);
  ASSERT_TRUE(r.ok());
  // 2.5 clamps to 1.0, then flattens to 0.6; -0.2 clamps to 0.0.
  std::vector<double> want = {1.0, 0.6, 0.6, 0.3, 0.0};
  EXPECT_EQ(r.value().ratios(), want);
  EXPECT_EQ(report.clamped, 2u);
  EXPECT_EQ(report.monotone, 1u);
}

TEST(SanitizeMrc, ExtendsTruncatedEstimates) {
  RepairReport report;
  Result<MissRatioCurve> r = sanitize_mrc({1.0, 0.5}, 100, 5, &report);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ratios().size(), 6u);
  EXPECT_DOUBLE_EQ(r.value().ratio(5), 0.5);
  EXPECT_EQ(report.extended, 4u);
}

TEST(SanitizeMrc, RejectsDegenerateProfiles) {
  EXPECT_FALSE(sanitize_mrc({}, 0, 4).ok());
  Result<MissRatioCurve> all_nan = sanitize_mrc({kNaN, kNaN}, 10, 4);
  ASSERT_FALSE(all_nan.ok());
  EXPECT_EQ(all_nan.error().code, ErrorCode::kDegenerateProfile);
}

TEST(SanitizeFootprint, DropsBadKnotsAndRepairsShape) {
  RepairReport report;
  Result<PiecewiseLinear> r = sanitize_footprint_knots(
      {0.0, 1.0, kNaN, 0.5, 2.0, 3.0}, {0.0, 2.0, 1.0, 9.0, -1.0, 1.5},
      &report);
  ASSERT_TRUE(r.ok());
  // Knot 2 (NaN x) and knot 3 (x not increasing) drop; knot 4's negative
  // y clamps to 0 then flattens up to 2.0; knot 5 flattens to 2.0.
  std::vector<double> want_x = {0.0, 1.0, 2.0, 3.0};
  std::vector<double> want_y = {0.0, 2.0, 2.0, 2.0};
  EXPECT_EQ(r.value().xs(), want_x);
  EXPECT_EQ(r.value().ys(), want_y);
  EXPECT_EQ(report.dropped, 2u);
  EXPECT_GE(report.monotone, 1u);
}

TEST(SanitizeFootprint, RejectsWhenNothingSurvives) {
  Result<PiecewiseLinear> r =
      sanitize_footprint_knots({kNaN}, {1.0}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kDegenerateProfile);
  EXPECT_FALSE(sanitize_footprint_knots({1.0, 2.0}, {1.0}).ok());
}

// ------------------------------------------------------ hardened loaders

TEST(CorruptFiles, TraceHeaderCountValidatedAgainstFileSize) {
  Trace t;
  for (Block b = 0; b < 100; ++b) t.accesses.push_back(b);
  std::string path = temp_path("ocps_ft_trace.bin");
  save_trace_binary(t, path);

  // Bit-flip the high byte of the count: claims ~2^59 accesses.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(15);  // last byte of the little-endian u64 count
    char high = 0x08;
    f.write(&high, 1);
  }
  try {
    load_trace_binary(path);
    FAIL() << "corrupt header count accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("claims"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CorruptFiles, TruncatedTracePayloadRejected) {
  Trace t;
  for (Block b = 0; b < 100; ++b) t.accesses.push_back(b);
  std::string path = temp_path("ocps_ft_trace_trunc.bin");
  save_trace_binary(t, path);
  std::filesystem::resize_file(path, 16 + 50 * sizeof(Block));
  EXPECT_THROW(load_trace_binary(path), CheckError);
  std::remove(path.c_str());
}

FootprintFile sample_footprint() {
  Trace t = make_sawtooth(5000, 40);
  return make_footprint_file("ft", 1.0, compute_footprint(t));
}

TEST(CorruptFiles, FootprintRoundTripStillWorks) {
  std::string path = temp_path("ocps_ft_ok.fp");
  save_footprint_file(sample_footprint(), path);
  FootprintFile back = load_footprint_file(path);
  EXPECT_EQ(back.name, "ft");
  EXPECT_GE(back.footprint.size(), 2u);
  std::remove(path.c_str());
}

// Writes a footprint file with the knot block replaced by `knot_lines`.
std::string write_footprint_with_knots(const std::string& name,
                                       const std::string& knot_lines,
                                       std::size_t knots) {
  std::string path = temp_path(name);
  std::ofstream os(path);
  os << "ocps-footprint 1\nname bad\naccess_rate 1\ntrace_length 100\n"
     << "distinct 10\nknots " << knots << '\n'
     << knot_lines;
  return path;
}

TEST(CorruptFiles, FootprintRejectsNaNKnotNamingIndex) {
  std::string path = write_footprint_with_knots(
      "ocps_ft_nan.fp", "0 0\n1 nan\n2 8\n", 3);
  try {
    load_footprint_file(path);
    FAIL() << "NaN knot accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("knot 1"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CorruptFiles, FootprintRejectsNegativeAndNonMonotoneKnots) {
  std::string neg = write_footprint_with_knots(
      "ocps_ft_neg.fp", "0 0\n1 -5\n2 8\n", 3);
  EXPECT_THROW(load_footprint_file(neg), CheckError);
  std::remove(neg.c_str());

  std::string nonmono_x = write_footprint_with_knots(
      "ocps_ft_nmx.fp", "0 0\n2 4\n1 8\n", 3);
  EXPECT_THROW(load_footprint_file(nonmono_x), CheckError);
  std::remove(nonmono_x.c_str());

  std::string nonmono_y = write_footprint_with_knots(
      "ocps_ft_nmy.fp", "0 0\n1 6\n2 4\n", 3);
  try {
    load_footprint_file(nonmono_y);
    FAIL() << "decreasing footprint accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("knot 2"), std::string::npos);
  }
  std::remove(nonmono_y.c_str());
}

TEST(CorruptFiles, FootprintKnotCountValidatedAgainstFileSize) {
  std::string path = write_footprint_with_knots(
      "ocps_ft_huge.fp", "0 0\n1 4\n", 4000000000ULL);
  try {
    load_footprint_file(path);
    FAIL() << "absurd knot count accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("claims"), std::string::npos);
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------- fault injector

TEST(FaultInjector, ScheduleIsDeterministic) {
  FaultInjectionConfig config = FaultInjectionConfig::uniform(0.3, 99);
  FaultInjector a(config), b(config);
  for (std::size_t epoch = 0; epoch < 40; ++epoch) {
    EXPECT_EQ(a.fail_dp(epoch), b.fail_dp(epoch));
    for (std::size_t prog = 0; prog < 4; ++prog) {
      EXPECT_EQ(a.drop_estimate(epoch, prog), b.drop_estimate(epoch, prog));
      std::vector<double> ra(64, 0.5), rb(64, 0.5);
      a.corrupt_mrc(epoch, prog, ra);
      b.corrupt_mrc(epoch, prog, rb);
      bool equal = ra.size() == rb.size();
      for (std::size_t i = 0; equal && i < ra.size(); ++i)
        equal = (ra[i] == rb[i]) ||
                (std::isnan(ra[i]) && std::isnan(rb[i]));
      EXPECT_TRUE(equal);
    }
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
  EXPECT_GT(a.injected_total(), 0u);
}

TEST(FaultInjector, ZeroRatesAreInert) {
  FaultInjector injector{FaultInjectionConfig{}};
  std::vector<double> ratios = {1.0, 0.5, 0.2};
  std::vector<double> before = ratios;
  for (std::size_t epoch = 0; epoch < 20; ++epoch) {
    EXPECT_FALSE(injector.drop_estimate(epoch, 0));
    EXPECT_FALSE(injector.fail_dp(epoch));
    injector.corrupt_mrc(epoch, 0, ratios);
  }
  EXPECT_EQ(ratios, before);
  EXPECT_EQ(injector.injected_total(), 0u);
}

TEST(FaultInjector, RejectsBadRates) {
  FaultInjectionConfig config;
  config.nan_rate = 1.5;
  EXPECT_THROW(FaultInjector{config}, CheckError);
}

// ----------------------------------------------- controller degradation

InterleavedTrace controller_mix() {
  Trace hungry = make_cyclic(40000, 150);
  Trace small = make_sawtooth(40000, 20);
  return interleave_proportional({hungry, small}, {1.0, 1.0}, 80000);
}

ControllerConfig controller_config() {
  ControllerConfig config;
  config.capacity = 200;
  config.epoch_length = 10000;
  config.sampling_rate = 0.5;
  return config;
}

TEST(ControllerFaults, InertHooksMatchNoHooksBitForBit) {
  InterleavedTrace mix = controller_mix();
  ControllerConfig config = controller_config();
  ControllerResult plain = run_online_controller(mix, 2, config);
  FaultInjector injector(FaultInjectionConfig::uniform(0.0, 1));
  ControllerHooks hooks = injector.hooks();
  ControllerResult hooked = run_online_controller(mix, 2, config, hooks);
  EXPECT_EQ(plain.alloc_history, hooked.alloc_history);
  EXPECT_EQ(plain.sim.misses, hooked.sim.misses);
  EXPECT_EQ(plain.epochs_degraded, 0u);
  EXPECT_EQ(plain.repairs, 0u);
  EXPECT_EQ(plain.fallbacks, 0u);
}

TEST(ControllerFaults, AllEstimatesDroppedFallsBackToEqualPartition) {
  InterleavedTrace mix = controller_mix();
  ControllerHooks hooks;
  hooks.drop_estimate = [](std::size_t, std::size_t) { return true; };
  ControllerResult r =
      run_online_controller(mix, 2, controller_config(), hooks);
  ASSERT_GE(r.epochs, 2u);
  for (const auto& alloc : r.alloc_history) {
    EXPECT_EQ(alloc[0], 100u);
    EXPECT_EQ(alloc[1], 100u);
  }
  EXPECT_EQ(r.epochs_degraded, r.epochs);
  EXPECT_EQ(r.fallbacks, r.epochs);
  for (const auto& h : r.health) {
    EXPECT_EQ(h.degraded_programs, 2u);
    EXPECT_TRUE(h.held_allocation);
  }
}

TEST(ControllerFaults, DpFailureHoldsLastGoodAllocation) {
  InterleavedTrace mix = controller_mix();
  const std::size_t bad_epoch = 3;
  ControllerHooks hooks;
  hooks.fail_dp = [=](std::size_t epoch) { return epoch == bad_epoch; };
  ControllerResult r =
      run_online_controller(mix, 2, controller_config(), hooks);
  ASSERT_GT(r.epochs, bad_epoch + 1);
  // alloc_history[e+1] is the allocation decided at epoch e.
  EXPECT_EQ(r.alloc_history[bad_epoch + 1], r.alloc_history[bad_epoch]);
  EXPECT_EQ(r.epochs_degraded, 1u);
  EXPECT_EQ(r.fallbacks, 1u);
  EXPECT_TRUE(r.health[bad_epoch].dp_failed);
  EXPECT_TRUE(r.health[bad_epoch].held_allocation);
  // The learned skew survives the bad epoch (not reset to equal).
  EXPECT_GT(r.alloc_history.back()[0], 150u);
}

TEST(ControllerFaults, DroppedEpochHoldsLastGoodAndRecovers) {
  InterleavedTrace mix = controller_mix();
  const std::size_t bad_epoch = 2;
  ControllerHooks hooks;
  hooks.drop_estimate = [=](std::size_t epoch, std::size_t) {
    return epoch == bad_epoch;
  };
  ControllerResult r =
      run_online_controller(mix, 2, controller_config(), hooks);
  ASSERT_GT(r.epochs, bad_epoch + 1);
  EXPECT_EQ(r.health[bad_epoch].degraded_programs, 2u);
  EXPECT_EQ(r.epochs_degraded, 1u);
  // Later epochs re-optimize: the run still ends strongly skewed.
  EXPECT_GT(r.alloc_history.back()[0], 150u);
}

TEST(ControllerFaults, CorruptedEstimatesAreRepairedInFlight) {
  InterleavedTrace mix = controller_mix();
  ControllerHooks hooks;
  hooks.corrupt_mrc = [](std::size_t, std::size_t,
                         std::vector<double>& ratios) {
    ratios[ratios.size() / 2] = kNaN;  // one NaN every estimate
    ratios[ratios.size() / 3] = 7.5;   // and one spike
  };
  ControllerResult r =
      run_online_controller(mix, 2, controller_config(), hooks);
  EXPECT_GT(r.repairs, 0u);
  // Repairs are not degradation: every epoch still ran the DP.
  EXPECT_EQ(r.epochs_degraded, 0u);
  EXPECT_EQ(r.fallbacks, 0u);
  EXPECT_GT(r.alloc_history.back()[0], 150u);
}

TEST(ControllerFaults, HysteresisCapBoundsPerEpochChange) {
  InterleavedTrace mix = controller_mix();
  ControllerConfig config = controller_config();
  config.max_delta_units = 8;
  ControllerResult r = run_online_controller(mix, 2, config);
  for (std::size_t e = 1; e < r.alloc_history.size(); ++e) {
    std::size_t moved = 0, total = 0;
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& prev = r.alloc_history[e - 1];
      const auto& cur = r.alloc_history[e];
      moved += cur[i] > prev[i] ? cur[i] - prev[i] : 0;
      total += cur[i];
    }
    EXPECT_LE(moved, 8u);
    EXPECT_EQ(total, config.capacity);
  }
}

TEST(ControllerFaults, RestartPolicyResetsToEqualAndCompletes) {
  InterleavedTrace mix = controller_mix();
  const std::size_t bad_epoch = 3;
  ControllerConfig config = controller_config();
  config.fault_policy = FaultPolicy::kRestartOnError;
  ControllerHooks hooks;
  hooks.drop_estimate = [=](std::size_t epoch, std::size_t) {
    return epoch == bad_epoch;
  };
  ControllerResult r = run_online_controller(mix, 2, config, hooks);
  ASSERT_GT(r.epochs, bad_epoch + 1);
  EXPECT_TRUE(r.health[bad_epoch].restarted);
  EXPECT_EQ(r.alloc_history[bad_epoch + 1],
            std::vector<std::size_t>({100, 100}));
  // It still finishes the run and re-learns afterwards.
  EXPECT_GT(r.alloc_history.back()[0], 150u);
}

TEST(ControllerFaults, GracefulBeatsRestartUnderSustainedFaults) {
  InterleavedTrace mix = controller_mix();
  ControllerConfig graceful = controller_config();
  ControllerConfig restart = controller_config();
  restart.fault_policy = FaultPolicy::kRestartOnError;

  FaultInjector a(FaultInjectionConfig::uniform(0.15, 7));
  ControllerHooks ha = a.hooks();
  ControllerResult rg = run_online_controller(mix, 2, graceful, ha);
  FaultInjector b(FaultInjectionConfig::uniform(0.15, 7));
  ControllerHooks hb = b.hooks();
  ControllerResult rr = run_online_controller(mix, 2, restart, hb);

  // The estimate-side fault exposure is identical across policies (the
  // schedule is a pure function of seed/epoch/program); only the DP hook
  // may be consulted a different number of times.
  EXPECT_EQ(a.injected_nan(), b.injected_nan());
  EXPECT_EQ(a.injected_spikes(), b.injected_spikes());
  EXPECT_EQ(a.injected_truncations(), b.injected_truncations());
  EXPECT_EQ(a.injected_drops(), b.injected_drops());
  EXPECT_LE(rg.sim.group_miss_ratio(), rr.sim.group_miss_ratio());
}

}  // namespace
}  // namespace ocps
