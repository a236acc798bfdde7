// Tests for src/locality: reuse times, footprints (linear formula vs the
// definitional oracle), HOTL conversions, exact stack distances, MRC
// utilities, footprint file IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cachesim/lru.hpp"
#include "locality/footprint.hpp"
#include "locality/footprint_io.hpp"
#include "locality/hotl.hpp"
#include "locality/mrc.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/reuse_time.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "util/check.hpp"

namespace ocps {
namespace {

// The paper's Fig. 3 example trace: a a x b b y a a x b b y.
Trace fig3_trace() { return parse_token_trace("a a x b b y a a x b b y"); }

TEST(ReuseTime, Fig3Histogram) {
  ReuseProfile p = profile_reuse(fig3_trace());
  EXPECT_EQ(p.trace_length, 12u);
  EXPECT_EQ(p.distinct, 4u);
  EXPECT_EQ(p.reuse_pairs(), 8u);
  // Positions (1-indexed): a at 1,2,7,8; x at 3,9; b at 4,5,10,11;
  // y at 6,12. rt = j - i + 1 (Eq. 4):
  //   a: (1,2)->2, (2,7)->6, (7,8)->2 ; b: (4,5)->2, (5,10)->6, (10,11)->2
  //   x: (3,9)->7 ; y: (6,12)->7.
  EXPECT_EQ(p.freq[2], 4u);
  EXPECT_EQ(p.freq[6], 2u);
  EXPECT_EQ(p.freq[7], 2u);
  std::uint64_t total = 0;
  for (auto f : p.freq) total += f;
  EXPECT_EQ(total, 8u);
}

TEST(ReuseTime, FirstAndLastPositions) {
  ReuseProfile p = profile_reuse(fig3_trace());
  // First accesses at positions 1 (a), 3 (x), 4 (b), 6 (y).
  EXPECT_EQ(p.first_pos, (std::vector<std::uint64_t>{1, 3, 4, 6}));
  // Last accesses at 8 (a), 9 (x), 11 (b), 12 (y).
  EXPECT_EQ(p.last_pos, (std::vector<std::uint64_t>{8, 9, 11, 12}));
}

TEST(ReuseTime, SingleAccessTrace) {
  ReuseProfile p = profile_reuse(Trace{{7}});
  EXPECT_EQ(p.trace_length, 1u);
  EXPECT_EQ(p.distinct, 1u);
  EXPECT_EQ(p.reuse_pairs(), 0u);
}

TEST(Footprint, HandEvaluatedSmallTraces) {
  // "a b": fp(1) = 1, fp(2) = 2.
  FootprintCurve fp = compute_footprint(parse_token_trace("a b"));
  EXPECT_NEAR(fp.fp[1], 1.0, 1e-12);
  EXPECT_NEAR(fp.fp[2], 2.0, 1e-12);
  // "a b a", fp(2) = 2 (both windows have 2 distinct).
  FootprintCurve fp2 = compute_footprint(parse_token_trace("a b a"));
  EXPECT_NEAR(fp2.fp[1], 1.0, 1e-12);
  EXPECT_NEAR(fp2.fp[2], 2.0, 1e-12);
  EXPECT_NEAR(fp2.fp[3], 2.0, 1e-12);
}

TEST(Footprint, EndpointsAlwaysExact) {
  for (auto trace : {make_cyclic(500, 17), make_zipf(500, 40, 1.0, 3),
                     make_sawtooth(500, 23)}) {
    FootprintCurve fp = compute_footprint(trace);
    EXPECT_DOUBLE_EQ(fp.fp[0], 0.0);
    EXPECT_NEAR(fp.fp[1], 1.0, 1e-9);  // one access = one block
    EXPECT_NEAR(fp.fp.back(), static_cast<double>(trace.distinct_blocks()),
                1e-9);
  }
}

// Property: the linear-time formula equals the definitional average for
// every window length, across generator shapes.
class FootprintOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(FootprintOracleProperty, MatchesBruteForce) {
  Trace trace;
  switch (GetParam()) {
    case 0: trace = make_cyclic(400, 13); break;
    case 1: trace = make_sawtooth(400, 19); break;
    case 2: trace = make_zipf(400, 37, 0.8, 5); break;
    case 3: trace = make_uniform(400, 31, 6); break;
    case 4: trace = make_hot_cold(400, 5, 40, 0.7, 7); break;
    case 5: trace = fig3_trace(); break;
    case 6: trace = make_stream(200); break;
    case 7: trace = make_scan_mix(400, 9, 0.9, {{30, 0.2}, {70, 0.1}}, 8);
      break;
    case 8: trace = make_cyclic(50, 1); break;  // one block, n - 1 reuses
    case 9: trace = Trace{{7}}; break;          // n = 1
    default: FAIL();
  }
  FootprintCurve fast = compute_footprint(trace);
  std::vector<double> slow = footprint_brute_force(trace, trace.length());
  for (std::size_t w = 1; w <= trace.length(); ++w)
    ASSERT_NEAR(fast.fp[w], slow[w], 1e-9) << "w=" << w;
}

INSTANTIATE_TEST_SUITE_P(Shapes, FootprintOracleProperty,
                         ::testing::Range(0, 10));

TEST(Footprint, RejectsMalformedProfiles) {
  // Arrays that do not match trace_length would be read out of bounds.
  ReuseProfile empty;
  empty.trace_length = 5;
  EXPECT_THROW(footprint_from_profile(empty), CheckError);

  const ReuseProfile good = profile_reuse(fig3_trace());
  ASSERT_NO_THROW(footprint_from_profile(good));

  ReuseProfile short_list = good;  // one first position missing
  short_list.first_pos.pop_back();
  EXPECT_THROW(footprint_from_profile(short_list), CheckError);

  ReuseProfile unsorted = good;  // last positions out of order
  std::swap(unsorted.last_pos[1], unsorted.last_pos[2]);
  EXPECT_THROW(footprint_from_profile(unsorted), CheckError);

  ReuseProfile past_end = good;  // a last access after position n
  past_end.last_pos.back() = good.trace_length + 1;
  EXPECT_THROW(footprint_from_profile(past_end), CheckError);
}

TEST(Footprint, MonotoneNonDecreasing) {
  FootprintCurve fp = compute_footprint(make_zipf(5000, 200, 1.0, 8));
  for (std::size_t w = 1; w < fp.fp.size(); ++w)
    ASSERT_GE(fp.fp[w] + 1e-12, fp.fp[w - 1]);
}

TEST(Footprint, InterpolationAndInverseAreConsistent) {
  FootprintCurve fp = compute_footprint(make_uniform(3000, 100, 9));
  for (double target : {5.0, 20.0, 60.0, 95.0}) {
    double w = fp.inverse(target);
    EXPECT_NEAR(fp(w), target, 1e-6);
  }
}

TEST(Footprint, CurveExportMatchesDense) {
  FootprintCurve fp = compute_footprint(make_zipf(2000, 80, 1.1, 10));
  PiecewiseLinear curve = fp.to_curve(0);
  for (std::size_t w = 0; w < fp.fp.size(); w += 97)
    EXPECT_NEAR(curve(static_cast<double>(w)), fp.fp[w], 1e-12);
}

TEST(StackDistance, SmallTraceByHand) {
  // Trace a b a b c a: depths — a:inf, b:inf, a:2, b:2, c:inf, a:3.
  Trace t = parse_token_trace("a b a b c a");
  StackDistanceHistogram h = stack_distances(t);
  EXPECT_EQ(h.cold_misses, 3u);
  EXPECT_EQ(h.hist[2], 2u);
  EXPECT_EQ(h.hist[3], 1u);
}

TEST(StackDistance, MissesMatchLruSimulatorEverySize) {
  Trace t = make_zipf(4000, 120, 0.9, 12);
  StackDistanceHistogram h = stack_distances(t);
  for (std::size_t c : {1u, 2u, 5u, 17u, 40u, 80u, 119u, 130u}) {
    LruCache cache(c);
    for (Block b : t.accesses) cache.access(b);
    EXPECT_EQ(h.misses_at(c), cache.misses()) << "c=" << c;
  }
}

TEST(StackDistance, ExactMrcBoundaries) {
  Trace t = make_cyclic(1000, 10);
  MissRatioCurve mrc = exact_lru_mrc(t, 20);
  EXPECT_DOUBLE_EQ(mrc.ratio(0), 1.0);
  // Cyclic under LRU thrashes below the working set...
  EXPECT_DOUBLE_EQ(mrc.ratio(9), 1.0);
  // ...and keeps everything at/above it (only 10 cold misses).
  EXPECT_NEAR(mrc.ratio(10), 10.0 / 1000.0, 1e-12);
  EXPECT_NEAR(mrc.ratio(20), 10.0 / 1000.0, 1e-12);
}

TEST(Hotl, FillTimeInvertsFootprint) {
  FootprintCurve fp = compute_footprint(make_uniform(3000, 100, 13));
  double ft = fill_time(fp, 50.0);
  EXPECT_NEAR(fp(ft), 50.0, 1e-6);
  EXPECT_GT(inter_miss_time(fp, 50.0), 0.0);
}

TEST(Hotl, MrcIsMonotoneAndBounded) {
  FootprintCurve fp = compute_footprint(make_zipf(20000, 300, 0.9, 14));
  MissRatioCurve mrc = hotl_mrc(fp, 400);
  EXPECT_DOUBLE_EQ(mrc.ratio(0), 1.0);
  EXPECT_TRUE(mrc.is_non_increasing(1e-12));
  for (std::size_t c = 0; c <= 400; ++c) {
    ASSERT_GE(mrc.ratio(c), 0.0);
    ASSERT_LE(mrc.ratio(c), 1.0);
  }
  // Past the data size only compulsory misses remain.
  EXPECT_NEAR(mrc.ratio(400), 300.0 / 20000.0, 1e-9);
}

// Property: the HOTL estimate tracks the exact LRU MRC closely on
// random-access workloads (the reuse-window hypothesis holds for them).
class HotlAccuracyProperty : public ::testing::TestWithParam<int> {};

TEST_P(HotlAccuracyProperty, TracksExactLruMrc) {
  Trace trace;
  std::size_t cap = 0;
  switch (GetParam()) {
    case 0: trace = make_zipf(60000, 200, 0.9, 15); cap = 250; break;
    case 1: trace = make_uniform(60000, 150, 16); cap = 200; break;
    case 2: trace = make_hot_cold(60000, 20, 200, 0.8, 17); cap = 250; break;
    default: FAIL();
  }
  MissRatioCurve exact = exact_lru_mrc(trace, cap);
  MissRatioCurve hotl = hotl_mrc(compute_footprint(trace), cap);
  double worst = 0.0;
  for (std::size_t c = 1; c <= cap; ++c)
    worst = std::max(worst, std::abs(exact.ratio(c) - hotl.ratio(c)));
  EXPECT_LT(worst, 0.03) << "max abs error " << worst;
}

INSTANTIATE_TEST_SUITE_P(Shapes, HotlAccuracyProperty,
                         ::testing::Range(0, 3));

TEST(Hotl, CyclicCliffIsCaptured) {
  // The LRU pathology: cyclic(wss) misses everything below wss. HOTL's
  // average-window model smooths the cliff but must still show ~1 far
  // below it and ~cold at/above it.
  Trace t = make_cyclic(50000, 100);
  MissRatioCurve mrc = hotl_mrc(compute_footprint(t), 150);
  EXPECT_GT(mrc.ratio(50), 0.9);
  EXPECT_LT(mrc.ratio(110), 0.05);
}

TEST(Mrc, ConvexityDetection) {
  MissRatioCurve convex({1.0, 0.5, 0.3, 0.2, 0.15, 0.12}, 1000);
  EXPECT_TRUE(convex.is_convex());
  MissRatioCurve cliff({1.0, 1.0, 1.0, 0.1, 0.1, 0.1}, 1000);
  EXPECT_FALSE(cliff.is_convex());
}

TEST(Mrc, ConvexMinorantProperties) {
  MissRatioCurve cliff({1.0, 1.0, 1.0, 0.1, 0.1, 0.05}, 1000);
  MissRatioCurve hull = cliff.convex_minorant();
  EXPECT_TRUE(hull.is_convex(1e-9));
  for (std::size_t c = 0; c <= 5; ++c)
    ASSERT_LE(hull.ratio(c), cliff.ratio(c) + 1e-12) << "c=" << c;
  // Endpoints are preserved.
  EXPECT_DOUBLE_EQ(hull.ratio(0), 1.0);
  EXPECT_DOUBLE_EQ(hull.ratio(5), 0.05);
}

TEST(Mrc, ConvexMinorantOfConvexIsIdentity) {
  MissRatioCurve convex({1.0, 0.5, 0.3, 0.2, 0.15, 0.12}, 1000);
  MissRatioCurve hull = convex.convex_minorant();
  for (std::size_t c = 0; c <= 5; ++c)
    EXPECT_NEAR(hull.ratio(c), convex.ratio(c), 1e-12);
}

TEST(Mrc, MinSizeForRatio) {
  MissRatioCurve mrc({1.0, 0.6, 0.3, 0.3, 0.1}, 100);
  EXPECT_EQ(mrc.min_size_for_ratio(0.65), 1u);
  EXPECT_EQ(mrc.min_size_for_ratio(0.3), 2u);
  EXPECT_EQ(mrc.min_size_for_ratio(0.0), 4u);  // unattainable -> capacity
  EXPECT_EQ(mrc.min_size_for_ratio(1.0), 0u);
}

TEST(Mrc, RatioAtInterpolates) {
  MissRatioCurve mrc({1.0, 0.5, 0.25}, 100);
  EXPECT_DOUBLE_EQ(mrc.ratio_at(0.5), 0.75);
  EXPECT_DOUBLE_EQ(mrc.ratio_at(1.5), 0.375);
  EXPECT_DOUBLE_EQ(mrc.ratio_at(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(mrc.ratio_at(10.0), 0.25);
}

TEST(Mrc, MonotoneRepair) {
  MissRatioCurve bumpy({1.0, 0.4, 0.6, 0.2}, 10);
  MissRatioCurve fixed = bumpy.monotone_repaired();
  EXPECT_TRUE(fixed.is_non_increasing());
  EXPECT_DOUBLE_EQ(fixed.ratio(2), 0.4);
}

TEST(Mrc, MissCountScalesByAccesses) {
  MissRatioCurve mrc({1.0, 0.5}, 2000);
  EXPECT_DOUBLE_EQ(mrc.miss_count(1), 1000.0);
}

TEST(Mrc, RejectsOutOfRangeRatios) {
  EXPECT_THROW(MissRatioCurve({1.5}, 10), CheckError);
  EXPECT_THROW(MissRatioCurve({-0.5}, 10), CheckError);
}

TEST(FootprintIo, RoundTripPreservesModel) {
  FootprintCurve fp = compute_footprint(make_zipf(10000, 150, 1.0, 18));
  FootprintFile file = make_footprint_file("zipfy", 2.5, fp, 512);
  std::string path =
      (std::filesystem::temp_directory_path() / "ocps_fp_test.fp").string();
  save_footprint_file(file, path);
  FootprintFile back = load_footprint_file(path);
  EXPECT_EQ(back.name, "zipfy");
  EXPECT_DOUBLE_EQ(back.access_rate, 2.5);
  EXPECT_EQ(back.trace_length, 10000u);
  EXPECT_EQ(back.distinct, 150u);
  for (double w : {10.0, 100.0, 1000.0, 9000.0})
    EXPECT_NEAR(back.footprint(w), file.footprint(w), 1e-9);
  std::remove(path.c_str());
}

TEST(FootprintIo, LoadRejectsGarbage) {
  std::string path =
      (std::filesystem::temp_directory_path() / "ocps_fp_bad.fp").string();
  {
    std::ofstream os(path);
    os << "nonsense 3\n";
  }
  EXPECT_THROW(load_footprint_file(path), CheckError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ocps
