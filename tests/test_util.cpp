// Unit tests for src/util: checks, RNG, curves, stats, tables, config,
// parallel_for, Fenwick tree.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <sstream>

#include "util/check.hpp"
#include "util/config.hpp"
#include "util/curve.hpp"
#include "util/fenwick.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ocps {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    OCPS_CHECK(1 == 2, "custom detail " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(OCPS_CHECK(2 + 2 == 4, "never shown"));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = rng.below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 7000; ++i) ++seen[rng.below(7)];
  for (int c : seen) EXPECT_GT(c, 700);  // ~1000 each, loose bound
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BelowRejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), CheckError);
}

TEST(Curve, EvaluatesAndClamps) {
  PiecewiseLinear c({0.0, 10.0, 20.0}, {0.0, 5.0, 6.0});
  EXPECT_DOUBLE_EQ(c(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c(5.0), 2.5);
  EXPECT_DOUBLE_EQ(c(15.0), 5.5);
  EXPECT_DOUBLE_EQ(c(-3.0), 0.0);   // clamp left
  EXPECT_DOUBLE_EQ(c(99.0), 6.0);   // clamp right
}

TEST(Curve, InverseOfMonotone) {
  PiecewiseLinear c({0.0, 10.0, 20.0}, {0.0, 5.0, 6.0});
  EXPECT_DOUBLE_EQ(c.inverse(2.5), 5.0);
  EXPECT_DOUBLE_EQ(c.inverse(5.5), 15.0);
  EXPECT_DOUBLE_EQ(c.inverse(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.inverse(100.0), 20.0);
}

TEST(Curve, InverseOnFlatSegmentPicksSmallestX) {
  PiecewiseLinear c({0.0, 1.0, 2.0, 3.0}, {0.0, 4.0, 4.0, 8.0});
  EXPECT_LE(c.inverse(4.0), 1.0 + 1e-12);
}

TEST(Curve, FromDenseIndexesByPosition) {
  PiecewiseLinear c = PiecewiseLinear::from_dense({1.0, 3.0, 9.0});
  EXPECT_DOUBLE_EQ(c(1.0), 3.0);
  EXPECT_DOUBLE_EQ(c(1.5), 6.0);
}

TEST(Curve, RejectsNonIncreasingKnots) {
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}), CheckError);
  EXPECT_THROW(PiecewiseLinear({1.0, 0.0}, {1.0, 2.0}), CheckError);
}

TEST(Curve, DownsampleKeepsEndpointsAndShape) {
  std::vector<double> ys(1001);
  for (std::size_t i = 0; i < ys.size(); ++i)
    ys[i] = static_cast<double>(i) * 0.5;
  PiecewiseLinear dense = PiecewiseLinear::from_dense(ys);
  PiecewiseLinear small = dense.downsample(11);
  EXPECT_LE(small.size(), 11u);
  EXPECT_DOUBLE_EQ(small.x_min(), 0.0);
  EXPECT_DOUBLE_EQ(small.x_max(), 1000.0);
  // Linear input survives downsampling exactly.
  EXPECT_NEAR(small(123.0), dense(123.0), 1e-9);
  EXPECT_NEAR(small(987.0), dense(987.0), 1e-9);
}

TEST(Curve, SimplifyBoundsErrorAndDenseEntryMatches) {
  // A concave ramp with a cliff and some jitter, like a footprint.
  Rng rng(3);
  std::vector<double> ys(5001);
  for (std::size_t i = 1; i < ys.size(); ++i)
    ys[i] = ys[i - 1] + 1.0 / std::sqrt(static_cast<double>(i)) +
            (i == 3000 ? 40.0 : 0.0) + 0.01 * rng.uniform();
  const PiecewiseLinear dense = PiecewiseLinear::from_dense(ys);
  for (double eps : {0.0, 0.02, 0.5}) {
    PiecewiseLinear s = dense.simplify(eps);
    EXPECT_DOUBLE_EQ(s.x_min(), 0.0);
    EXPECT_DOUBLE_EQ(s.x_max(), 5000.0);
    for (std::size_t i = 0; i < ys.size(); ++i)
      ASSERT_LE(std::abs(s(static_cast<double>(i)) - ys[i]), eps + 1e-9)
          << "eps=" << eps << " i=" << i;
  }
  // The dense entry reads x = index in place and must pick the same
  // knots, including when the budget forces epsilon to double.
  for (std::size_t budget : {2, 17, 300, 6000}) {
    PiecewiseLinear a = dense.simplify_to(0.005, budget);
    PiecewiseLinear b = PiecewiseLinear::simplify_dense_to(ys, 0.005, budget);
    EXPECT_LE(a.size(), budget);
    EXPECT_EQ(a.xs(), b.xs()) << "budget=" << budget;
    EXPECT_EQ(a.ys(), b.ys()) << "budget=" << budget;
  }
}

TEST(Curve, IsNonDecreasingDetects) {
  EXPECT_TRUE(PiecewiseLinear({0.0, 1.0}, {0.0, 1.0}).is_non_decreasing());
  EXPECT_FALSE(PiecewiseLinear({0.0, 1.0}, {1.0, 0.0}).is_non_decreasing());
}

TEST(Stats, SummaryBasics) {
  Summary s = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(Stats, MedianOfEvenCount) {
  Summary s = summarize({1.0, 2.0, 3.0, 10.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, EmptySummaryIsZero) {
  Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.0);
}

TEST(Stats, FractionAtLeast) {
  std::vector<double> xs = {0.05, 0.15, 0.25, 0.35};
  EXPECT_DOUBLE_EQ(fraction_at_least(xs, 0.10), 0.75);
  EXPECT_DOUBLE_EQ(fraction_at_least(xs, 0.20), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_least({}, 0.1), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> zs = {6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVariance) {
  EXPECT_DOUBLE_EQ(pearson({1.0, 1.0}, {2.0, 3.0}), 0.0);
}

TEST(Table, AlignedOutputContainsCells) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, CsvEscapesQuotes) {
  TextTable t({"a"});
  t.add_row({"x\"y,z"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x\"\"y,z\""), std::string::npos);
}

TEST(Table, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Table, Formatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::pct(0.2635, 1), "26.4%");
}

TEST(Config, EnvIntFallback) {
  unsetenv("OCPS_TEST_INT");
  EXPECT_EQ(env_int("OCPS_TEST_INT", 7), 7);
  setenv("OCPS_TEST_INT", "123", 1);
  EXPECT_EQ(env_int("OCPS_TEST_INT", 7), 123);
  setenv("OCPS_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(env_int("OCPS_TEST_INT", 7), 7);
  unsetenv("OCPS_TEST_INT");
}

TEST(Config, EnvFlag) {
  setenv("OCPS_TEST_FLAG", "yes", 1);
  EXPECT_TRUE(env_flag("OCPS_TEST_FLAG"));
  setenv("OCPS_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("OCPS_TEST_FLAG"));
  unsetenv("OCPS_TEST_FLAG");
  EXPECT_TRUE(env_flag("OCPS_TEST_FLAG", true));
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  parallel_for(5, 5, [&](std::size_t) { FAIL(); });
}

TEST(Parallel, PropagatesException) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Fenwick, PrefixAndRange) {
  Fenwick f(10);
  f.add(0, 1);
  f.add(4, 2);
  f.add(9, 3);
  EXPECT_EQ(f.prefix(0), 1);
  EXPECT_EQ(f.prefix(4), 3);
  EXPECT_EQ(f.prefix(9), 6);
  EXPECT_EQ(f.range(1, 4), 2);
  EXPECT_EQ(f.range(5, 8), 0);
  EXPECT_EQ(f.range(5, 4), 0);  // empty range
}

TEST(Fenwick, SupportsNegativeDeltas) {
  Fenwick f(4);
  f.add(2, 5);
  f.add(2, -3);
  EXPECT_EQ(f.range(2, 2), 2);
}

TEST(Fenwick, OutOfRangeChecked) {
  Fenwick f(4);
  EXPECT_THROW(f.add(4, 1), CheckError);
  EXPECT_THROW(f.prefix(4), CheckError);
}

// --- util/json ------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  auto v = json::parse(
      R"({"s":"hi","n":-2.5,"i":42,"b":true,"z":null,"a":[1,2,3],)"
      R"("o":{"k":"v"}})");
  ASSERT_TRUE(v.ok()) << v.error().to_string();
  const json::Value& obj = v.value();
  EXPECT_EQ(obj.get_string("s", ""), "hi");
  EXPECT_DOUBLE_EQ(obj.get_number("n", 0.0), -2.5);
  EXPECT_DOUBLE_EQ(obj.get_number("i", 0.0), 42.0);
  EXPECT_TRUE(obj.get_bool("b", false));
  ASSERT_NE(obj.find("z"), nullptr);
  EXPECT_TRUE(obj.find("z")->is_null());
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->as_array().size(), 3u);
  ASSERT_NE(obj.find("o"), nullptr);
  EXPECT_EQ(obj.find("o")->get_string("k", ""), "v");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse("").ok());
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse(R"({"a":1,})").ok());
  EXPECT_FALSE(json::parse(R"({"a" 1})").ok());
  EXPECT_FALSE(json::parse("[1] trailing").ok());
  EXPECT_FALSE(json::parse("01").ok());      // leading zero
  EXPECT_FALSE(json::parse("+1").ok());      // no leading plus in JSON
  EXPECT_FALSE(json::parse("nul").ok());
  EXPECT_FALSE(json::parse(R"("unterminated)").ok());
  EXPECT_FALSE(json::parse("\"bad \x01 control\"").ok());
}

TEST(Json, DepthLimitStopsRecursion) {
  std::string deep(json::kMaxParseDepth + 1, '[');
  deep += std::string(json::kMaxParseDepth + 1, ']');
  EXPECT_FALSE(json::parse(deep).ok());
  std::string fine(json::kMaxParseDepth - 1, '[');
  fine += std::string(json::kMaxParseDepth - 1, ']');
  EXPECT_TRUE(json::parse(fine).ok());
}

TEST(Json, StringEscapesRoundTrip) {
  auto v = json::parse(R"(["a\"b", "tab\there", "Aé€"])");
  ASSERT_TRUE(v.ok()) << v.error().to_string();
  const json::Array& a = v.value().as_array();
  EXPECT_EQ(a[0].as_string(), "a\"b");
  EXPECT_EQ(a[1].as_string(), "tab\there");
  EXPECT_EQ(a[2].as_string(), "A\xc3\xa9\xe2\x82\xac");  // A é €
  // Surrogate pair -> 4-byte UTF-8.
  auto pair = json::parse(R"("😀")");
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair.value().as_string(), "\xf0\x9f\x98\x80");
  // Lone surrogate is an error.
  EXPECT_FALSE(json::parse(R"("\ud83d")").ok());
}

TEST(Json, DumpRoundTripsThroughParse) {
  json::Value obj;
  obj.set("name", json::Value(std::string("x\"y\n")));
  obj.set("count", json::Value(3.0));
  obj.set("ratio", json::Value(0.1));
  obj.set("flag", json::Value(false));
  json::Array arr;
  arr.emplace_back(1.0);
  arr.emplace_back(std::string("two"));
  obj.set("arr", json::Value(std::move(arr)));
  std::string text = obj.dump();
  auto back = json::parse(text);
  ASSERT_TRUE(back.ok()) << text;
  EXPECT_EQ(back.value().get_string("name", ""), "x\"y\n");
  EXPECT_DOUBLE_EQ(back.value().get_number("count", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(back.value().get_number("ratio", 0.0), 0.1);
  // Integer-valued numbers print without a decimal point.
  EXPECT_NE(text.find("\"count\":3"), std::string::npos);
  // Insertion order is preserved.
  EXPECT_LT(text.find("name"), text.find("count"));
  // Non-finite numbers degrade to null rather than emitting bad JSON.
  json::Value inf;
  inf.set("v", json::Value(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(inf.dump(), R"({"v":null})");
}

}  // namespace
}  // namespace ocps
