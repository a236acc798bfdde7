// Tests for src/trace: generators, interleaving, IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "locality/reuse_distance.hpp"
#include "trace/generators.hpp"
#include "trace/interleave.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/check.hpp"

namespace ocps {
namespace {

TEST(Trace, DistinctBlocks) {
  Trace t{{1, 2, 1, 3, 2}};
  EXPECT_EQ(t.length(), 5u);
  EXPECT_EQ(t.distinct_blocks(), 3u);
}

TEST(Trace, RelabelPreservesStructure) {
  Trace t{{100, 200, 100, 300}};
  Trace r = t.relabeled(50);
  EXPECT_EQ(r.accesses, (std::vector<Block>{50, 51, 50, 52}));
}

TEST(Trace, StatsComputed) {
  Trace t{{5, 9, 5}};
  TraceStats s = compute_stats(t);
  EXPECT_EQ(s.length, 3u);
  EXPECT_EQ(s.distinct, 2u);
  EXPECT_EQ(s.min_block, 5u);
  EXPECT_EQ(s.max_block, 9u);
}

TEST(Generators, CyclicShape) {
  Trace t = make_cyclic(10, 3);
  EXPECT_EQ(t.accesses,
            (std::vector<Block>{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}));
  EXPECT_EQ(t.distinct_blocks(), 3u);
}

TEST(Generators, StreamIsAllDistinct) {
  Trace t = make_stream(100);
  EXPECT_EQ(t.distinct_blocks(), 100u);
}

TEST(Generators, SawtoothBouncesBetweenEnds) {
  Trace t = make_sawtooth(9, 4);
  EXPECT_EQ(t.accesses, (std::vector<Block>{0, 1, 2, 3, 2, 1, 0, 1, 2}));
}

TEST(Generators, SawtoothSingleBlock) {
  Trace t = make_sawtooth(5, 1);
  EXPECT_EQ(t.distinct_blocks(), 1u);
}

TEST(Generators, ZipfIsDeterministicAndSkewed) {
  Trace a = make_zipf(20000, 100, 1.0, 9);
  Trace b = make_zipf(20000, 100, 1.0, 9);
  EXPECT_EQ(a.accesses, b.accesses);
  // Block 0 should be by far the most frequent under alpha=1.
  std::size_t count0 = 0, count50 = 0;
  for (Block x : a.accesses) {
    if (x == 0) ++count0;
    if (x == 50) ++count50;
  }
  EXPECT_GT(count0, 10 * std::max<std::size_t>(count50, 1) / 2);
  EXPECT_GT(count0, 2000u);
}

TEST(Generators, ZipfDrawsMatchBinarySearch) {
  // make_zipf samples through a guide table; every draw must equal the
  // plain binary search over the same CDF, clamped to the last block.
  struct Case {
    std::size_t blocks;
    double alpha;
  };
  // alpha = 20 on 64 blocks: every term past k = 6 is below an ulp of
  // the sum, so the CDF ends in a flat run of 59 equal entries.
  for (Case c : {Case{1, 1.0}, Case{7, 0.5}, Case{300, 1.0},
                 Case{1100, 1.35}, Case{64, 20.0}}) {
    const std::size_t length = 20000;
    const std::uint64_t seed = 31 + c.blocks;
    std::vector<double> cdf(c.blocks);
    double sum = 0.0;
    for (std::size_t k = 0; k < c.blocks; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), c.alpha);
      cdf[k] = sum;
    }
    if (c.alpha == 20.0) {
      ASSERT_EQ(std::count(cdf.begin(), cdf.end(), cdf.back()), 59);
    }
    Rng rng(seed);
    std::vector<Block> want(length);
    for (Block& b : want) {
      double u = rng.uniform() * sum;
      auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      b = static_cast<Block>(std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf.begin()), c.blocks - 1));
    }
    EXPECT_EQ(make_zipf(length, c.blocks, c.alpha, seed).accesses, want)
        << "blocks=" << c.blocks << " alpha=" << c.alpha;
  }
}

TEST(Generators, UniformCoversRange) {
  Trace t = make_uniform(20000, 50, 4);
  std::unordered_set<Block> seen(t.accesses.begin(), t.accesses.end());
  EXPECT_EQ(seen.size(), 50u);
  for (Block b : t.accesses) EXPECT_LT(b, 50u);
}

TEST(Generators, HotColdRegionsDisjoint) {
  Trace t = make_hot_cold(30000, 10, 100, 0.9, 7);
  std::size_t hot = 0;
  for (Block b : t.accesses) {
    EXPECT_LT(b, 110u);
    if (b < 10) ++hot;
  }
  double hot_fraction = static_cast<double>(hot) / 30000.0;
  EXPECT_NEAR(hot_fraction, 0.9, 0.02);
}

TEST(Generators, PhasedConcatenatesAndRepeats) {
  std::vector<Phase> phases = {{4, 2, 0, false}, {4, 3, 10, false}};
  Trace t = make_phased(phases, 2);
  EXPECT_EQ(t.length(), 16u);
  // First phase touches {0,1}; second {10,11,12}.
  EXPECT_EQ(t.accesses[0], 0u);
  EXPECT_EQ(t.accesses[4], 10u);
  EXPECT_EQ(t.accesses[8], 0u);  // repeat
}

TEST(Generators, SdDrivenConstantDepthIsCyclic) {
  // Always reusing depth 3 after warm-up cycles three blocks.
  auto sampler = [](Rng&) -> std::size_t { return 3; };
  Trace t = make_sd_driven(1000, sampler, 1);
  EXPECT_EQ(t.distinct_blocks(), 3u);
}

TEST(Generators, SdDrivenSculptsStackDistances) {
  // Sample depth 2 with p=0.7 and depth 5 with p=0.3; the realized stack
  // distance histogram must mirror the mixture.
  Trace t = make_sd_mixture(50000, {2, 5}, {0.7, 0.3}, 11);
  StackDistanceHistogram h = stack_distances(t);
  double n = static_cast<double>(t.length());
  EXPECT_NEAR(static_cast<double>(h.hist[2]) / n, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(h.hist[5]) / n, 0.3, 0.02);
}

TEST(Generators, SdMixtureNewBlockSentinel) {
  Trace t = make_sd_mixture(1000, {SIZE_MAX}, {1.0}, 3);
  EXPECT_EQ(t.distinct_blocks(), 1000u);  // every access is a new block
}

TEST(Interleave, ProportionalSharesMatchRates) {
  Trace a = make_cyclic(100, 5);
  Trace b = make_cyclic(100, 7);
  InterleavedTrace mix = interleave_proportional({a, b}, {3.0, 1.0}, 4000);
  std::size_t count_a = 0;
  for (auto o : mix.owners)
    if (o == 0) ++count_a;
  EXPECT_NEAR(static_cast<double>(count_a) / 4000.0, 0.75, 0.01);
}

TEST(Interleave, BlockSpacesDisjoint) {
  Trace a = make_cyclic(10, 3);
  Trace b = make_cyclic(10, 3);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 40);
  std::unordered_set<Block> of_a, of_b;
  for (std::size_t i = 0; i < mix.length(); ++i)
    (mix.owners[i] == 0 ? of_a : of_b).insert(mix.blocks[i]);
  for (Block x : of_a) EXPECT_EQ(of_b.count(x), 0u);
}

TEST(Interleave, WrapsShortTraces) {
  Trace a = make_cyclic(4, 2);
  InterleavedTrace mix = interleave_proportional({a}, {1.0}, 10);
  EXPECT_EQ(mix.length(), 10u);
}

TEST(Interleave, StochasticSharesMatchRates) {
  Trace a = make_cyclic(100, 5);
  Trace b = make_cyclic(100, 7);
  InterleavedTrace mix =
      interleave_stochastic({a, b}, {1.0, 3.0}, 20000, 123);
  std::size_t count_b = 0;
  for (auto o : mix.owners)
    if (o == 1) ++count_b;
  EXPECT_NEAR(static_cast<double>(count_b) / 20000.0, 0.75, 0.02);
}

TEST(Interleave, PreservesPerProgramOrder) {
  Trace a{{10, 11, 12, 13}};
  Trace b{{20, 21}};
  InterleavedTrace mix = interleave_proportional({a, b}, {2.0, 1.0}, 6);
  std::vector<Block> seen_a;
  for (std::size_t i = 0; i < mix.length(); ++i)
    if (mix.owners[i] == 0) seen_a.push_back(mix.blocks[i]);
  for (std::size_t i = 1; i < seen_a.size(); ++i)
    EXPECT_EQ(seen_a[i], seen_a[i - 1] + 1);
}

TEST(Interleave, RejectsBadInput) {
  Trace a = make_cyclic(10, 2);
  EXPECT_THROW(interleave_proportional({}, {}, 10), CheckError);
  EXPECT_THROW(interleave_proportional({a}, {0.0}, 10), CheckError);
  EXPECT_THROW(interleave_proportional({a}, {1.0, 2.0}, 10), CheckError);
}

TEST(TraceIo, BinaryRoundTrip) {
  Trace t = make_zipf(5000, 64, 0.9, 2);
  std::string path =
      (std::filesystem::temp_directory_path() / "ocps_trace_test.bin")
          .string();
  save_trace_binary(t, path);
  Trace back = load_trace_binary(path);
  EXPECT_EQ(back.accesses, t.accesses);
  std::remove(path.c_str());
}

TEST(TraceIo, LoadRejectsGarbage) {
  std::string path =
      (std::filesystem::temp_directory_path() / "ocps_trace_bad.bin")
          .string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a trace";
  }
  EXPECT_THROW(load_trace_binary(path), CheckError);
  std::remove(path.c_str());
}

TEST(TraceIo, TokenTraceParsesFig3Example) {
  // The paper's Fig. 3 trace.
  Trace t = parse_token_trace("a a x b b y a a x b b y");
  EXPECT_EQ(t.length(), 12u);
  EXPECT_EQ(t.distinct_blocks(), 4u);
  EXPECT_EQ(t.accesses[0], t.accesses[1]);
  EXPECT_EQ(t.accesses[0], t.accesses[6]);
}

}  // namespace
}  // namespace ocps
