// Tests for the SPEC-like workload suite and suite profiling.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>

#include "workloads/spec_like.hpp"
#include "workloads/suite.hpp"
#include "util/check.hpp"

namespace ocps {
namespace {

SuiteOptions small_options() {
  SuiteOptions opt;
  opt.trace_length = 30000;
  opt.capacity = 256;
  return opt;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// FNV-1a 64 over the bytes of a model's cold-profiled outputs: the
// distinct count, the knot count, every knot's x and y bits, and every
// miss ratio's bits.
std::uint64_t model_fingerprint(const ProgramModel& model,
                                std::size_t capacity) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix_in = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  auto mix_double = [&mix_in](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix_in(bits);
  };
  mix_in(model.distinct);
  mix_in(model.footprint.size());
  for (std::size_t i = 0; i < model.footprint.size(); ++i) {
    mix_double(model.footprint.xs()[i]);
    mix_double(model.footprint.ys()[i]);
  }
  for (std::size_t c = 0; c <= capacity; ++c) mix_double(model.mrc.ratio(c));
  return h;
}

TEST(SpecLike, SixteenProgramsWithUniqueNames) {
  const auto& suite = spec2006_suite();
  EXPECT_EQ(suite.size(), 16u);
  std::set<std::string> names;
  for (const auto& s : suite) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_GT(s.access_rate, 0.0);
  }
  // The paper's §VII-A listing.
  for (const char* name :
       {"perlbench", "bzip2", "mcf", "zeusmp", "namd", "dealII", "soplex",
        "povray", "hmmer", "sjeng", "h264ref", "tonto", "lbm", "omnetpp",
        "wrf", "sphinx3"})
    EXPECT_EQ(names.count(name), 1u) << name;
}

TEST(SpecLike, FindWorkloadByName) {
  EXPECT_EQ(find_workload("mcf").name, "mcf");
  EXPECT_THROW(find_workload("nonexistent"), CheckError);
}

TEST(SpecLike, GeneratorsAreDeterministic) {
  for (const auto& spec : spec2006_suite()) {
    Trace a = spec.generate(5000);
    Trace b = spec.generate(5000);
    EXPECT_EQ(a.accesses, b.accesses) << spec.name;
    EXPECT_GT(a.length(), 0u) << spec.name;
  }
}

TEST(Suite, BuildsModelsForAllPrograms) {
  Suite suite = build_spec2006_suite(small_options());
  ASSERT_EQ(suite.models.size(), 16u);
  for (const auto& m : suite.models) {
    EXPECT_GT(m.trace_length, 0u) << m.name;
    EXPECT_GT(m.distinct, 0u) << m.name;
    EXPECT_TRUE(m.mrc.is_non_increasing(1e-9)) << m.name;
    EXPECT_DOUBLE_EQ(m.mrc.ratio(0), 1.0) << m.name;
    EXPECT_EQ(m.mrc.capacity(), small_options().capacity) << m.name;
  }
}

TEST(Suite, LookupByName) {
  Suite suite = build_spec2006_suite(small_options());
  EXPECT_EQ(suite.by_name("lbm").name, "lbm");
  EXPECT_EQ(suite.index_of("perlbench"), 0u);
  EXPECT_THROW(suite.index_of("missing"), CheckError);
}

TEST(Suite, LocalityClassesComeOutAsDesigned) {
  SuiteOptions opt;
  opt.trace_length = 60000;
  opt.capacity = 1024;
  Suite suite = build_spec2006_suite(opt);

  // mcf is a hot set plus a long background scan: a miss-ratio plateau
  // with a hard non-convex drop near 920 units (the STTW breaker).
  const auto& mcf = suite.by_name("mcf").mrc;
  EXPECT_FALSE(mcf.is_convex(1e-6));
  EXPECT_GT(mcf.ratio(300), 0.07);               // on the plateau
  EXPECT_LT(mcf.ratio(1000), mcf.ratio(300) / 2);  // past the cliff

  // povray's tiny working set is near-zero miss ratio at modest sizes.
  EXPECT_LT(suite.by_name("povray").mrc.ratio(128), 0.01);

  // lbm keeps missing even with a large share (big data, long tail) and
  // its MRC keeps decreasing — the classic sharing gainer.
  const auto& lbm = suite.by_name("lbm").mrc;
  EXPECT_GT(lbm.ratio(256), 0.04);
  EXPECT_GT(lbm.ratio(256), lbm.ratio(1024) + 0.01);

  // soplex has two scans: two distinct plateau drops (multi-cliff). The
  // first scan's stack distance includes the other components it
  // interleaves with (240 own + 90 hot + ~240 of the second scan), so the
  // cliffs land near 570 and 950 units.
  const auto& soplex = suite.by_name("soplex").mrc;
  EXPECT_GT(soplex.ratio(500), soplex.ratio(640) + 0.03);
  EXPECT_GT(soplex.ratio(640), soplex.ratio(1010) + 0.03);
}

TEST(Suite, TraceRegenerationMatchesModels) {
  SuiteOptions opt = small_options();
  Suite suite = build_spec2006_suite(opt);
  Trace t = suite_trace(suite, suite.index_of("mcf"));
  EXPECT_EQ(t.length() > 0, true);
  // Regenerated trace has the same distinct count the model recorded.
  EXPECT_EQ(t.distinct_blocks(), suite.by_name("mcf").distinct);
}

TEST(Suite, DiskCacheRoundTrips) {
  SuiteOptions opt = small_options();
  opt.cache_dir =
      (std::filesystem::temp_directory_path() / "ocps_suite_cache").string();
  std::filesystem::remove_all(opt.cache_dir);

  Suite first = build_spec2006_suite(opt);   // writes cache
  Suite second = build_spec2006_suite(opt);  // reads cache
  ASSERT_EQ(first.models.size(), second.models.size());
  for (std::size_t i = 0; i < first.models.size(); ++i) {
    const auto& a = first.models[i];
    const auto& b = second.models[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.distinct, b.distinct);
    // The file stores the cold model's knots with 17 significant digits,
    // so they read back bit for bit.
    EXPECT_TRUE(same_bits(a.footprint.xs(), b.footprint.xs())) << a.name;
    EXPECT_TRUE(same_bits(a.footprint.ys(), b.footprint.ys())) << a.name;
    // The cached model re-derives its MRC from the 4096-knot footprint
    // file, so cliffy curves pick up a little downsampling smoothing.
    for (std::size_t c = 0; c <= opt.capacity; c += 16)
      EXPECT_NEAR(a.mrc.ratio(c), b.mrc.ratio(c), 0.03)
          << a.name << " c=" << c;
  }
  std::filesystem::remove_all(opt.cache_dir);
}

TEST(Suite, ColdModelsMatchRecordedBits) {
  // Pins the whole cold profiling path (generators, reuse profile,
  // footprint, Douglas-Peucker knots and HOTL) to hashes recorded before
  // that path was rewritten for speed.
  SuiteOptions opt;
  opt.trace_length = 100000;
  opt.capacity = 1024;
  Suite suite = build_spec2006_suite(opt);
  const std::uint64_t want[16] = {
      0x76f719cf569b319aULL,  // perlbench
      0x1175f45da575f528ULL,  // bzip2
      0xc88d00b235ccfec0ULL,  // mcf
      0xddf281f7822a2f41ULL,  // zeusmp
      0xc42782aa4e304608ULL,  // namd
      0xc090ff6a547516b1ULL,  // dealII
      0x65ef749e3ea4b1d2ULL,  // soplex
      0x368c9acd2915d873ULL,  // povray
      0x1dad3974dd307ec5ULL,  // hmmer
      0x638f0bd45377ee05ULL,  // sjeng
      0x8cb68119810c2522ULL,  // h264ref
      0xec406950ec6c1351ULL,  // tonto
      0x3b22df2d29e67f61ULL,  // lbm
      0x0c9eddf144a49502ULL,  // omnetpp
      0xfec64ba2858a7b70ULL,  // wrf
      0xec13bd4aab9c00dcULL,  // sphinx3
  };
  ASSERT_EQ(suite.models.size(), 16u);
  for (std::size_t i = 0; i < suite.models.size(); ++i) {
    const std::uint64_t got = model_fingerprint(suite.models[i], opt.capacity);
    EXPECT_EQ(got, want[i]) << suite.models[i].name << ": 0x" << std::hex
                            << got;
  }
}

TEST(Suite, EnvOptionsParsed) {
  setenv("OCPS_TRACE_LENGTH", "12345", 1);
  setenv("OCPS_CAPACITY", "77", 1);
  SuiteOptions opt = suite_options_from_env();
  EXPECT_EQ(opt.trace_length, 12345u);
  EXPECT_EQ(opt.capacity, 77u);
  unsetenv("OCPS_TRACE_LENGTH");
  unsetenv("OCPS_CAPACITY");
}

}  // namespace
}  // namespace ocps
