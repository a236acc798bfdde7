#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.hpp"

namespace ocps {

namespace {

// Draws an index from a discrete distribution by its cumulative weights,
// returning exactly min(lower_bound(cdf, u), last index), but in expected
// O(1) steps instead of a log2(K) binary search: a guide table over the
// CDF (Chen and Asau's indexed search) gives each draw a start index
// that is never past the answer, and a short linear scan finishes.
class GuideTable {
 public:
  /// `cdf` must be non-decreasing with a positive, finite last entry.
  explicit GuideTable(std::vector<double> cdf)
      : cdf_(std::move(cdf)),
        scale_(static_cast<double>(cdf_.size()) / cdf_.back()),
        start_(cdf_.size()) {
    // start_[g] is the first index whose entry falls in bucket g or
    // later. bucket() is monotone, so every entry before start_[g] is
    // below any u in bucket g, and lower_bound(u) >= start_[g].
    std::size_t j = 0;
    for (std::size_t g = 0; g < start_.size(); ++g) {
      while (j + 1 < cdf_.size() && bucket(cdf_[j]) < g) ++j;
      start_[g] = j;
    }
  }

  std::size_t operator()(double u) const {
    std::size_t i = start_[bucket(u)];
    while (i + 1 < cdf_.size() && cdf_[i] < u) ++i;
    return i;
  }

 private:
  // One bucket per CDF entry: u in [0, total] maps to 0..size-1.
  std::size_t bucket(double u) const {
    return std::min(static_cast<std::size_t>(u * scale_), start_.size() - 1);
  }

  std::vector<double> cdf_;
  double scale_;
  std::vector<std::size_t> start_;
};

}  // namespace

Trace make_cyclic(std::size_t length, std::size_t wss) {
  OCPS_CHECK(wss >= 1, "cyclic scan needs a non-empty working set");
  Trace t;
  t.accesses.resize(length);
  for (std::size_t i = 0; i < length; ++i)
    t.accesses[i] = static_cast<Block>(i % wss);
  return t;
}

Trace make_stream(std::size_t length) {
  Trace t;
  t.accesses.resize(length);
  for (std::size_t i = 0; i < length; ++i)
    t.accesses[i] = static_cast<Block>(i);
  return t;
}

Trace make_sawtooth(std::size_t length, std::size_t wss) {
  OCPS_CHECK(wss >= 1, "sawtooth scan needs a non-empty working set");
  Trace t;
  t.accesses.resize(length);
  if (wss == 1) {
    std::fill(t.accesses.begin(), t.accesses.end(), Block{0});
    return t;
  }
  // Triangle wave with period 2*(wss-1): 0,1,..,wss-1,wss-2,..,1,0,1,...
  const std::size_t period = 2 * (wss - 1);
  for (std::size_t i = 0; i < length; ++i) {
    std::size_t p = i % period;
    t.accesses[i] = static_cast<Block>(p < wss ? p : period - p);
  }
  return t;
}

Trace make_zipf(std::size_t length, std::size_t blocks, double alpha,
                std::uint64_t seed) {
  OCPS_CHECK(blocks >= 1, "zipf needs at least one block");
  OCPS_CHECK(alpha > 0.0, "zipf exponent must be positive");
  // Precompute the CDF once; sampling is a guide-table lookup per access.
  std::vector<double> cdf(blocks);
  double sum = 0.0;
  for (std::size_t k = 0; k < blocks; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf[k] = sum;
  }
  const GuideTable draw(std::move(cdf));
  Rng rng(seed);
  Trace t;
  t.accesses.resize(length);
  for (std::size_t i = 0; i < length; ++i)
    t.accesses[i] = static_cast<Block>(draw(rng.uniform() * sum));
  return t;
}

Trace make_uniform(std::size_t length, std::size_t blocks,
                   std::uint64_t seed) {
  OCPS_CHECK(blocks >= 1, "uniform needs at least one block");
  Rng rng(seed);
  Trace t;
  t.accesses.resize(length);
  for (std::size_t i = 0; i < length; ++i)
    t.accesses[i] = static_cast<Block>(rng.below(blocks));
  return t;
}

Trace make_hot_cold(std::size_t length, std::size_t hot_blocks,
                    std::size_t cold_blocks, double hot_fraction,
                    std::uint64_t seed) {
  OCPS_CHECK(hot_blocks >= 1 && cold_blocks >= 1,
             "both regions need at least one block");
  OCPS_CHECK(hot_fraction >= 0.0 && hot_fraction <= 1.0,
             "hot_fraction must be a probability");
  Rng rng(seed);
  Trace t;
  t.accesses.resize(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.chance(hot_fraction)) {
      t.accesses[i] = static_cast<Block>(rng.below(hot_blocks));
    } else {
      t.accesses[i] =
          static_cast<Block>(hot_blocks + rng.below(cold_blocks));
    }
  }
  return t;
}

Trace make_scan_mix(std::size_t length, std::size_t hot_blocks, double alpha,
                    const std::vector<ScanComponent>& scans,
                    std::uint64_t seed) {
  OCPS_CHECK(hot_blocks >= 1, "scan mix needs a hot set");
  double scan_total = 0.0;
  for (const auto& s : scans) {
    OCPS_CHECK(s.wss >= 1, "scan region must be non-empty");
    OCPS_CHECK(s.fraction >= 0.0, "negative scan fraction");
    scan_total += s.fraction;
  }
  OCPS_CHECK(scan_total <= 1.0, "scan fractions exceed 1");

  // Hot-set CDF (uniform when alpha == 0).
  std::vector<double> hot_cdf(hot_blocks);
  double hot_sum = 0.0;
  for (std::size_t k = 0; k < hot_blocks; ++k) {
    hot_sum += (alpha > 0.0)
                   ? 1.0 / std::pow(static_cast<double>(k + 1), alpha)
                   : 1.0;
    hot_cdf[k] = hot_sum;
  }
  const GuideTable draw_hot(std::move(hot_cdf));

  // Disjoint block regions: hot set first, then each scan.
  std::vector<Block> scan_base(scans.size());
  Block next_base = static_cast<Block>(hot_blocks);
  for (std::size_t s = 0; s < scans.size(); ++s) {
    scan_base[s] = next_base;
    next_base += static_cast<Block>(scans[s].wss);
  }

  Rng rng(seed);
  std::vector<std::size_t> cursor(scans.size(), 0);
  Trace t;
  t.accesses.resize(length);
  for (std::size_t i = 0; i < length; ++i) {
    double u = rng.uniform();
    double acc = 0.0;
    std::size_t chosen = scans.size();  // default: hot set
    for (std::size_t s = 0; s < scans.size(); ++s) {
      acc += scans[s].fraction;
      if (u < acc) {
        chosen = s;
        break;
      }
    }
    if (chosen < scans.size()) {
      t.accesses[i] =
          scan_base[chosen] + static_cast<Block>(cursor[chosen]);
      cursor[chosen] = (cursor[chosen] + 1) % scans[chosen].wss;
    } else {
      t.accesses[i] = static_cast<Block>(draw_hot(rng.uniform() * hot_sum));
    }
  }
  return t;
}

Trace make_phased(const std::vector<Phase>& phases, std::size_t repeats) {
  OCPS_CHECK(!phases.empty(), "phased workload needs at least one phase");
  Trace t;
  std::size_t per_rep = 0;
  for (const auto& p : phases) per_rep += p.length;
  t.accesses.reserve(per_rep * repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const auto& p : phases) {
      OCPS_CHECK(p.wss >= 1, "phase working set must be non-empty");
      Trace sub = p.sawtooth ? make_sawtooth(p.length, p.wss)
                             : make_cyclic(p.length, p.wss);
      for (Block b : sub.accesses)
        t.accesses.push_back(b + p.block_offset);
    }
  }
  return t;
}

Trace make_sd_driven(std::size_t length,
                     const std::function<std::size_t(Rng&)>& depth_sampler,
                     std::uint64_t seed) {
  Rng rng(seed);
  Trace t;
  t.accesses.resize(length);
  // LRU stack as a bounded circular buffer: front = most recently used.
  // Push-front is O(1); move-to-front from depth d is O(d). Entries deeper
  // than the capacity are silently dropped — depths that large read as
  // "new block" anyway, which is the semantics we want for streams.
  constexpr std::size_t kCap = 1 << 16;  // far above any depth we sample
  constexpr std::size_t kMask = kCap - 1;
  std::vector<Block> buf(kCap, 0);
  std::size_t head = 0;   // physical index of the MRU element
  std::size_t depth_count = 0;  // logical stack size, <= kCap
  auto at = [&](std::size_t i) -> Block& { return buf[(head + i) & kMask]; };

  Block next_block = 0;
  for (std::size_t i = 0; i < length; ++i) {
    std::size_t d = depth_sampler(rng);
    OCPS_CHECK(d >= 1, "stack depth must be >= 1");
    Block b;
    if (d > depth_count) {
      b = next_block++;
      head = (head + kCap - 1) & kMask;
      buf[head] = b;
      depth_count = std::min(depth_count + 1, kCap);
    } else {
      b = at(d - 1);
      for (std::size_t j = d - 1; j >= 1; --j) at(j) = at(j - 1);
      at(0) = b;
    }
    t.accesses[i] = b;
  }
  return t;
}

Trace make_sd_mixture(std::size_t length,
                      const std::vector<std::size_t>& depths,
                      const std::vector<double>& weights,
                      std::uint64_t seed) {
  OCPS_CHECK(depths.size() == weights.size() && !depths.empty(),
             "mixture needs parallel non-empty depth/weight vectors");
  std::vector<double> cdf(weights.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    OCPS_CHECK(weights[i] >= 0.0, "negative mixture weight");
    sum += weights[i];
    cdf[i] = sum;
  }
  OCPS_CHECK(sum > 0.0, "mixture weights must not all be zero");
  auto sampler = [depths, cdf, sum](Rng& rng) -> std::size_t {
    double u = rng.uniform() * sum;
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    std::size_t idx = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
    std::size_t d = depths[idx];
    // SIZE_MAX encodes "new block": any depth beyond the stack works.
    return d == SIZE_MAX ? SIZE_MAX : d;
  };
  return make_sd_driven(length, sampler, seed);
}

}  // namespace ocps
