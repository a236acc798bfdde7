// Prometheus text exposition (format 0.0.4), histogram quantile
// estimation, and the sliding-window histogram used by the serve daemon
// for "last N seconds" latency percentiles.

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace ocps::obs {

namespace {

// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; registry
// names use dots (`serve.request_latency`), which become underscores.
void write_prom_name(std::ostream& os, const std::string& name,
                     const char* suffix = nullptr) {
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    os << (ok ? c : '_');
  }
  if (suffix) os << suffix;
}

// Finite values print as util/json writes them: the shortest text that
// reads back as the same double.
void write_prom_double(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    os << json::Value(v).dump();
  }
}

}  // namespace

namespace {

// Prometheus label values escape backslash, double-quote, and newline.
void write_prom_label_value(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '\\' || c == '"') os << '\\';
    if (c == '\n') {
      os << "\\n";
      continue;
    }
    os << c;
  }
}

void write_build_info_line(std::ostream& os) {
  const BuildInfo build = build_info();
  os << "# TYPE ocps_build_info gauge\nocps_build_info{git_sha=\"";
  write_prom_label_value(os, build.git_sha);
  os << "\",compiler=\"";
  write_prom_label_value(os, build.compiler);
  os << "\",simd_kernel=\"";
  write_prom_label_value(os, build.simd_kernel);
  os << "\"} 1\n";
}

}  // namespace

void write_metrics_prometheus(std::ostream& os) {
  write_build_info_line(os);
  MetricsSnapshot snap = metrics_snapshot();
  for (const auto& [name, v] : snap.counters) {
    os << "# TYPE ";
    write_prom_name(os, name);
    os << " counter\n";
    write_prom_name(os, name);
    os << ' ' << v << '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    os << "# TYPE ";
    write_prom_name(os, name);
    os << " gauge\n";
    write_prom_name(os, name);
    os << ' ';
    write_prom_double(os, v);
    os << '\n';
  }
  for (const auto& h : snap.histograms) {
    os << "# TYPE ";
    write_prom_name(os, h.name);
    os << " histogram\n";
    auto exemplars = exemplars_for(h.name);
    auto exemplar_suffix = [&](std::size_t bucket) {
      for (const auto& [i, ex] : exemplars) {
        if (i != bucket) continue;
        os << " # {trace_id=\"" << ex.trace_id << "\"} ";
        write_prom_double(os, ex.value);
        break;
      }
    };
    // Cumulative buckets at each non-empty boundary; `le` is the bucket's
    // exclusive upper bound, which Prometheus treats as inclusive — with
    // power-of-two boundaries the discrepancy affects only exact powers
    // of two and is within the log-bucket resolution anyway.
    std::uint64_t cum = 0;
    std::size_t last_inf_bucket = kHistogramBuckets;  // folded buckets
    for (const auto& [i, n] : h.buckets) {
      cum += n;
      double hi = Histogram::bucket_upper_bound(i);
      if (std::isinf(hi)) {  // folded into the +Inf bucket below
        last_inf_bucket = i;
        continue;
      }
      write_prom_name(os, h.name, "_bucket");
      os << "{le=\"";
      write_prom_double(os, hi);
      os << "\"} " << cum;
      exemplar_suffix(i);
      os << '\n';
    }
    write_prom_name(os, h.name, "_bucket");
    os << "{le=\"+Inf\"} " << h.count;
    if (last_inf_bucket < kHistogramBuckets) exemplar_suffix(last_inf_bucket);
    os << '\n';
    write_prom_name(os, h.name, "_sum");
    os << ' ';
    write_prom_double(os, h.sum);
    os << '\n';
    write_prom_name(os, h.name, "_count");
    os << ' ' << h.count << '\n';
  }
}

double histogram_quantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (const auto& [i, n] : h.buckets) {
    double before = static_cast<double>(cum);
    cum += n;
    if (static_cast<double>(cum) < target) continue;
    double lo = Histogram::bucket_lower_bound(i);
    double hi = Histogram::bucket_upper_bound(i);
    if (std::isinf(hi)) return lo;  // open-ended: clamp to lower bound
    if (i == 0) lo = 0.0;
    double frac = n > 0 ? (target - before) / static_cast<double>(n) : 0.0;
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  // Unreachable for a consistent snapshot; fall back to the top bucket.
  return h.buckets.empty()
             ? 0.0
             : Histogram::bucket_lower_bound(h.buckets.back().first);
}

// One slot = one wall second of observations. A slot is lazily recycled
// when a newer second hashes onto it, so the ring needs window+1 slots to
// never evict an in-window second.
struct WindowedHistogram::Slot {
  std::uint64_t second = std::numeric_limits<std::uint64_t>::max();
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  double sum = 0.0;
  std::uint64_t count = 0;
};

WindowedHistogram::WindowedHistogram(unsigned window_seconds)
    : slots_(window_seconds > 0 ? window_seconds + 1 : 2),
      window_(window_seconds > 0 ? window_seconds : 1) {}

WindowedHistogram::~WindowedHistogram() = default;

void WindowedHistogram::observe(double v) noexcept {
  observe_at(v, now_ns());
}

void WindowedHistogram::observe_at(double v, std::uint64_t now) noexcept {
  std::uint64_t sec = now / 1000000000ULL;
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slots_[sec % slots_.size()];
  if (s.second != sec) {
    s.second = sec;
    s.buckets.fill(0);
    s.sum = 0.0;
    s.count = 0;
  }
  ++s.buckets[Histogram::bucket_index(v)];
  if (std::isfinite(v)) s.sum += v;
  ++s.count;
}

HistogramSnapshot WindowedHistogram::snapshot(const std::string& name) const {
  return snapshot_at(name, now_ns());
}

HistogramSnapshot WindowedHistogram::snapshot_at(const std::string& name,
                                                 std::uint64_t now) const {
  std::uint64_t sec = now / 1000000000ULL;
  std::uint64_t oldest = sec >= window_ ? sec - window_ + 1 : 0;
  std::array<std::uint64_t, kHistogramBuckets> merged{};
  HistogramSnapshot out;
  out.name = name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot& s : slots_) {
      if (s.second < oldest || s.second > sec) continue;
      for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        merged[i] += s.buckets[i];
      out.sum += s.sum;
      out.count += s.count;
    }
  }
  for (std::size_t i = 0; i < kHistogramBuckets; ++i)
    if (merged[i] > 0) out.buckets.emplace_back(i, merged[i]);
  return out;
}

}  // namespace ocps::obs
