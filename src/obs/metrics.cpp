#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "obs/obs.hpp"
#include "util/config.hpp"
#include "util/json.hpp"

namespace ocps::obs {

namespace detail {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_flag("OCPS_OBS", false)};
  return flag;
}

// Dense thread index used to pick a counter shard. Threads beyond
// kCounterShards wrap around; the stripes stay contention-light either
// way.
std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return id;
}

}  // namespace detail

void Counter::add(std::uint64_t n) noexcept {
  shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

std::size_t Histogram::bucket_index(double v) noexcept {
  // Negatives, sub-unit values, and non-finite values (NaN would pass
  // the comparison inverted; +inf would hand frexp an unspecified exp).
  if (!std::isfinite(v) || v < 1.0) return 0;
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1)
  // v >= 1 implies exp >= 1; v in [2^(exp-1), 2^exp) belongs to bucket
  // `exp` (whose range starts at 2^(exp-1)).
  std::size_t idx = static_cast<std::size_t>(exp);
  return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
}

double Histogram::bucket_lower_bound(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(i) - 1);  // 2^(i-1)
}

double Histogram::bucket_upper_bound(std::size_t i) noexcept {
  if (i + 1 >= kHistogramBuckets)
    return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i));  // 2^i
}

void Histogram::observe(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) {
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t i) const noexcept {
  return i < kHistogramBuckets ? buckets_[i].load(std::memory_order_relaxed)
                               : 0;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace {

// The registry proper: name -> metric. The mutex guards only creation and
// iteration; updates go straight to the (stable-address) metric objects.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::vector<CounterSet*> sets;  ///< live sets, merged on scrape
};

Registry& registry() {
  static Registry* r = new Registry();  // never destroyed: metrics outlive
  return *r;                            // static-destruction order issues
}

// Per-histogram exemplar slots: one {trace_id, value} per bucket,
// last-write-wins. Separate from the lock-free Histogram object so the
// hot observe path stays untouched; exemplar recording takes this mutex
// but only on request-rate paths (serve stages), never inner loops.
struct ExemplarStore {
  std::mutex mu;
  std::map<std::string, std::array<Exemplar, kHistogramBuckets>> slots;
};

ExemplarStore& exemplar_store() {
  static ExemplarStore* s = new ExemplarStore();  // never destroyed
  return *s;
}

template <typename T>
T& find_or_create(std::map<std::string, std::unique_ptr<T>>& map,
                  const std::string& name) {
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(name, std::unique_ptr<T>(new T())).first;
  return *it->second;
}

}  // namespace

CounterSet::CounterSet(std::vector<std::string> names)
    : names_(std::move(names)), values_(names_.size()) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const std::string& name : names_) find_or_create(r.counters, name);
  r.sets.push_back(this);
}

CounterSet::~CounterSet() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.sets.erase(std::find(r.sets.begin(), r.sets.end(), this));
  for (std::size_t i = 0; i < names_.size(); ++i)
    find_or_create(r.counters, names_[i]).add(value(i));
}

void CounterSet::reset() noexcept {
  for (auto& v : values_) v.store(0, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return find_or_create(r.counters, name);
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return find_or_create(r.gauges, name);
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return find_or_create(r.histograms, name);
}

void note_exemplar(const std::string& name, double value,
                   std::uint64_t trace_id) {
  if (!enabled() || trace_id == 0) return;
  std::size_t i = Histogram::bucket_index(value);
  ExemplarStore& s = exemplar_store();
  std::lock_guard<std::mutex> lock(s.mu);
  s.slots[name][i] = Exemplar{trace_id, value};
}

std::vector<std::pair<std::size_t, Exemplar>> exemplars_for(
    const std::string& name) {
  std::vector<std::pair<std::size_t, Exemplar>> out;
  ExemplarStore& s = exemplar_store();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.slots.find(name);
  if (it == s.slots.end()) return out;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i)
    if (it->second[i].trace_id != 0) out.emplace_back(i, it->second[i]);
  return out;
}

MetricsSnapshot metrics_snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  MetricsSnapshot snap;
  for (const auto& [name, c] : r.counters)
    snap.counters.emplace_back(name, c->value());
  for (const CounterSet* set : r.sets)
    for (std::size_t i = 0; i < set->size(); ++i)
      std::lower_bound(snap.counters.begin(), snap.counters.end(),
                       std::make_pair(set->name(i), std::uint64_t{0}))
          ->second += set->value(i);
  for (const auto& [name, g] : r.gauges)
    snap.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : r.histograms) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      std::uint64_t n = h->bucket(i);
      if (n > 0) hs.buckets.emplace_back(i, n);
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void reset_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->reset();
  for (CounterSet* set : r.sets) set->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  // In-place reset: cached references (OCPS_OBS_HIST) must stay valid.
  for (auto& [name, h] : r.histograms) h->reset();
  ExemplarStore& s = exemplar_store();
  std::lock_guard<std::mutex> elock(s.mu);
  s.slots.clear();
}

// Numbers and names go through util/json's writer: a double prints as
// the shortest text that reads back exactly (null for NaN/inf, which have
// no JSON spelling), and counters as exact integers.
void write_metrics_json(std::ostream& os) {
  auto text = [](const json::Value& v) { return v.dump(); };
  MetricsSnapshot snap = metrics_snapshot();
  const BuildInfo build = build_info();
  os << "{\"build_info\":{\"git_sha\":" << text(build.git_sha)
     << ",\"compiler\":" << text(build.compiler)
     << ",\"simd_kernel\":" << text(build.simd_kernel) << "},\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    os << (first ? "" : ",") << text(name) << ':' << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    os << (first ? "" : ",") << text(name) << ':' << text(v);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    os << (first ? "" : ",") << text(h.name) << ":{\"count\":" << h.count
       << ",\"sum\":" << text(h.sum) << ",\"buckets\":[";
    first = false;
    bool bfirst = true;
    for (const auto& [i, n] : h.buckets) {
      os << (bfirst ? "" : ",")
         << "{\"lo\":" << text(Histogram::bucket_lower_bound(i))
         << ",\"hi\":" << text(Histogram::bucket_upper_bound(i))
         << ",\"count\":" << n << '}';
      bfirst = false;
    }
    os << "]";
    auto exemplars = exemplars_for(h.name);
    if (!exemplars.empty()) {
      os << ",\"exemplars\":[";
      bool efirst = true;
      for (const auto& [i, ex] : exemplars) {
        os << (efirst ? "" : ",")
           << "{\"lo\":" << text(Histogram::bucket_lower_bound(i))
           << ",\"trace_id\":" << ex.trace_id
           << ",\"value\":" << text(ex.value) << '}';
        efirst = false;
      }
      os << "]";
    }
    os << "}";
  }
  os << "}}";
}

void write_metrics_text(std::ostream& os, const std::string& prefix) {
  MetricsSnapshot snap = metrics_snapshot();
  auto matches = [&](const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  for (const auto& [name, v] : snap.counters)
    if (matches(name)) os << name << " " << v << "\n";
  for (const auto& [name, v] : snap.gauges)
    if (matches(name)) os << name << " " << v << "\n";
  for (const auto& h : snap.histograms) {
    if (!matches(h.name)) continue;
    os << h.name << " count=" << h.count << " sum=" << h.sum;
    if (h.count > 0) os << " mean=" << h.sum / static_cast<double>(h.count);
    os << "\n";
    for (const auto& [i, n] : h.buckets) {
      os << "  [" << Histogram::bucket_lower_bound(i) << ", ";
      double hi = Histogram::bucket_upper_bound(i);
      if (std::isinf(hi)) {
        os << "inf";
      } else {
        os << hi;
      }
      os << ") " << n << "\n";
    }
  }
}

}  // namespace ocps::obs
