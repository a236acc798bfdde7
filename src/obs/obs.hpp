// Process-wide observability: metrics registry + structured trace events.
//
// The online controller, the DP solver, and the simulators are the hot
// paths of a would-be cache-management daemon; when an epoch degrades or
// a solve slows down, the operator needs to see *why* without attaching a
// debugger. This subsystem provides the two standard substrates:
//
//  * a metrics registry — named counters, gauges, and histograms with
//    fixed power-of-two log-bucketing. Counters are striped across
//    cache-line-padded shards updated with relaxed atomics, so the
//    parallel group sweep (util/parallel) never serializes on a metric;
//    shards are merged only on scrape.
//  * a trace-event layer — RAII spans with nanosecond steady_clock
//    timestamps, recorded into fixed-size per-thread ring buffers
//    (newest events win), exportable as Chrome `trace_event` JSON
//    (chrome://tracing, Perfetto) or a plain-text timeline.
//
// Cost model: the layer is always compiled in, and one runtime switch
// decides whether it records.
//  * off (default): every instrumentation site is a single
//    well-predicted branch on a latched flag. Nothing is allocated,
//    recorded, or printed; results are bit-for-bit those of an
//    uninstrumented build.
//  * on: set OCPS_OBS=1 (or call set_enabled(true), which the CLI does
//    for `ocps stats` / `--trace-out` / `--metrics-out`).
//
// Usage:
//   OCPS_OBS_COUNT("sim.lru.hits", 1);
//   OCPS_OBS_HIST("dp.solve_ns", timer_ns);
//   obs::ScopedSpan span("dp_solve", "core");       // RAII span
//   obs::instant_event("degraded", "controller", "error_code", 3);
//
// See docs/observability.md for the full tour.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/second_ring.hpp"

namespace ocps::obs {

/// One exported trace event (a completed span or an instant marker).
/// `name`/`cat`/`arg_name` must be string literals (or otherwise outlive
/// the recording) — the ring buffer stores pointers, never copies.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;   ///< start, ns since the process trace epoch
  std::uint64_t dur_ns = 0;  ///< 0 for instant events
  const char* arg_name = nullptr;  ///< optional numeric payload key
  std::uint64_t arg = 0;
  std::uint64_t trace_id = 0;  ///< request correlation id (0 = none)
  std::uint32_t tid = 0;  ///< dense per-thread id (assigned on first use)
  bool instant = false;
};

/// A recent observation remembered per histogram bucket: which request
/// (trace_id) last landed there and with what value. Lets an operator
/// jump from a suspicious bucket straight to the trace of a request that
/// hit it (OpenMetrics exemplars).
struct Exemplar {
  std::uint64_t trace_id = 0;  ///< 0 = empty slot
  double value = 0.0;
};

/// Static identity of the running binary, attached to every metrics
/// exposition (Prometheus `ocps_build_info` info-gauge, JSON
/// `build_info` object) so a scrape can always be tied back to the
/// exact build and code path that produced it.
struct BuildInfo {
  std::string git_sha;      ///< short commit hash, "unknown" outside git
  std::string compiler;     ///< e.g. "gcc 13.2.0"
  std::string simd_kernel;  ///< active DP kernel ("avx2", "scalar", ...)
};

/// Snapshot of the build identity. Available whether or not obs is on —
/// it describes the binary, not the telemetry state.
BuildInfo build_info();

/// Registers the lazy provider for BuildInfo::simd_kernel. The DP
/// dispatcher (src/core) installs its kernel-name function at static
/// init; obs itself cannot link against core. Until a provider is set,
/// build_info() reports "unknown".
void set_simd_kernel_provider(const char* (*provider)());

/// Events each per-thread ring holds before overwriting the oldest.
inline constexpr std::size_t kRingCapacity = 4096;

/// Number of counter/histogram shards; threads hash onto them.
inline constexpr std::size_t kCounterShards = 16;

/// Histogram bucket count. Bucket 0 holds v < 1 (and non-finite values);
/// bucket i in [1, kHistogramBuckets-2] holds 2^(i-1) <= v < 2^i; the
/// last bucket holds everything at or above 2^(kHistogramBuckets-2).
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {
std::atomic<bool>& enabled_flag();
}  // namespace detail

/// True when observability is recording. Latched from the OCPS_OBS
/// environment variable on first query; set_enabled() overrides.
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

/// Runtime master switch (used by the CLI and tests).
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Monotonic nanoseconds since the process trace epoch (steady_clock).
std::uint64_t now_ns();

/// Raw steady_clock nanoseconds (the clock's own origin, not the trace
/// epoch). Clock for state that works whether or not obs is on: SLO
/// slots and decision timestamps.
std::uint64_t steady_now_ns();

/// Monotonically increasing counter, sharded to stay lock-free under the
/// parallel sweeps. Obtain via obs::counter(); objects live forever at a
/// stable address, so call sites may cache references.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;  ///< merges all shards
  void reset() noexcept;

  Counter() = default;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kCounterShards> shards_;
};

/// One owner's counters (a daemon's or a router's event counts), named at
/// construction and counted whether or not obs is on: add() and value()
/// are relaxed atomics on the set's own slots. While the set lives,
/// metrics_snapshot() adds each slot into the process-wide counter of
/// the same name, so every exporter shows it and two sets sharing a name
/// export their sum; the destructor moves the slots into those counters,
/// so process totals survive the owner. reset_metrics() zeroes live sets.
class CounterSet {
 public:
  explicit CounterSet(std::vector<std::string> names);
  ~CounterSet();
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  void add(std::size_t i, std::uint64_t n = 1) noexcept {
    values_[i].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value(std::size_t i) const noexcept {
    return values_[i].load(std::memory_order_relaxed);
  }
  std::size_t size() const noexcept { return names_.size(); }
  const std::string& name(std::size_t i) const { return names_[i]; }
  void reset() noexcept;

 private:
  std::vector<std::string> names_;
  std::vector<std::atomic<std::uint64_t>> values_;
};

/// Last-write-wins floating-point value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

  Gauge() = default;

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log-bucketed histogram (power-of-two boundaries, see
/// kHistogramBuckets). Lock-free: buckets are relaxed atomics.
class Histogram {
 public:
  void observe(double v) noexcept;
  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  std::uint64_t bucket(std::size_t i) const noexcept;
  void reset() noexcept;  ///< zeroes buckets and sum in place

  /// Bucket that value v lands in. Exact at boundaries: v == 2^k goes to
  /// bucket k+1 (the bucket whose range starts at 2^k).
  static std::size_t bucket_index(double v) noexcept;
  /// Inclusive lower bound of bucket i (0 for bucket 0).
  static double bucket_lower_bound(std::size_t i) noexcept;
  /// Exclusive upper bound of bucket i (infinity for the last bucket).
  static double bucket_upper_bound(std::size_t i) noexcept;

  Histogram() = default;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
};

/// Plain-data snapshot of one histogram (for reporting).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Non-empty buckets only: {bucket index, count}.
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
};

/// Plain-data snapshot of the whole registry, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Estimates quantile q (in [0, 1]) from a log-bucketed snapshot by
/// locating the bucket where the cumulative count crosses q*count and
/// interpolating linearly inside it. With power-of-two buckets the
/// estimate is off by at most the bucket width, i.e. within a factor of
/// two of the true value (see docs/observability.md). Returns 0 for an
/// empty histogram; the open-ended last bucket reports its lower bound.
double histogram_quantile(const HistogramSnapshot& h, double q);

/// Log-bucketed histogram over a sliding time window: per-second
/// sub-histograms in a SecondRing, so a snapshot reflects only the last
/// `window_seconds`. Guarded by a mutex — meant for request-rate paths
/// (the serve daemon), not inner loops.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(unsigned window_seconds = 30);
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void observe(double v) noexcept;  ///< stamps with now_ns()
  /// Merged snapshot of the in-window slots, stamped with now_ns().
  HistogramSnapshot snapshot(const std::string& name = "") const;
  unsigned window_seconds() const noexcept { return window_; }

  /// Deterministic variants for tests: the caller supplies the clock.
  void observe_at(double v, std::uint64_t now_ns) noexcept;
  HistogramSnapshot snapshot_at(const std::string& name,
                                std::uint64_t now_ns) const;

 private:
  struct Bins {  // one second of observations
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  mutable std::mutex mu_;
  unsigned window_;
  SecondRing<Bins> ring_;
};

/// Named metric lookup; creates on first use. Thread-safe. The returned
/// references stay valid for the life of the process (reset_metrics()
/// zeroes values but never destroys metrics).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Scrapes every metric (merging counter shards and live counter sets).
MetricsSnapshot metrics_snapshot();

/// Zeroes every registered metric and live counter set (the registry
/// keeps its entries).
void reset_metrics();

/// Writes the snapshot as one JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
///  buckets:[{lo,hi,count},...]}}}.
void write_metrics_json(std::ostream& os);

/// Human-readable snapshot; when `prefix` is non-empty only metrics whose
/// name starts with it are printed.
void write_metrics_text(std::ostream& os, const std::string& prefix = "");

/// Remembers {trace_id, value} as the most recent exemplar for the bucket
/// of histogram `name` that `value` lands in. No-op when observability is
/// off or trace_id is 0. The store is keyed by histogram name, so the
/// same exemplars annotate both the lifetime registry histogram and any
/// windowed variant sharing the name.
void note_exemplar(const std::string& name, double value,
                   std::uint64_t trace_id);

/// All non-empty exemplar slots for histogram `name` as {bucket index,
/// exemplar}, sorted by bucket index.
std::vector<std::pair<std::size_t, Exemplar>> exemplars_for(
    const std::string& name);

/// Prometheus text exposition format 0.0.4. Metric names are sanitized
/// (every character outside [a-zA-Z0-9_:] becomes '_', so `serve.shed`
/// exports as `serve_shed`); histograms map to cumulative
/// `_bucket{le="..."}` series (non-empty boundaries plus `+Inf`) with
/// `_sum` and `_count`. Buckets that have a recorded exemplar carry an
/// OpenMetrics exemplar suffix: `... # {trace_id="N"} <value>`.
void write_metrics_prometheus(std::ostream& os);

/// RAII span: records a TraceEvent into the calling thread's ring buffer
/// on destruction. Construction is a no-op when observability is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "ocps") noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric payload exported under args{} in Chrome JSON.
  void set_arg(const char* key, std::uint64_t value) noexcept;
  /// Tags the span with a request correlation id; Chrome export links all
  /// spans sharing a non-zero trace_id into one flow across threads.
  void set_trace_id(std::uint64_t id) noexcept;
  /// Nanoseconds since construction (0 when observability is off).
  std::uint64_t elapsed_ns() const noexcept;
  /// True when the span is recording (observability was on at entry).
  bool active() const noexcept { return active_; }

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

/// Records a zero-duration marker event. A non-zero `trace_id` tags the
/// marker into that request's trace (like ScopedSpan::set_trace_id).
void instant_event(const char* name, const char* cat = "ocps",
                   const char* arg_name = nullptr, std::uint64_t arg = 0,
                   std::uint64_t trace_id = 0) noexcept;

/// All buffered events from every thread, sorted by start timestamp.
std::vector<TraceEvent> trace_events();

/// Only the buffered events tagged with `trace_id` (non-zero), sorted by
/// start timestamp — the retained spans of one request, served by the
/// `trace` protocol op.
std::vector<TraceEvent> trace_events_for(std::uint64_t trace_id);

/// Drops all buffered events (rings stay registered).
void clear_trace_events();

/// Chrome trace_event JSON: {"traceEvents":[...]} — load in
/// chrome://tracing or https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& os);

/// Plain-text timeline, one event per line, sorted by start time.
void write_text_timeline(std::ostream& os);

}  // namespace ocps::obs

/// Adds `n` to counter `name` when observability is on. The metric is
/// resolved once per call site and cached.
#define OCPS_OBS_COUNT(name, n)                                        \
  do {                                                                 \
    if (::ocps::obs::enabled()) {                                      \
      static ::ocps::obs::Counter& ocps_obs_counter_ =                 \
          ::ocps::obs::counter(name);                                  \
      ocps_obs_counter_.add(n);                                        \
    }                                                                  \
  } while (0)

/// Records `v` into histogram `name` when observability is on.
#define OCPS_OBS_HIST(name, v)                                         \
  do {                                                                 \
    if (::ocps::obs::enabled()) {                                      \
      static ::ocps::obs::Histogram& ocps_obs_hist_ =                  \
          ::ocps::obs::histogram(name);                                \
      ocps_obs_hist_.observe(static_cast<double>(v));                  \
    }                                                                  \
  } while (0)

/// Sets gauge `name` to `v` when observability is on.
#define OCPS_OBS_GAUGE(name, v)                                        \
  do {                                                                 \
    if (::ocps::obs::enabled()) {                                      \
      static ::ocps::obs::Gauge& ocps_obs_gauge_ =                     \
          ::ocps::obs::gauge(name);                                    \
      ocps_obs_gauge_.set(static_cast<double>(v));                     \
    }                                                                  \
  } while (0)
