// Measurement plumbing shared by the benchmark workloads: clocks, the
// percentile helper, the open-loop request generator, the benchmark's own
// parent-linked spans, and the metric report printed as the result line.
//
// Nothing here calls into the program except obs::now_ns() (so the
// benchmark's spans share the program's trace clock) and
// obs::trace_events() (to merge the program's spans into one Chrome
// trace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock seconds (arbitrary origin).
double wall_s();
/// User + system CPU seconds of the whole process (every thread).
double cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Host-wide CPU time from /proc/stat, for the steal share of a phase.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostCpu read_host_cpu();
/// Steal jiffies ÷ all jiffies between two samples (0 when unavailable).
double steal_frac(const HostCpu& before, const HostCpu& after);

/// Nearest-rank percentile: the smallest sample with at least a share q of
/// the samples at or below it, so the answer is always one of the samples.
/// q in [0, 1]; q = 0 gives the minimum. Throws on an empty input.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// True when `name` matches [A-Za-z0-9_.-]+ (at most 64 characters).
bool valid_metric_name(const std::string& name);

/// `v` as a C hex-float literal (%a), the form the references are kept in.
std::string hex_float(double v);

/// Mean of the program's registry histogram `name` (0 when empty).
double histogram_mean(const std::string& name);

/// Result of a benchmark run: the metrics plus the operation tallies.
class Report {
 public:
  /// Adds one metric; throws on a bad name, a duplicate, or a non-finite
  /// value.
  void add(const std::string& name, double value, const std::string& unit);
  void count_attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records a failed operation (a failed output check counts too).
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t failed() const { return failed_; }

  /// The result line: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..}}}.
  std::string json_line() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// The benchmark's own spans. Each span has an id and the id of the span
/// that caused it, so the tree is explicit rather than inferred from time
/// containment; spans of one served request also carry its trace_id, the
/// id the router and backends tag their own spans with. Thread-safe.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t trace_id = 0;
    std::uint64_t start_ns = 0;  ///< obs::now_ns() clock
    std::uint64_t end_ns = 0;
    std::uint32_t tid = 0;
  };

  /// Opens a span now; returns its id (never 0).
  std::uint64_t open(const std::string& name, std::uint64_t parent,
                     std::uint64_t trace_id = 0);
  /// Closes span `id` now; an id that is not open is ignored.
  void close(std::uint64_t id);

  /// Writes one Chrome trace_event JSON document holding these spans
  /// (process "perfbench") and every span the program recorded (process
  /// "ocps"), on the shared clock.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<Span> spans() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  ///< id -> index
  std::uint64_t next_id_ = 1;
};

/// RAII span over one call; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, std::uint64_t parent,
        std::uint64_t trace_id = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
};

/// One operation of an open-loop schedule: its lane (generator thread)
/// and its due time in nanoseconds after the schedule starts.
struct Scheduled {
  std::size_t lane = 0;
  std::uint64_t due_ns = 0;
};

/// What happened to one scheduled operation.
struct Outcome {
  double latency_ms = 0.0;  ///< answer time minus *due* time
  double late_ms = 0.0;     ///< actual send time minus due time
  double service_ms = 0.0;  ///< answer time minus actual send time
  bool ok = false;
};

/// Runs an open-loop schedule: one thread per lane, each sending its
/// operations in due-time order and never before they are due. A lane
/// whose previous call is still running sends late, and the wait counts
/// in the latency of every operation queued behind it, so a stall cannot
/// hide by slowing the arrival rate. `call(op)` returns whether the
/// operation succeeded. Outcomes are indexed like `schedule`.
std::vector<Outcome> run_open_loop(
    const std::vector<Scheduled>& schedule, std::size_t lanes,
    const std::function<bool(std::size_t op)>& call);

}  // namespace perfbench
