// Shared plumbing for the bench harness binaries.
//
// Every table/figure binary needs the profiled 16-program suite and most
// need the full 1820-group six-method sweep. The suite's footprints are
// cached on disk (directory OCPS_SUITE_CACHE, default ./ocps_cache) so
// that running all bench binaries back to back profiles only once —
// mirroring the paper's persisted footprint files. The sweep is cheap
// enough to recompute in every binary.
//
// Environment knobs:
//   OCPS_TRACE_LENGTH  accesses per program           (default 400000)
//   OCPS_CAPACITY      cache size in 8KB-like units   (default 1024)
//   OCPS_GROUP_LIMIT   cap on number of co-run groups (default all 1820)
//   OCPS_SUITE_CACHE   footprint cache directory      (default ./ocps_cache)
//   OCPS_CSV_DIR       when set, figure series are also written as CSV
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "core/group_sweep.hpp"
#include "obs/obs.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace ocps::bench {

/// Steady-clock stopwatch for bench phase timing, wired into the
/// observability layer: every timed phase is a "bench" trace span and a
/// sample in histogram `bench.<name>_ns` when OCPS_OBS is on. All bench
/// wall-clock numbers come from this one timer so they share a clock
/// (std::chrono::steady_clock) and show up in trace exports.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* name);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Elapsed seconds so far (or the final time once stopped).
  double seconds() const;
  /// Stops the timer, records the span + histogram sample, and returns
  /// elapsed seconds. Idempotent; the destructor calls it.
  double stop();

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  std::optional<obs::ScopedSpan> span_;
  double stopped_seconds_ = -1.0;
};

/// When observability is on (OCPS_OBS=1), writes the metrics-registry
/// JSON snapshot to `OCPS_METRICS_OUT` (or stdout when unset). Runs
/// automatically at exit of every binary linking bench common; calling
/// it earlier is idempotent. A no-op when observability is off.
void emit_metrics_snapshot_if_enabled();

/// Suite + sweep bundle used by the Table I / Fig 5-7 binaries.
struct Evaluation {
  Suite suite;
  std::vector<std::vector<std::uint32_t>> groups;
  std::vector<GroupEvaluation> sweep;
  std::size_t capacity = 0;
};

/// Builds the suite from env options (with on-disk footprint cache).
Suite load_suite();

/// Builds the suite and runs the full group sweep.
Evaluation load_evaluation();

/// Writes a table to stdout, and to `<OCPS_CSV_DIR>/<name>.csv` when the
/// env var is set.
void emit_table(const TextTable& table, const std::string& name);

/// Writes a table only to `<OCPS_CSV_DIR>/<name>.csv` (no stdout); used for
/// full figure series too long to print.
void emit_csv_only(const TextTable& table, const std::string& name);

}  // namespace ocps::bench
