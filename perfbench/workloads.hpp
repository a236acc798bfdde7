// The benchmark's timed workloads and the traced ledger passes that break
// each end-to-end path of the pipeline into layers. Every pass checks its
// outputs; a failed check is recorded in the Report as a failed
// operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

inline constexpr std::size_t kCapacity = 1024;        ///< cache units
inline constexpr std::size_t kTraceLength = 400'000;  ///< per program

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of the timed phase
  std::string work_dir;    ///< working directory (sockets, traces)
  std::string bench_dir;   ///< this directory, relative to the checkout
};

/// Samples of one untraced run, turned into the end-to-end metrics by
/// report_end_to_end. An "operation" is a cold Table I regeneration
/// (table1-cold) or one `partition` request (serve-fleet).
struct EndToEnd {
  std::vector<double> setup_s;     ///< one per set-up
  std::vector<double> latency_ms;  ///< one per operation
  /// Process CPU per operation: one sample per operation where an
  /// operation owns the process (table1-cold), else one per slice of the
  /// schedule (serve-fleet: slice CPU ÷ requests due in it).
  std::vector<double> cpu_ms;
};

/// Adds setup_s, latency_ms, cpu_ms and peak_rss_mb.
void report_end_to_end(const EndToEnd& e2e, Report& report);

EndToEnd run_table1_cold(const Options& options, Report& report);
EndToEnd run_serve_fleet(const Options& options, Report& report);

/// Traced passes (observability on): per-layer metrics and spans under
/// `root`, the span that stands for the whole ledger of that path.
void ledger_table1(const Options& options, Report& report, SpanLog& spans,
                   std::uint64_t root);
void ledger_fleet(const Options& options, Report& report, SpanLog& spans,
                  std::uint64_t root);
void ledger_controller(const Options& options, Report& report,
                       SpanLog& spans, std::uint64_t root);

}  // namespace perfbench
