// Suite profiling: traces → footprints → program models.
//
// Mirrors the paper's pipeline (§VII-A): each program is profiled once
// (full-trace footprint, no sampling), producing one footprint file /
// ProgramModel per program; all downstream evaluation reuses those models.
// An optional on-disk cache of the ASCII footprint files makes repeated
// bench runs cheap, exactly like the paper's 16 persisted footprint files.
#pragma once

#include <string>
#include <vector>

#include "core/program_model.hpp"
#include "workloads/spec_like.hpp"

namespace ocps {

/// Suite construction knobs. Env overrides (used by bench binaries):
/// OCPS_TRACE_LENGTH, OCPS_CAPACITY.
struct SuiteOptions {
  std::size_t trace_length = 400'000;  ///< accesses per program
  std::size_t capacity = 1024;         ///< cache size in allocation units
  std::size_t footprint_knots = 4096;  ///< stored footprint resolution
  /// When non-empty, footprint files are cached here across runs.
  std::string cache_dir;
};

/// Reads SuiteOptions from the OCPS_* environment variables.
SuiteOptions suite_options_from_env();

/// Profiled suite: one model per workload, same order as the specs.
struct Suite {
  SuiteOptions options;
  std::vector<WorkloadSpec> specs;
  std::vector<ProgramModel> models;

  const ProgramModel& by_name(const std::string& name) const;
  std::size_t index_of(const std::string& name) const;
};

/// Builds (or loads from cache) models for the given workload specs.
Suite build_suite(const std::vector<WorkloadSpec>& specs,
                  const SuiteOptions& options);

/// Convenience: the full 16-program SPEC-like suite.
Suite build_spec2006_suite(const SuiteOptions& options);

/// Regenerates the trace of one workload at the suite's length (for
/// simulator-based validation, which needs the raw accesses).
Trace suite_trace(const Suite& suite, std::size_t program_index);

}  // namespace ocps
