// Online repartitioning controller.
//
// The paper assumes "the data can be collected in real time" (§VIII
// Practicality) but evaluates offline. This module closes the loop as a
// runtime system would: each program is watched by a cheap sampled
// profiler (SHARDS); at every epoch boundary the controller estimates
// fresh miss-ratio curves from the *last* epoch's observations, runs the
// DP, and resizes the per-program LRU partitions in place. The first
// epoch runs under an equal partition (nothing is known yet).
//
// The loop is fault-tolerant: every sampled estimate passes through the
// profile sanitizer (locality/sanitize.hpp) and every DP failure comes
// back as an Error value, so a bad epoch degrades the allocation
// decision instead of aborting the run. The degradation ladder, worst case first:
//   1. sanitize  — repairable corruption (NaN, spikes, truncation) is
//                  fixed in place and counted;
//   2. hold      — a program whose estimate is unusable keeps its
//                  last-good cost curve; a failed DP keeps the last-good
//                  allocation;
//   3. equal     — with no usable estimate ever (first-epoch failure)
//                  the controller stays on the startup equal partition.
// An optional hysteresis cap bounds how many units one epoch may move,
// so a single noisy estimate cannot thrash the partitions.
//
// The bench (bench_online_controller) compares the controller against
// the offline-oracle static DP (whole-trace profiles), equal
// partitioning, and free-for-all sharing; bench_fault_tolerance measures
// the degradation ladder against a naive restart-on-error baseline under
// injected faults (runtime/fault_injection.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cachesim/corun.hpp"
#include "obs/decision_log.hpp"
#include "trace/interleave.hpp"

namespace ocps {

/// What the controller does with an epoch that failed (degenerate
/// estimate or DP error).
enum class FaultPolicy {
  /// Degrade gracefully: sanitize, hold last-good state, fall back to the
  /// equal partition only when nothing was ever learned.
  kGraceful,
  /// Naive baseline: restart the controller from scratch — equal
  /// partition, all learned estimates discarded. What an unhardened
  /// controller wrapped in a supervisor loop would do.
  kRestartOnError,
};

/// Controller knobs.
struct ControllerConfig {
  std::size_t capacity = 1024;       ///< total cache units
  std::size_t epoch_length = 50000;  ///< interleaved accesses per epoch
  double sampling_rate = 0.05;       ///< SHARDS rate per program
  std::uint64_t sampling_seed = 0x0C5;
  /// Blend factor for the MRC estimate: weight of the newest epoch vs the
  /// running estimate (1.0 = use only the latest epoch).
  double ewma_alpha = 0.6;
  /// Optional per-program floor (QoS units) enforced every epoch.
  std::size_t min_units = 0;
  /// Hysteresis: at most this many units may change hands per epoch
  /// (half the L1 distance between successive allocations). 0 = no cap.
  std::size_t max_delta_units = 0;
  /// Reaction to a failed epoch; see FaultPolicy.
  FaultPolicy fault_policy = FaultPolicy::kGraceful;
  /// Decision-quality plane (obs/decision_log.hpp): every epoch's
  /// partition decision is logged with its predicted miss ratios and
  /// reconciled against the realized ratios one epoch later. The audit
  /// trail always runs (it is independent of the metrics registry);
  /// drift *alerting* engages only when drift_threshold > 0.
  double drift_alpha = 0.25;       ///< EWMA weight of the newest error
  double drift_threshold = 0.0;    ///< |error| EWMA breach level, 0 = off
  std::size_t decision_log_capacity = 64;  ///< audit-ring size
};

/// Test/fault-injection seams. Default-constructed hooks are inert; the
/// controller's behaviour with empty hooks is bit-identical to a build
/// without them. See runtime/fault_injection.hpp for seeded injectors.
struct ControllerHooks {
  /// May mutate the raw sampled miss-ratio estimate (indexed by cache
  /// size) before sanitization — inject NaN, spikes, truncation.
  std::function<void(std::size_t epoch, std::size_t program,
                     std::vector<double>& ratios)>
      corrupt_mrc;
  /// Return true to drop the sampler output for (epoch, program),
  /// simulating a profiler that captured nothing.
  std::function<bool(std::size_t epoch, std::size_t program)> drop_estimate;
  /// Return true to fail the DP for this epoch.
  std::function<bool(std::size_t epoch)> fail_dp;
};

/// Per-epoch health record.
struct EpochHealth {
  std::size_t repairs = 0;            ///< sanitizer repairs this epoch
  std::size_t degraded_programs = 0;  ///< programs with unusable estimates
  bool dp_failed = false;             ///< DP returned an error
  bool held_allocation = false;       ///< kept previous allocation
  bool restarted = false;             ///< kRestartOnError reset to equal
};

/// Outcome of a controller run.
struct ControllerResult {
  CoRunResult sim;  ///< realized per-program accesses/misses
  std::vector<std::vector<std::size_t>> alloc_history;  ///< per epoch
  double sampled_fraction = 0.0;  ///< profiling cost proxy
  std::size_t epochs = 0;
  std::vector<EpochHealth> health;   ///< one record per completed epoch
  std::size_t epochs_degraded = 0;   ///< epochs with any estimate/DP fault
  std::size_t repairs = 0;           ///< total sanitizer repairs
  std::size_t fallbacks = 0;         ///< epochs that held/reset the alloc
  /// Audit trail of every partition decision (startup + one per epoch),
  /// each reconciled with the realized per-program miss ratios of the
  /// epoch it governed (the trailing segment reconciles as partial).
  /// Shared so the result stays copyable; never null.
  std::shared_ptr<obs::DecisionLog> decisions;
  obs::DriftStatus drift;                  ///< final drift-detector state
  std::vector<obs::DriftAlert> drift_alerts;  ///< edge-triggered breaches
};

/// Runs the closed loop over an interleaved trace with `num_programs`
/// programs. Throws CheckError only on malformed *configuration*; faults
/// in the data path degrade per the config's FaultPolicy instead.
ControllerResult run_online_controller(const InterleavedTrace& trace,
                                       std::size_t num_programs,
                                       const ControllerConfig& config,
                                       const ControllerHooks& hooks = {});

}  // namespace ocps
