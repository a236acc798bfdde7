#include "runtime/controller.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "cachesim/lru.hpp"
#include "core/baselines.hpp"
#include "core/batch_engine.hpp"
#include "core/dp_partition.hpp"
#include "locality/sanitize.hpp"
#include "locality/shards.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/result.hpp"

namespace ocps {

namespace {

/// Limits how many units change hands between two allocations: returns an
/// allocation between `from` and `to` component-wise, with the same total,
/// whose distance from `from` (half the L1 norm) is at most `cap`. The
/// largest movers win the budget, so the cap preserves the direction of
/// the DP's decision while damping its magnitude. cap == 0 disables the
/// limit (bit-identical pass-through of `to`).
std::vector<std::size_t> cap_allocation_change(
    const std::vector<std::size_t>& from, const std::vector<std::size_t>& to,
    std::size_t cap) {
  if (cap == 0) return to;
  const std::size_t p = from.size();
  std::size_t moved = 0;
  for (std::size_t i = 0; i < p; ++i)
    if (to[i] > from[i]) moved += to[i] - from[i];
  if (moved <= cap) return to;

  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    auto delta = [&](std::size_t i) {
      return to[i] > from[i] ? to[i] - from[i] : from[i] - to[i];
    };
    return delta(a) > delta(b);
  });

  // Growers: proportional floor share of the budget, then one extra unit
  // each (largest first) until the budget is spent.
  std::vector<std::size_t> out = from;
  std::size_t budget = cap;
  for (std::size_t i : order) {
    if (to[i] <= from[i]) continue;
    std::size_t give = (to[i] - from[i]) * cap / moved;
    out[i] += give;
    budget -= give;
  }
  for (std::size_t i : order) {
    if (budget == 0) break;
    if (to[i] > from[i] && out[i] < to[i]) {
      ++out[i];
      --budget;
    }
  }
  // Shrinkers give up exactly what the growers received, largest first,
  // never dropping below their own target.
  std::size_t need = cap - budget;
  for (std::size_t i : order) {
    if (need == 0) break;
    if (to[i] < from[i]) {
      std::size_t take = std::min(need, from[i] - to[i]);
      out[i] -= take;
      need -= take;
    }
  }
  OCPS_CHECK(need == 0, "hysteresis cap could not balance the transfer");
  return out;
}

}  // namespace

ControllerResult run_online_controller(const InterleavedTrace& trace,
                                       std::size_t num_programs,
                                       const ControllerConfig& config,
                                       const ControllerHooks& hooks) {
  OCPS_CHECK(num_programs >= 1, "need at least one program");
  OCPS_CHECK(config.capacity >= num_programs,
             "capacity too small for one unit per program");
  OCPS_CHECK(config.epoch_length >= 1, "epoch must be non-empty");
  OCPS_CHECK(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0,
             "ewma_alpha must be in (0, 1]");
  OCPS_CHECK(config.min_units * num_programs <= config.capacity,
             "per-program floors exceed capacity");
  for (auto o : trace.owners)
    OCPS_CHECK(o < num_programs, "owner id out of range");

  const std::size_t p = num_programs;
  const std::vector<std::size_t> equal = equal_partition(p, config.capacity);

  // Start from the equal partition: the controller knows nothing yet.
  std::vector<std::size_t> alloc = equal;
  std::vector<LruCache> partitions;
  partitions.reserve(p);
  for (std::size_t i = 0; i < p; ++i) partitions.emplace_back(alloc[i]);

  // One sampled profiler per program; reset every epoch so the estimate
  // tracks the current phase. The EWMA blends successive epoch estimates.
  std::vector<ShardsProfiler> profilers;
  profilers.reserve(p);
  for (std::size_t i = 0; i < p; ++i)
    profilers.emplace_back(config.sampling_rate,
                           config.sampling_seed + i * 1315423911ULL);

  CostMatrix ewma_cost(p, config.capacity);
  // A program with no valid estimate yet has a meaningless cost row; the
  // DP only runs once every program has reported at least once.
  std::vector<bool> have_estimate(p, false);
  // Unweighted miss-*ratio* EWMA, blended exactly like ewma_cost. The
  // cost rows are access-weighted and useless as predictions; this
  // matrix is what the decision log quotes as the model's forecast at
  // the chosen allocation. It feeds nothing back into the DP.
  CostMatrix ewma_ratio(p, config.capacity);

  // Persistent prefix solver across epochs. Each epoch refreshes it with
  // resolve_incremental: cost rows that did not change this epoch (held
  // estimates, faulted programs, quiet phases) keep their cached DP
  // layers, so the per-epoch re-solve costs only the layers from the
  // first changed program onward — same bits as a cold
  // optimize_partition, enforced by tests.
  PrefixDpSolver dp_solver;
  bool dp_solver_ready = false;
  std::vector<std::uint32_t> dp_members(p);
  std::iota(dp_members.begin(), dp_members.end(), 0U);
  std::vector<std::size_t> dp_lo;
  if (config.min_units > 0) dp_lo.assign(p, config.min_units);
  DpResult dp_buf;

  ControllerResult out;
  out.sim.accesses.assign(p, 0);
  out.sim.misses.assign(p, 0);
  out.alloc_history.push_back(alloc);

  std::vector<std::uint64_t> epoch_accesses(p, 0);
  std::vector<std::uint64_t> epoch_misses(p, 0);
  std::uint64_t sampled_total = 0;

  // Decision-quality plane: every allocation decision goes on the audit
  // trail with its predicted miss ratios; one epoch later the realized
  // ratios reconcile it and the signed errors feed the drift detector.
  // All of it is independent of the metrics registry (and of OCPS_OBS),
  // and none of it touches the allocation math above.
  out.decisions =
      std::make_shared<obs::DecisionLog>(config.decision_log_capacity);
  obs::DriftConfig drift_config;
  drift_config.alpha = config.drift_alpha;
  drift_config.threshold = config.drift_threshold;
  obs::DriftDetector drift(drift_config);
  obs::WindowedHistogram error_window(30);
  std::uint64_t pending_decision = 0;
  std::vector<std::string> tenant_names(p);
  for (std::size_t i = 0; i < p; ++i)
    tenant_names[i] = "p" + std::to_string(i);

  // Attaches the just-finished segment's realized miss ratios to the
  // decision that governed it. Zero-access programs get NaN (undefined
  // ratio, skipped by the accuracy/drift stats, never synthesized as 0).
  auto reconcile_pending = [&](bool partial) {
    if (pending_decision == 0) return;
    const std::uint64_t id = pending_decision;
    pending_decision = 0;
    std::vector<double> realized(p, std::nan(""));
    for (std::size_t i = 0; i < p; ++i)
      if (epoch_accesses[i] > 0)
        realized[i] = static_cast<double>(epoch_misses[i]) /
                      static_cast<double>(epoch_accesses[i]);
    const std::uint64_t now = obs::steady_now_ns();
    obs::DecisionRecord rec;
    if (out.decisions->reconcile(id, realized, partial, now, &rec) ==
        obs::DecisionLog::ReconcileStatus::kOk)
      obs::record_prediction_errors(rec, &drift, &error_window, now);
  };

  auto restart_from_scratch = [&]() {
    alloc = equal;
    for (std::size_t i = 0; i < p; ++i) {
      partitions[i].set_capacity(alloc[i]);
      double* row = ewma_cost.row(i);
      std::fill(row, row + config.capacity + 1, 0.0);
      double* ratio_row = ewma_ratio.row(i);
      std::fill(ratio_row, ratio_row + config.capacity + 1, 0.0);
      have_estimate[i] = false;
    }
  };

  auto end_epoch = [&]() {
    const std::size_t epoch_index = out.epochs;
    ++out.epochs;
    EpochHealth health;
    obs::ScopedSpan epoch_span("epoch", "controller");
    epoch_span.set_arg("epoch", epoch_index);

    // Phase 0 — reconcile: the epoch that just ended is the one the
    // pending decision governed; attach its realized miss ratios before
    // the counters are reset below.
    reconcile_pending(/*partial=*/false);

    // Phase 1a — estimate: pull every program's sampled MRC for the
    // epoch. Estimation is per-program pure, so splitting it from the
    // sanitize pass below changes nothing but gives each stage its own
    // trace span.
    std::vector<std::vector<double>> raw(p);
    std::vector<bool> usable(p, false);
    {
      obs::ScopedSpan span("estimate", "controller");
      for (std::size_t i = 0; i < p; ++i) {
        usable[i] =
            !(hooks.drop_estimate && hooks.drop_estimate(epoch_index, i));
        if (usable[i]) {
          raw[i] = profilers[i].estimate_mrc(config.capacity).ratios();
          if (hooks.corrupt_mrc) hooks.corrupt_mrc(epoch_index, i, raw[i]);
        } else {
          obs::instant_event("estimate_dropped", "controller", "program", i);
        }
        sampled_total += profilers[i].sampled_accesses();
      }
    }

    // Phase 1b — sanitize: repair what is repairable; a program whose
    // estimate is unusable keeps its previous cost row (hold).
    {
      obs::ScopedSpan span("sanitize", "controller");
      for (std::size_t i = 0; i < p; ++i) {
        const double weight = static_cast<double>(epoch_accesses[i]);
        MissRatioCurve mrc;
        if (usable[i]) {
          RepairReport report;
          Result<MissRatioCurve> sanitized =
              sanitize_mrc(std::move(raw[i]), profilers[i].accesses(),
                           config.capacity, &report);
          health.repairs += report.total();
          if (sanitized.ok()) {
            mrc = std::move(sanitized.value());
          } else {
            usable[i] = false;
            obs::instant_event(
                "estimate_degraded", "controller", "error_code",
                static_cast<std::uint64_t>(sanitized.error().code));
          }
        }
        if (usable[i]) {
          double* row = ewma_cost.row(i);
          double* ratio_row = ewma_ratio.row(i);
          for (std::size_t c = 0; c <= config.capacity; ++c) {
            double fresh = weight * mrc.ratio(c);
            row[c] = have_estimate[i]
                         ? config.ewma_alpha * fresh +
                               (1.0 - config.ewma_alpha) * row[c]
                         : fresh;
            ratio_row[c] = have_estimate[i]
                               ? config.ewma_alpha * mrc.ratio(c) +
                                     (1.0 - config.ewma_alpha) * ratio_row[c]
                               : mrc.ratio(c);
          }
          have_estimate[i] = true;
        } else {
          ++health.degraded_programs;
        }
        profilers[i].reset();
        epoch_accesses[i] = 0;
        epoch_misses[i] = 0;
      }
    }

    // Phase 2 — decide. The naive baseline restarts on any fault; the
    // graceful ladder holds what it has.
    bool all_have = std::all_of(have_estimate.begin(), have_estimate.end(),
                                [](bool b) { return b; });
    std::uint64_t solve_ns = 0;        // decision-log bookkeeping only
    bool solve_incremental = false;
    std::string decision_note;
    if (config.fault_policy == FaultPolicy::kRestartOnError &&
        health.degraded_programs > 0) {
      restart_from_scratch();
      health.restarted = true;
      decision_note = "restart: " +
                      std::to_string(health.degraded_programs) +
                      " degraded estimate(s)";
      obs::instant_event("restart", "controller", "epoch", epoch_index);
    } else if (!all_have) {
      // First-epoch failure: nothing was ever learned for some program,
      // so there is no basis to run the DP — stay on the current
      // allocation (the startup equal partition).
      health.held_allocation = true;
      decision_note = "hold: awaiting first estimates";
      obs::instant_event("hold", "controller", "epoch", epoch_index);
    } else {
      const bool was_ready = dp_solver_ready;
      const auto solve_start = std::chrono::steady_clock::now();
      Result<DpResult> dp = [&]() -> Result<DpResult> {
        obs::ScopedSpan span("dp_solve", "controller");
        if (hooks.fail_dp && hooks.fail_dp(epoch_index))
          return Result<DpResult>(ErrorCode::kInternal, "injected DP fault");
        // Every failure mode of the persistent incremental solver
        // (malformed or non-finite costs, infeasible bounds) comes back
        // as an Error value, so a bad epoch holds the last allocation.
        try {
          if (!dp_solver_ready) {
            dp_solver.configure(ewma_cost.view(), config.capacity,
                                DpObjective::kSumCost);
            dp_solver_ready = true;
          } else {
            dp_solver.resolve_incremental(ewma_cost.view());
          }
          // The solver accounts dp.solves / dp.cells / dp.solve_ns.
          dp_solver.solve(dp_members.data(), p,
                          dp_lo.empty() ? nullptr : dp_lo.data(), dp_buf);
        } catch (const CheckError& e) {
          OCPS_OBS_COUNT("dp.errors", 1);
          return Result<DpResult>(ErrorCode::kInternal, e.what());
        }
        if (!dp_buf.feasible) {
          OCPS_OBS_COUNT("dp.errors", 1);
          return Result<DpResult>(
              ErrorCode::kInfeasible,
              "allocation bounds admit no partition of capacity " +
                  std::to_string(config.capacity));
        }
        return Ok(dp_buf);
      }();
      solve_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - solve_start)
              .count());
      solve_incremental = was_ready;
      if (dp.ok()) {
        obs::ScopedSpan span("apply", "controller");
        alloc = cap_allocation_change(alloc, dp.value().alloc,
                                      config.max_delta_units);
        for (std::size_t i = 0; i < p; ++i)
          partitions[i].set_capacity(alloc[i]);
      } else if (config.fault_policy == FaultPolicy::kRestartOnError) {
        restart_from_scratch();
        health.dp_failed = true;
        health.restarted = true;
        decision_note = "restart: dp failed: " + dp.error().message;
        obs::instant_event("dp_failed", "controller", "error_code",
                           static_cast<std::uint64_t>(dp.error().code));
      } else {
        // Hold the last-good allocation; next epoch gets a fresh try.
        health.dp_failed = true;
        health.held_allocation = true;
        decision_note = "hold: dp failed: " + dp.error().message;
        obs::instant_event("dp_failed", "controller", "error_code",
                           static_cast<std::uint64_t>(dp.error().code));
      }
    }
    out.alloc_history.push_back(alloc);

    // Log the decision that will govern the next epoch. The predicted
    // ratio is the ratio-EWMA evaluated at the chosen allocation; a
    // program with no estimate yet predicts NaN (excluded from accuracy
    // stats rather than faked as 0).
    {
      obs::DecisionRecord rec;
      rec.epoch = out.epochs;
      rec.trigger = (health.restarted || health.held_allocation)
                        ? obs::DecisionTrigger::kFallback
                        : obs::DecisionTrigger::kEpoch;
      rec.tenants = tenant_names;
      rec.alloc = alloc;
      rec.predicted_mr.resize(p, std::nan(""));
      rec.tenant_degraded.resize(p, false);
      for (std::size_t i = 0; i < p; ++i) {
        if (have_estimate[i])
          rec.predicted_mr[i] = ewma_ratio.row(i)[alloc[i]];
        rec.tenant_degraded[i] = !usable[i] || !have_estimate[i];
      }
      rec.solve_ns = solve_ns;
      rec.incremental = solve_incremental;
      rec.note = std::move(decision_note);
      pending_decision =
          out.decisions->record(std::move(rec), obs::steady_now_ns());
      OCPS_OBS_COUNT("dp.decisions", 1);
    }
    obs::publish_decision_metrics(*out.decisions, &drift, &error_window,
                                  obs::steady_now_ns());

    if (health.degraded_programs > 0 || health.dp_failed)
      ++out.epochs_degraded;
    if (health.held_allocation || health.restarted) ++out.fallbacks;
    out.repairs += health.repairs;
    out.health.push_back(health);

    // Mirror the health record into the metrics registry: the same
    // counters back `ocps stats`, `--metrics-out`, and the bench
    // snapshots, so health reporting has one source of truth.
    // Adding 0 still registers the metric, so every health counter shows
    // up in snapshots even for a fault-free run.
    OCPS_OBS_COUNT("controller.epochs", 1);
    OCPS_OBS_COUNT("controller.repairs", health.repairs);
    OCPS_OBS_COUNT("controller.degraded_programs", health.degraded_programs);
    OCPS_OBS_COUNT("controller.epochs_degraded",
                   (health.degraded_programs > 0 || health.dp_failed) ? 1
                                                                      : 0);
    OCPS_OBS_COUNT("controller.fallbacks",
                   (health.held_allocation || health.restarted) ? 1 : 0);
    OCPS_OBS_COUNT("controller.dp_failures", health.dp_failed ? 1 : 0);
    OCPS_OBS_COUNT("controller.restarts", health.restarted ? 1 : 0);
    OCPS_OBS_HIST("controller.epoch_ns", epoch_span.elapsed_ns());
  };

  // Decision #1: the startup equal partition. It predicts nothing (the
  // model knows nothing yet) but gives the first epoch's realized
  // ratios a decision to attach to, and `ocps why` a baseline to diff
  // the first real DP decision against.
  {
    obs::DecisionRecord rec;
    rec.epoch = 0;
    rec.trigger = obs::DecisionTrigger::kEpoch;
    rec.tenants = tenant_names;
    rec.alloc = alloc;
    rec.note = "startup equal partition";
    pending_decision =
        out.decisions->record(std::move(rec), obs::steady_now_ns());
  }

  std::uint64_t segment_start_ns = obs::now_ns();
  for (std::size_t t = 0; t < trace.length(); ++t) {
    if (t > 0 && (t % config.epoch_length) == 0) {
      end_epoch();
      segment_start_ns = obs::now_ns();
    }
    std::uint32_t who = trace.owners[t];
    Block b = trace.blocks[t];
    profilers[who].observe(b);
    ++epoch_accesses[who];
    bool hit = partitions[who].access(b);
    ++out.sim.accesses[who];
    if (!hit) {
      ++out.sim.misses[who];
      ++epoch_misses[who];
    }
  }
  // Account for the (partial) final epoch's sampling too.
  for (const auto& profiler : profilers)
    sampled_total += profiler.sampled_accesses();
  out.sampled_fraction =
      trace.length() == 0
          ? 0.0
          : static_cast<double>(sampled_total) /
                static_cast<double>(trace.length());

  // The loop only fires end_epoch at *interior* boundaries, so the
  // trailing segment — a full epoch when the length divides evenly,
  // the partial remainder otherwise — never reaches it. Reconcile the
  // pending decision against what that segment realized, and mirror
  // the health counters + epoch latency so runs shorter than one epoch
  // are not invisible in metrics.
  if (trace.length() > 0) {
    const bool partial = (trace.length() % config.epoch_length) != 0;
    reconcile_pending(partial);
    OCPS_OBS_COUNT("controller.epochs", 0);
    OCPS_OBS_COUNT("controller.partial_epochs", partial ? 1 : 0);
    OCPS_OBS_COUNT("controller.repairs", 0);
    OCPS_OBS_COUNT("controller.degraded_programs", 0);
    OCPS_OBS_COUNT("controller.epochs_degraded", 0);
    OCPS_OBS_COUNT("controller.fallbacks", 0);
    OCPS_OBS_COUNT("controller.dp_failures", 0);
    OCPS_OBS_COUNT("controller.restarts", 0);
    OCPS_OBS_HIST("controller.epoch_ns", obs::now_ns() - segment_start_ns);
    obs::publish_decision_metrics(*out.decisions, &drift, &error_window,
                                  obs::steady_now_ns());
  }
  out.drift = drift.status();
  out.drift_alerts = drift.alerts();
  return out;
}

}  // namespace ocps
