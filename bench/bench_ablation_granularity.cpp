// Ablation: allocation granularity. The paper partitions in 8KB units
// (C = 1024) rather than 64B blocks to keep the O(P·C²) DP cheap (§VII-A:
// "128² = 16384 times smaller"). This bench sweeps the unit count and
// shows (a) the quadratic DP cost growth and (b) that the achieved group
// miss ratio saturates quickly — justifying the paper's choice.
#include <iostream>

#include "combinatorics/enumerate.hpp"
#include "common.hpp"
#include "core/dp_partition.hpp"
#include "util/stats.hpp"

using namespace ocps;
using namespace ocps::bench;

int main() {
  SuiteOptions options = suite_options_from_env();
  // Profile at the finest capacity we sweep so every grain can be derived.
  const std::size_t cap_max = 2048;
  options.capacity = cap_max;
  Suite suite = build_spec2006_suite(options);

  auto groups = all_subsets(
      static_cast<std::uint32_t>(suite.models.size()), 4);
  // A deterministic spread of 16 groups keeps the sweep quick.
  std::vector<std::vector<std::uint32_t>> sample;
  for (std::size_t i = 0; i < groups.size(); i += groups.size() / 16)
    sample.push_back(groups[i]);

  std::cout << "=== Ablation: DP granularity (cost ~ C², quality "
               "saturates) ===\n";
  std::cout << "groups sampled: " << sample.size() << "\n\n";

  TextTable t({"units C", "unit size (8MB cache)", "avg group mr",
               "avg DP time/group", "time vs C=64"});
  double base_time = 0.0;

  for (std::size_t units : {64, 128, 256, 512, 1024, 2048}) {
    // Rebuild cost curves at this grain: cost[i][c] = rate * mr(c * scale)
    // where scale maps coarse units to the profiled fine-grained curve.
    const double scale =
        static_cast<double>(cap_max) / static_cast<double>(units);
    double total_mr = 0.0;
    double total_time = 0.0;
    for (const auto& members : sample) {
      CostMatrix cost(members.size(), units);
      double rate_sum = 0.0;
      for (std::size_t k = 0; k < members.size(); ++k) {
        const ProgramModel& m = suite.models[members[k]];
        rate_sum += m.access_rate;
        double* row = cost.row(k);
        for (std::size_t c = 0; c <= units; ++c)
          row[c] =
              m.access_rate * m.mrc.ratio_at(static_cast<double>(c) * scale);
      }
      PhaseTimer timer("granularity.dp");
      DpResult dp = optimize_partition(cost.view(), units);
      total_time += timer.stop();
      total_mr += dp.objective_value / rate_sum;
    }
    double avg_mr = total_mr / static_cast<double>(sample.size());
    double avg_time = total_time / static_cast<double>(sample.size());
    if (units == 64) base_time = avg_time;
    t.add_row({std::to_string(units),
               std::to_string(8 * 1024 / units) + "KB",
               TextTable::num(avg_mr, 6),
               TextTable::num(avg_time * 1e3, 3) + " ms",
               TextTable::num(avg_time / base_time, 1) + "x"});
  }
  emit_table(t, "ablation_granularity");

  std::cout << "\nExpected: time grows ~4x per doubling of C (O(P·C²)); "
               "the miss ratio improves marginally past ~256 units — the "
               "paper's 1024-unit grain is already conservative.\n";
  return 0;
}
