#include "common.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "combinatorics/enumerate.hpp"
#include "util/check.hpp"
#include "util/config.hpp"

namespace ocps::bench {

PhaseTimer::PhaseTimer(const char* name)
    : name_(name), start_(std::chrono::steady_clock::now()) {
  span_.emplace(name, "bench");
}

PhaseTimer::~PhaseTimer() { stop(); }

double PhaseTimer::seconds() const {
  if (stopped_seconds_ >= 0.0) return stopped_seconds_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double PhaseTimer::stop() {
  if (stopped_seconds_ < 0.0) {
    stopped_seconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    if (obs::enabled())
      obs::histogram(std::string("bench.") + name_ + "_ns")
          .observe(stopped_seconds_ * 1e9);
    span_.reset();
  }
  return stopped_seconds_;
}

void emit_metrics_snapshot_if_enabled() {
  static bool emitted = false;
  if (emitted || !obs::enabled()) return;
  emitted = true;
  std::string path = env_string("OCPS_METRICS_OUT", "");
  if (path.empty()) {
    std::cout << "[ocps] metrics snapshot:\n";
    obs::write_metrics_json(std::cout);
    std::cout << std::endl;
  } else {
    std::ofstream os(path, std::ios::trunc);
    OCPS_CHECK(os.good(), "cannot write metrics snapshot " << path);
    obs::write_metrics_json(os);
    std::cerr << "[ocps] metrics snapshot written to " << path << "\n";
  }
}

namespace {

// Emits the snapshot when the bench binary exits through main's return
// path; explicit early calls take precedence via the idempotence flag.
struct SnapshotAtExit {
  ~SnapshotAtExit() { emit_metrics_snapshot_if_enabled(); }
} snapshot_at_exit;

}  // namespace

Suite load_suite() { return build_spec2006_suite(suite_options_from_env()); }

Evaluation load_evaluation() {
  Evaluation eval;
  eval.suite = load_suite();
  eval.capacity = eval.suite.options.capacity;

  auto groups = all_subsets(
      static_cast<std::uint32_t>(eval.suite.models.size()), 4);
  std::int64_t limit =
      env_int("OCPS_GROUP_LIMIT", static_cast<std::int64_t>(groups.size()));
  if (limit > 0 && static_cast<std::size_t>(limit) < groups.size())
    groups.resize(static_cast<std::size_t>(limit));
  eval.groups = groups;

  SweepOptions sweep_options;
  sweep_options.capacity = eval.capacity;
  PhaseTimer timer("load_evaluation.sweep");
  eval.sweep = sweep_groups(eval.suite.models, groups, sweep_options);
  double elapsed = timer.stop();
  std::cerr << "[ocps] swept " << eval.sweep.size() << " groups in "
            << elapsed << " s ("
            << elapsed / static_cast<double>(eval.sweep.size())
            << " s/group)\n";
  return eval;
}

void emit_csv_only(const TextTable& table, const std::string& name) {
  std::string dir = env_string("OCPS_CSV_DIR", "");
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  std::ofstream os(dir + "/" + name + ".csv", std::ios::trunc);
  table.print_csv(os);
  std::cout << "(full series csv written to " << dir << "/" << name
            << ".csv)\n";
}

void emit_table(const TextTable& table, const std::string& name) {
  table.print(std::cout);
  std::string dir = env_string("OCPS_CSV_DIR", "");
  if (!dir.empty()) {
    std::filesystem::create_directories(dir);
    std::ofstream os(dir + "/" + name + ".csv", std::ios::trunc);
    table.print_csv(os);
    std::cout << "(csv written to " << dir << "/" << name << ".csv)\n";
  }
}

}  // namespace ocps::bench
