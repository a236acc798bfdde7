// Benchmark entry point: runs one workload untraced and prints its end-to-end
// metrics, or (--trace 1) runs the traced ledger of all three paths and
// prints the per-layer metrics plus a Chrome trace. The last line of
// stdout is the result object; a failed output check makes it
// "correct": false and the exit code 1.
//
//   perfbench --workload table1-cold|serve-fleet --seed N
//             --seconds S --trace 0|1 --work-dir DIR --bench-dir DIR
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "core/dp_kernel.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  report.add("setup_s", median(e2e.setup_s), "s");
  report.add("latency_ms", median(e2e.latency_ms), "ms");
  report.add("cpu_ms", median(e2e.cpu_ms), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  auto spread = [](const char* name, const std::vector<double>& v) {
    std::cerr << "perfbench: " << name << " n=" << v.size() << " min "
              << percentile(v, 0) << " p25 " << percentile(v, 0.25)
              << " median " << median(v) << " p75 " << percentile(v, 0.75)
              << " max " << percentile(v, 1) << "\n";
  };
  spread("setup_s", e2e.setup_s);
  spread("latency_ms", e2e.latency_ms);
  spread("cpu_ms", e2e.cpu_ms);
}

namespace {

struct Args {
  std::string workload;
  bool trace = false;
  Options options;
};

Args parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --key value pairs, got " + key);
    kv[key.substr(2)] = argv[++i];
  }
  auto take = [&](const std::string& key) {
    auto it = kv.find(key);
    if (it == kv.end()) throw std::invalid_argument("missing --" + key);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  Args a;
  a.workload = take("workload");
  a.options.seed = std::stoull(take("seed"));
  a.options.seconds = std::stod(take("seconds"));
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace takes 0 or 1");
  a.trace = trace == "1";
  a.options.work_dir = take("work-dir");
  a.options.bench_dir = take("bench-dir");
  if (!kv.empty()) throw std::invalid_argument("unknown option --" + kv.begin()->first);
  if (!(a.options.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  Report report;
  const std::string& w = args.workload;
  if (w != "table1-cold" && w != "serve-fleet")
    throw std::invalid_argument("unknown workload " + w);
  // The host block: threads, DP kernel, compiler and flags.
  std::cerr << "perfbench: " << w << " seed " << args.options.seed << ", "
            << ocps::parallel_thread_count() << " threads, DP kernel "
            << ocps::dp_detail::kernel_name(ocps::dp_detail::active_kernel())
            << ", " << ocps::obs::build_info().compiler << ", flags"
            << OCPS_PERFBENCH_CXX_FLAGS << "\n";
  if (!args.trace) {
    ocps::obs::set_enabled(false);
    EndToEnd e2e = w == "table1-cold" ? run_table1_cold(args.options, report)
                                      : run_serve_fleet(args.options, report);
    // A workload that failed before timing anything has no samples; the
    // result then carries only the failure.
    if (!e2e.setup_s.empty() && !e2e.latency_ms.empty()) report_end_to_end(e2e, report);
  } else {
    // Every traced run fills the whole ledger, so each per-layer metric
    // is measured on the path that exercises it whichever workload was
    // named; the controller path has a ledger but no timed workload.
    SpanLog spans;
    {
      Scope s(&spans, "ledger.table1-cold", 0);
      ledger_table1(args.options, report, spans, s.id());
    }
    {
      Scope s(&spans, "ledger.serve-fleet", 0);
      ledger_fleet(args.options, report, spans, s.id());
    }
    {
      Scope s(&spans, "ledger.controller", 0);
      ledger_controller(args.options, report, spans, s.id());
    }
    const std::string path = args.options.work_dir + "/trace-" + w + "-" +
                             std::to_string(args.options.seed) + ".json";
    std::ofstream out(path);
    spans.write_chrome_trace(out);
    if (!out) throw std::runtime_error("cannot write " + path);
    std::cerr << "perfbench: Chrome trace written to " << path << "\n";
  }
  const auto& failures = report.failures();
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
    std::cerr << "perfbench: FAILED: " << failures[i] << "\n";
  if (failures.size() > 20)
    std::cerr << "perfbench: ... and " << failures.size() - 20 << " more failures\n";
  std::cout << report.json_line() << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
