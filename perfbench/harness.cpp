#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.hpp"

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostCpu read_host_cpu() {
  HostCpu out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return HostCpu{};
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double steal_frac(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile rank outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

double histogram_mean(const std::string& name) {
  const ocps::obs::Histogram& h = ocps::obs::histogram(name);
  return h.count() == 0 ? 0.0 : h.sum() / static_cast<double>(h.count());
}

std::string hex_float(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name: " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value for metric " + name);
  if (!metrics_.emplace(name, Entry{value, unit}).second)
    throw std::invalid_argument("duplicate metric " + name);
}

void Report::fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
}

std::string Report::json_line() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << quoted(name) << ": {\"value\": " << number(e.value)
       << ", \"unit\": " << quoted(e.unit) << "}";
  }
  os << "}}";
  return os.str();
}

namespace {

std::uint32_t dense_tid() {
  static std::mutex mu;
  static std::map<std::thread::id, std::uint32_t> ids;
  std::lock_guard<std::mutex> lock(mu);
  auto it = ids.emplace(std::this_thread::get_id(),
                        static_cast<std::uint32_t>(ids.size()));
  return it.first->second;
}

}  // namespace

std::uint64_t SpanLog::open(const std::string& name, std::uint64_t parent,
                            std::uint64_t trace_id) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.trace_id = trace_id;
  s.tid = dense_tid();
  s.start_ns = ocps::obs::now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  open_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id) {
  const std::uint64_t now = ocps::obs::now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  auto us = [](std::uint64_t ns) { return number(static_cast<double>(ns) / 1e3); };
  os << "{\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
        "\"perfbench\"}},\n";
  os << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":"
        "\"ocps\"}}";
  for (const Span& s : spans()) {
    if (s.end_ns == 0) continue;  // still open
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"cat\":\"perfbench\",\"name\":" << quoted(s.name)
       << ",\"ts\":" << us(s.start_ns) << ",\"dur\":" << us(s.end_ns - s.start_ns)
       << ",\"args\":{\"span_id\":" << s.id << ",\"parent_id\":" << s.parent
       << ",\"trace_id\":" << s.trace_id << "}}";
  }
  for (const ocps::obs::TraceEvent& e : ocps::obs::trace_events()) {
    os << ",\n{\"ph\":\"" << (e.instant ? "i" : "X") << "\",\"pid\":2,\"tid\":"
       << e.tid << ",\"cat\":" << quoted(e.cat ? e.cat : "ocps")
       << ",\"name\":" << quoted(e.name ? e.name : "?") << ",\"ts\":" << us(e.ts_ns);
    if (e.instant)
      os << ",\"s\":\"t\"";
    else
      os << ",\"dur\":" << us(e.dur_ns);
    os << ",\"args\":{\"trace_id\":" << e.trace_id;
    if (e.arg_name) os << "," << quoted(e.arg_name) << ":" << e.arg;
    os << "}}";
  }
  os << "\n]}\n";
}

Scope::Scope(SpanLog* log, const std::string& name, std::uint64_t parent,
             std::uint64_t trace_id)
    : log_(log) {
  if (log_) id_ = log_->open(name, parent, trace_id);
}

Scope::~Scope() {
  if (log_) log_->close(id_);
}

std::vector<Outcome> run_open_loop(
    const std::vector<Scheduled>& schedule, std::size_t lanes,
    const std::function<bool(std::size_t op)>& call) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<std::size_t>> by_lane(lanes);
  for (std::size_t op = 0; op < schedule.size(); ++op) {
    if (schedule[op].lane >= lanes)
      throw std::invalid_argument("scheduled lane out of range");
    by_lane[schedule[op].lane].push_back(op);
  }
  for (auto& ops : by_lane)
    std::stable_sort(ops.begin(), ops.end(), [&](std::size_t a, std::size_t b) {
      return schedule[a].due_ns < schedule[b].due_ns;
    });

  std::vector<Outcome> out(schedule.size());
  const Clock::time_point start = Clock::now();
  auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  auto lane_main = [&](std::size_t lane) {
    for (std::size_t op : by_lane[lane]) {
      const Clock::time_point due =
          start + std::chrono::nanoseconds(schedule[op].due_ns);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      bool ok = false;
      try {
        ok = call(op);
      } catch (...) {
        ok = false;
      }
      const Clock::time_point done = Clock::now();
      out[op] = Outcome{ms_between(due, done), ms_between(due, sent),
                        ms_between(sent, done), ok};
    }
  };
  {
    // jthreads join when the vector goes, on the exception path too.
    std::vector<std::jthread> threads;
    threads.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane)
      threads.emplace_back(lane_main, lane);
  }
  return out;
}

}  // namespace perfbench
