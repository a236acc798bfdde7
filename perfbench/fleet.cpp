// serve-fleet: one process hosts an `ocps router`, two `ocps serve`
// backends loaded with the 16 committed profiles, and an open-loop
// generator. `partition` requests for seeded random 2–4-program groups
// arrive at one fixed rate well below saturation; alongside them,
// `reload`s at a low fixed rate alternate between two profile sets. The
// second set differs from the first in three programs, so a reload
// changes cost rows and invalidates cached DP layers instead of being a
// no-op. In this round trip the socket, batcher and router layers
// dominate and the DP is small. The mix carries no `sweep` ops: one sweep
// per second made partition tails swing by 2x between runs.
#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/dp_partition.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"
#include "workloads/spec_like.hpp"

namespace perfbench {

using namespace ocps;

namespace {

constexpr double kPartitionRate = 400.0;  ///< requests per second
constexpr double kReloadRate = 2.0;       ///< reloads per second
constexpr std::size_t kBackends = 2;
/// Programs whose profile in the second set comes from a 200 k-access
/// trace instead of the committed 400 k one.
const char* const kChangedPrograms[] = {"perlbench", "mcf", "lbm"};
const std::chrono::milliseconds kCallTimeout{5000};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The two profile sets, as footprint-file paths in suite order.
struct ProfilePaths {
  std::vector<std::string> a, b;
};

ProfilePaths profile_paths(const Options& options) {
  ProfilePaths p;
  for (const WorkloadSpec& spec : spec2006_suite()) {
    const std::string committed = "ocps_cache/" + spec.name + "_n400000.fp";
    p.a.push_back(committed);
    const bool changed =
        std::find(std::begin(kChangedPrograms), std::end(kChangedPrograms),
                  spec.name) != std::end(kChangedPrograms);
    p.b.push_back(changed ? options.bench_dir + "/profiles/" + spec.name + "_n200000.fp"
                          : committed);
  }
  return p;
}

std::vector<ProgramModel> load_models(const std::vector<std::string>& paths) {
  std::vector<ProgramModel> models;
  for (const std::string& path : paths) {
    Result<ProgramModel> m = serve::load_profile(path, kCapacity);
    if (!m.ok()) throw std::runtime_error("cannot load " + path + ": " + m.error().message);
    models.push_back(std::move(m.value()));
  }
  return models;
}

/// Router plus backends plus one client connection per generator lane,
/// all in this process over Unix sockets under the work directory.
class Fleet {
 public:
  Fleet(const Options& options, const std::vector<std::string>& paths,
        std::size_t lanes, int generation) {
    const std::string prefix = options.work_dir + "/g" + std::to_string(generation);
    serve::RouterConfig rc;
    rc.socket_path = prefix + "-router.sock";
    for (std::size_t i = 0; i < kBackends; ++i) {
      serve::ServeConfig sc;
      sc.socket_path = prefix + "-b" + std::to_string(i) + ".sock";
      sc.capacity = kCapacity;
      backends_.push_back(std::make_unique<serve::Server>(sc, load_models(paths)));
      Result<bool> started = backends_.back()->start();
      if (!started.ok())
        throw std::runtime_error("backend start: " + started.error().message);
      rc.backends.push_back(sc.socket_path);
    }
    router_ = std::make_unique<serve::Router>(rc);
    Result<bool> started = router_->start();
    if (!started.ok()) throw std::runtime_error("router start: " + started.error().message);
    for (std::size_t i = 0; i < lanes; ++i) {
      Result<serve::Client> c = serve::Client::connect(rc.socket_path);
      if (!c.ok()) throw std::runtime_error("connect: " + c.error().message);
      clients.push_back(std::move(c.value()));
    }
  }
  ~Fleet() {
    clients.clear();
    router_->stop();
    for (auto& b : backends_) b->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  serve::Server::Counters backend_totals() const {
    serve::Server::Counters sum;
    for (const auto& b : backends_) {
      serve::Server::Counters c = b->counters();
      sum.answered += c.answered;
      sum.batches += c.batches;
      sum.shed += c.shed;
      sum.deadline_exceeded += c.deadline_exceeded;
    }
    return sum;
  }
  serve::Router::Counters router_counters() const { return router_->counters(); }

  std::vector<serve::Client> clients;  ///< one per generator lane

 private:
  std::vector<std::unique_ptr<serve::Server>> backends_;
  std::unique_ptr<serve::Router> router_;
};

struct Op {
  bool reload = false;
  std::vector<std::string> programs;  ///< partition members, request order
  int profile_set = 0;                ///< reload target: 0 = A, 1 = B
};

/// One partition answer as the generator saw it.
struct Answer {
  bool ok = false;
  std::string error;
  std::vector<double> alloc;
  std::uint64_t version = 0;
};

struct Plan {
  std::vector<Op> ops;
  std::vector<Scheduled> schedule;
  std::size_t partition_lanes = 1;
  std::size_t partitions = 0;
};

/// Fixed-rate schedule: partitions every 1/kPartitionRate seconds,
/// round-robin over the partition lanes; reloads on a lane of their own so
/// a slow reload never delays a partition send.
Plan make_plan(std::uint64_t seed, double seconds) {
  Plan plan;
  const std::size_t threads = std::max<unsigned>(2, std::thread::hardware_concurrency());
  plan.partition_lanes = std::min<std::size_t>(threads - 1, 3);
  const auto& suite = spec2006_suite();
  std::uint64_t rng = seed;
  const auto partitions = static_cast<std::size_t>(seconds * kPartitionRate);
  for (std::size_t i = 0; i < partitions; ++i) {
    Op op;
    const std::size_t size = 2 + splitmix64(rng) % 3;
    std::vector<std::size_t> picked;
    while (picked.size() < size) {
      const std::size_t idx = splitmix64(rng) % suite.size();
      if (std::find(picked.begin(), picked.end(), idx) == picked.end()) picked.push_back(idx);
    }
    for (std::size_t idx : picked) op.programs.push_back(suite[idx].name);
    plan.ops.push_back(std::move(op));
    plan.schedule.push_back(Scheduled{
        i % plan.partition_lanes,
        static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / kPartitionRate)});
  }
  plan.partitions = partitions;
  const auto reloads = static_cast<std::size_t>(seconds * kReloadRate);
  for (std::size_t j = 0; j < reloads; ++j) {
    Op op;
    op.reload = true;
    op.profile_set = j % 2 == 0 ? 1 : 0;  // B, A, B, ...
    plan.ops.push_back(std::move(op));
    plan.schedule.push_back(Scheduled{
        plan.partition_lanes,
        static_cast<std::uint64_t>((static_cast<double>(j) + 0.5) * 1e9 / kReloadRate)});
  }
  return plan;
}

struct Executed {
  std::vector<Outcome> outcomes;  ///< indexed like plan.ops
  std::vector<Answer> answers;    ///< partitions only
  std::vector<double> cpu_ms;     ///< per one-second slice, per partition
  HostCpu host_before, host_after;
};

/// Runs the plan against the fleet. With `spans`, every request gets a
/// trace id and a span, so the router's and backends' spans join it.
Executed execute(const Plan& plan, const ProfilePaths& paths, Fleet& fleet,
                 SpanLog* spans, std::uint64_t parent) {
  Executed ex;
  ex.answers.resize(plan.ops.size());
  // One CPU reading per second of schedule. A jthread asks the sampler to
  // stop and joins it on every exit path.
  std::vector<double> slice_cpu;
  const double slice_start = wall_s();
  slice_cpu.push_back(cpu_s());
  std::jthread sampler([&](std::stop_token stop) {
    for (int k = 1; !stop.stop_requested(); ++k) {
      const double due = slice_start + k;
      while (!stop.stop_requested() && wall_s() < due)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (stop.stop_requested()) break;
      slice_cpu.push_back(cpu_s());
    }
  });
  ex.host_before = read_host_cpu();
  ex.outcomes = run_open_loop(plan.schedule, plan.partition_lanes + 1, [&](std::size_t i) {
    const Op& op = plan.ops[i];
    serve::Request req;
    req.id = static_cast<std::int64_t>(i + 1);
    if (spans) req.trace_id = 0x5EED0000ULL + i + 1;
    Scope s(spans, op.reload ? "reload" : "partition", parent, req.trace_id);
    serve::Client& client = fleet.clients[plan.schedule[i].lane];
    if (op.reload) {
      req.op = serve::Op::kReload;
      req.paths = op.profile_set == 0 ? paths.a : paths.b;
      Result<serve::Response> r = client.call(serve::encode_request(req), kCallTimeout);
      return r.ok() && r.value().ok;
    }
    req.op = serve::Op::kPartition;
    req.programs = op.programs;
    req.capacity = kCapacity;
    Result<serve::Response> r = client.call(serve::encode_request(req), kCallTimeout);
    Answer& a = ex.answers[i];
    if (!r.ok()) {
      a.error = "transport: " + r.error().message;
      return false;
    }
    if (!r.value().ok) {
      a.error = "code " + std::to_string(r.value().code) + ": " + r.value().error;
      return false;
    }
    const json::Value& body = r.value().body;
    const json::Value* alloc = body.find("alloc");
    const json::Value* version = body.find("version");
    if (!alloc || !alloc->is_array() || !version || !version->is_number()) {
      a.error = "malformed answer";
      return false;
    }
    for (const json::Value& v : alloc->as_array()) a.alloc.push_back(v.as_number());
    a.version = static_cast<std::uint64_t>(version->as_number());
    a.ok = true;
    return true;
  });
  ex.host_after = read_host_cpu();
  sampler.request_stop();
  sampler.join();
  slice_cpu.push_back(cpu_s());  // after the join: the sampler also appends
  // Whole slices only; the last entry closes the final partial slice.
  const double per_slice = kPartitionRate;
  for (std::size_t k = 1; k + 1 < slice_cpu.size(); ++k)
    ex.cpu_ms.push_back((slice_cpu[k] - slice_cpu[k - 1]) * 1e3 / per_slice);
  if (ex.cpu_ms.empty())
    ex.cpu_ms.push_back((slice_cpu.back() - slice_cpu.front()) * 1e3 /
                        static_cast<double>(std::max<std::size_t>(1, plan.partitions)));
  return ex;
}

/// Re-solves every answered partition offline through core's DP on the
/// profile set its version names (odd = A, the start set; even = B) with
/// members in the daemon's ascending-index order, and counts the failed
/// requests: transport errors, error responses and wrong allocations.
std::size_t verify(const Plan& plan, const Executed& ex, const ProfilePaths& paths,
                   Report& report) {
  const auto set_a = serve::make_profile_set(load_models(paths.a), kCapacity, 1);
  const auto set_b = serve::make_profile_set(load_models(paths.b), kCapacity, 2);
  std::map<std::pair<int, std::vector<std::uint32_t>>, std::vector<std::size_t>> solved;
  std::size_t failed = 0;
  std::vector<const double*> rows;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    const Outcome& out = ex.outcomes[i];
    report.count_attempt();
    if (op.reload) {
      if (!out.ok) {
        ++failed;
        report.fail("reload " + std::to_string(i) + " failed");
      }
      continue;
    }
    const Answer& a = ex.answers[i];
    if (!a.ok) {
      ++failed;
      report.fail("partition " + std::to_string(i) + ": " + a.error);
      continue;
    }
    const int which = a.version % 2 == 1 ? 0 : 1;
    const serve::ProfileSet& set = which == 0 ? *set_a : *set_b;
    std::vector<std::pair<std::uint32_t, std::size_t>> order;
    for (std::size_t pos = 0; pos < op.programs.size(); ++pos)
      order.emplace_back(static_cast<std::uint32_t>(set.index_of(op.programs[pos])), pos);
    std::sort(order.begin(), order.end());
    std::vector<std::uint32_t> members;
    for (const auto& [idx, pos] : order) members.push_back(idx);
    auto it = solved.find({which, members});
    if (it == solved.end()) {
      DpResult dp = optimize_partition(
          set.unit_costs.gather(members.data(), members.size(), rows), kCapacity);
      it = solved.emplace(std::make_pair(which, members), dp.alloc).first;
    }
    bool same = a.alloc.size() == members.size();
    for (std::size_t j = 0; same && j < order.size(); ++j)
      same = a.alloc[order[j].second] == static_cast<double>(it->second[j]);
    if (!same) {
      ++failed;
      report.fail("partition " + std::to_string(i) + ": allocation differs from the offline DP");
    }
  }
  return failed;
}

/// Latencies of the partitions, a failed request counting as +inf so it
/// misses every percentile it could affect.
std::vector<double> partition_latencies(const Plan& plan, const Executed& ex) {
  std::vector<double> out;
  for (std::size_t i = 0; i < plan.ops.size(); ++i)
    if (!plan.ops[i].reload)
      out.push_back(ex.outcomes[i].ok ? ex.outcomes[i].latency_ms
                                      : std::numeric_limits<double>::infinity());
  return out;
}

/// Starts a fleet and proves it answers: one partition per lane.
std::unique_ptr<Fleet> start_fleet(const Options& options, const ProfilePaths& paths,
                                   std::size_t lanes, int generation) {
  auto fleet = std::make_unique<Fleet>(options, paths.a, lanes, generation);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    serve::Request req;
    req.id = static_cast<std::int64_t>(lane + 1);
    req.op = serve::Op::kPartition;
    req.programs = {"mcf", "lbm"};
    req.capacity = kCapacity;
    Result<serve::Response> r =
        fleet->clients[lane].call(serve::encode_request(req), kCallTimeout);
    if (!r.ok() || !r.value().ok) throw std::runtime_error("fleet not ready");
  }
  return fleet;
}

}  // namespace

EndToEnd run_serve_fleet(const Options& options, Report& report) {
  EndToEnd e2e;
  const ProfilePaths paths = profile_paths(options);
  const Plan plan = make_plan(options.seed, options.seconds);
  // Set-up is profile load plus fleet start, repeated; the last fleet
  // stays up for the timed phase.
  std::unique_ptr<Fleet> fleet;
  for (int g = 0; g < 5; ++g) {
    fleet.reset();
    const double t = wall_s();
    fleet = start_fleet(options, paths, plan.partition_lanes + 1, g);
    e2e.setup_s.push_back(wall_s() - t);
  }
  Executed ex = execute(plan, paths, *fleet, nullptr, 0);
  fleet.reset();
  verify(plan, ex, paths, report);
  e2e.latency_ms = partition_latencies(plan, ex);
  e2e.cpu_ms = ex.cpu_ms;
  return e2e;
}

void ledger_fleet(const Options& options, Report& report, SpanLog& spans,
                  std::uint64_t root) {
  const ProfilePaths paths = profile_paths(options);
  const Plan plan = make_plan(options.seed, std::max(2.0, options.seconds / 2.0));

  // Untraced: the request-level figures and the harness flags.
  obs::set_enabled(false);
  Executed plain;
  {
    Scope s(&spans, "fleet.untraced", root);
    auto fleet = start_fleet(options, paths, plan.partition_lanes + 1, 10);
    plain = execute(plan, paths, *fleet, nullptr, 0);
  }
  const std::size_t failed = verify(plan, plain, paths, report);
  std::vector<double> reload_ms, late_ms;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    late_ms.push_back(plain.outcomes[i].late_ms);
    if (plan.ops[i].reload) reload_ms.push_back(plain.outcomes[i].latency_ms);
  }
  report.add("serve.partition_p95_ms", percentile(partition_latencies(plan, plain), 0.95), "ms");
  report.add("serve.reload_p50_ms", median(reload_ms), "ms");
  report.add("serve.fail_frac", static_cast<double>(failed) / static_cast<double>(plan.ops.size()),
             "ratio");
  report.add("gen.late_p99_ms", percentile(late_ms, 0.99), "ms");
  report.add("host.steal_frac", steal_frac(plain.host_before, plain.host_after), "ratio");

  // Traced: every request carries a trace id, and the program's registry
  // and spans record.
  obs::set_enabled(true);
  Executed traced;
  serve::Server::Counters backend;
  serve::Router::Counters router;
  std::uint64_t invalidated = 0;
  {
    Scope s(&spans, "fleet.traced", root);
    auto fleet = start_fleet(options, paths, plan.partition_lanes + 1, 11);
    obs::reset_metrics();
    const serve::Server::Counters before = fleet->backend_totals();
    traced = execute(plan, paths, *fleet, &spans, s.id());
    backend = fleet->backend_totals();
    backend.answered -= before.answered;
    backend.batches -= before.batches;
    router = fleet->router_counters();
    invalidated = obs::counter("dp.layers_invalidated").value();
  }
  verify(plan, traced, paths, report);
  report.add("obs.overhead_frac.fleet", median(traced.cpu_ms) / median(plain.cpu_ms) - 1.0,
             "ratio");
  for (const char* stage : {"queue_wait", "batch_linger", "solve", "serialize", "network"})
    report.add(std::string("serve.stage.") + stage + "_ms",
               histogram_mean(std::string("serve.stage.") + stage), "ms");
  report.add("serve.mean_batch",
             backend.batches ? static_cast<double>(backend.answered) /
                                   static_cast<double>(backend.batches)
                             : 0.0,
             "count");
  report.add("serve.shed", static_cast<double>(backend.shed), "count");
  report.add("serve.deadline_exceeded", static_cast<double>(backend.deadline_exceeded), "count");
  report.add("serve.layers_invalidated", static_cast<double>(invalidated), "count");
  report.count_attempt();
  if (invalidated == 0) report.fail("reloads invalidated no DP layers");

  // Router hop: what the client saw minus what the router waited on its
  // backends for.
  double backend_sum = 0.0, backend_count = 0.0;
  for (std::size_t i = 0; i < kBackends; ++i) {
    const obs::Histogram& h = obs::histogram("serve.router.backend_latency." + std::to_string(i));
    backend_sum += h.sum();
    backend_count += static_cast<double>(h.count());
  }
  std::vector<double> service_ms;
  for (std::size_t i = 0; i < plan.ops.size(); ++i)
    if (!plan.ops[i].reload && traced.outcomes[i].ok)
      service_ms.push_back(traced.outcomes[i].service_ms);
  report.add("router.hop_ms",
             mean(service_ms) - (backend_count > 0 ? backend_sum / backend_count : 0.0), "ms");
  report.add("router.failovers", static_cast<double>(router.failovers), "count");
  report.add("router.relayed_errors", static_cast<double>(router.relayed_errors), "count");
}

}  // namespace perfbench
