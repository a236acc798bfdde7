// Serving-path bench: throughput and latency of the `ocps serve` daemon
// under closed-loop load at 1, 4, and 16 concurrent clients.
//
// An in-process Server is started on a private Unix socket with a
// synthetic 8-program profile set; each client thread owns one blocking
// Client connection and issues partition requests back to back (a closed
// loop — the next request leaves only after the previous answer lands),
// so the measured latency is queue wait + solve + socket I/O. The daemon
// batches by group commit, with no linger: a lone request is solved at
// once, and requests that arrive while a batch solves ride the next one
// together. More clients therefore means bigger batches, which is the
// effect the batch engine exists to exploit: per-request latency should
// grow far more slowly than client count.
//
// Sanity anchors, checked at exit (non-zero exit on violation):
//  * every request is answered ok — no sheds, errors, or timeouts at any
//    concurrency level (queue_capacity comfortably exceeds 16);
//  * the daemon's answered counter matches the number of client calls;
//  * at 16 clients the mean batch is at least 2, so batches still form
//    under group commit.
//
// Environment knobs:
//   OCPS_SERVE_REQUESTS  total requests per concurrency level (default 600)
//   OCPS_THREADS         sweep/solver width inside the daemon
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "core/program_model.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/generators.hpp"
#include "util/table.hpp"

using namespace ocps;
using namespace ocps::bench;

namespace {

constexpr std::size_t kCapacity = 256;

std::vector<ProgramModel> make_models() {
  std::vector<ProgramModel> models;
  const std::size_t n = 60000;
  for (std::size_t i = 0; i < 8; ++i) {
    Trace t;
    switch (i % 4) {
      case 0: t = make_cyclic(n, 40 + 11 * i); break;
      case 1: t = make_zipf(n, 120 + 17 * i, 0.85, 300 + i); break;
      case 2: t = make_hot_cold(n, 6 + i, 90 + 13 * i, 0.8, 400 + i); break;
      default: t = make_sawtooth(n, 24 + 7 * i); break;
    }
    models.push_back(make_program_model("prog" + std::to_string(i),
                                        0.5 + 0.2 * i, compute_footprint(t),
                                        kCapacity));
  }
  return models;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

/// One client's closed loop: `count` partition requests over pairs/triples
/// drawn from a per-client LCG so every level exercises varied subsets
/// (and therefore varied DP prefixes) without shared client state.
struct WorkerResult {
  std::vector<double> latencies_ms;
  std::size_t failures = 0;
};

void run_worker(const std::string& socket_path, std::size_t worker,
                std::size_t count, WorkerResult* out) {
  Result<serve::Client> client = serve::Client::connect(socket_path);
  if (!client.ok()) {
    out->failures = count;
    return;
  }
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull * (worker + 1);
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::size_t>(lcg >> 33);
  };
  out->latencies_ms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t members = 2 + next() % 3;  // 2..4 programs
    std::size_t first = next() % 8;
    std::string line = R"({"op":"partition","programs":[)";
    for (std::size_t m = 0; m < members; ++m) {
      if (m > 0) line += ',';
      line += "\"prog" + std::to_string((first + m * 3) % 8) + "\"";
    }
    line += R"(],"capacity":)" + std::to_string(kCapacity) + "}";
    auto start = std::chrono::steady_clock::now();
    Result<serve::Response> r = client.value().call(line);
    auto elapsed = std::chrono::steady_clock::now() - start;
    if (!r.ok() || !r.value().ok) {
      ++out->failures;
      continue;
    }
    out->latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double idx = p * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(idx);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

int main() {
  const std::size_t total_requests = env_size("OCPS_SERVE_REQUESTS", 600);
  std::vector<ProgramModel> models = make_models();

  TextTable table({"clients", "requests", "throughput req/s", "p50 ms",
                   "p95 ms", "p99 ms", "batches", "mean batch"});
  bool ok = true;

  for (std::size_t clients : {1u, 4u, 16u}) {
    serve::ServeConfig config;
    config.socket_path = "/tmp/ocps_bench_serve_" +
                         std::to_string(::getpid()) + "_" +
                         std::to_string(clients) + ".sock";
    config.capacity = kCapacity;
    config.queue_capacity = 1024;
    serve::Server server(config, models);
    Result<bool> started = server.start();
    if (!started.ok()) {
      std::cerr << "FAIL: server did not start: " << started.error().message
                << "\n";
      return 1;
    }

    const std::size_t per_client = std::max<std::size_t>(
        1, total_requests / clients);
    std::vector<WorkerResult> results(clients);
    std::vector<std::thread> workers;
    PhaseTimer timer("serve_closed_loop");
    for (std::size_t w = 0; w < clients; ++w)
      workers.emplace_back(run_worker, config.socket_path, w, per_client,
                           &results[w]);
    for (std::thread& t : workers) t.join();
    double seconds = timer.stop();

    std::vector<double> lat;
    std::size_t failures = 0;
    for (const WorkerResult& r : results) {
      lat.insert(lat.end(), r.latencies_ms.begin(), r.latencies_ms.end());
      failures += r.failures;
    }
    std::sort(lat.begin(), lat.end());

    server.request_stop();
    server.stop();
    serve::Server::Counters counters = server.counters();

    if (failures != 0 || counters.shed != 0 ||
        counters.answered != lat.size()) {
      std::cerr << "FAIL: clients=" << clients << " failures=" << failures
                << " shed=" << counters.shed
                << " answered=" << counters.answered
                << " expected=" << lat.size() << "\n";
      ok = false;
    }

    double mean_batch =
        counters.batches == 0
            ? 0.0
            : static_cast<double>(counters.answered) /
                  static_cast<double>(counters.batches);
    if (clients == 16 && mean_batch < 2.0) {
      std::cerr << "FAIL: clients=16 mean batch " << mean_batch
                << " < 2: group commit formed no batches\n";
      ok = false;
    }
    table.add_row({std::to_string(clients), std::to_string(lat.size()),
                   TextTable::num(static_cast<double>(lat.size()) / seconds, 1),
                   TextTable::num(percentile(lat, 0.50), 3),
                   TextTable::num(percentile(lat, 0.95), 3),
                   TextTable::num(percentile(lat, 0.99), 3),
                   std::to_string(counters.batches),
                   TextTable::num(mean_batch, 2)});
  }

  emit_table(table, "serve_throughput");
  if (!ok) {
    std::cerr << "FAIL: serving bench sanity anchors violated\n";
    return 1;
  }
  std::cout << "OK: all requests answered, zero shed, counters consistent, "
               "batches formed at 16 clients\n";
  return 0;
}
