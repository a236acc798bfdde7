#include "util/thread_pool.hpp"

#include <pthread.h>
#include <sched.h>

#include "obs/obs.hpp"
#include "util/config.hpp"

namespace ocps {

namespace {

// CPUs the workers start on: the allowed set minus the creating thread's
// CPU. Empty when the mask cannot be read or nothing else is allowed.
std::vector<int> start_cpus(cpu_set_t& allowed) {
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  const int creator = sched_getcpu();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed) && cpu != creator) cpus.push_back(cpu);
  return cpus;
}

// Moves the calling thread onto `cpu`, then restores the full mask so no
// pin outlasts the move. Failures are ignored: placement only speeds up
// the first loops.
void start_on(int cpu, const cpu_set_t& allowed) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
}

}  // namespace

std::size_t parallel_thread_count() {
  std::int64_t forced = env_int("OCPS_THREADS", 0);
  if (forced > 0) return static_cast<std::size_t>(forced);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t workers) {
  // After the host has idled, the kernel starts every new thread of a
  // fresh process on one CPU and spreads them only ~0.7 s later, so the
  // first loops of a new pool ran on one core. Each worker first moves
  // itself to a distinct CPU (round robin when workers outnumber CPUs).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const std::vector<int> cpus = start_cpus(allowed);
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    const int cpu = cpus.empty() ? -1 : cpus[i % cpus.size()];
    threads_.emplace_back([this, cpu, allowed] {
      if (cpu >= 0) start_on(cpu, allowed);
      worker_loop();
    });
  }
  OCPS_OBS_GAUGE("pool.threads", workers + 1);  // + the calling thread
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  seat_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(parallel_thread_count() > 0
                             ? parallel_thread_count() - 1
                             : 0);
  return pool;
}

void ThreadPool::open(detail::LoopControl& loop) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(&loop);
  }
  seat_cv_.notify_all();
}

void ThreadPool::close(detail::LoopControl& loop) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (loop.seats > 0) {
    open_.erase(std::find(open_.begin(), open_.end(), &loop));
    loop.seats = 0;
  }
  left_cv_.wait(lock, [&] { return loop.seated == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    seat_cv_.wait(lock, [&] { return stop_ || !open_.empty(); });
    if (stop_) return;
    // The newest loop first: inside a nested loop that is the inner one.
    detail::LoopControl* loop = open_.back();
    if (--loop->seats == 0) open_.pop_back();
    ++loop->seated;
    lock.unlock();
    loop->run(loop);
    lock.lock();
    if (--loop->seated == 0) left_cv_.notify_all();
  }
}

}  // namespace ocps
