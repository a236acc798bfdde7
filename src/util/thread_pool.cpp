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
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
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
    threads_.emplace_back([this, i, cpu, allowed] {
      if (cpu >= 0) start_on(cpu, allowed);
      worker_loop(i);
    });
  }
  OCPS_OBS_GAUGE("pool.threads", workers + 1);  // + the calling thread
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(parallel_thread_count() > 0
                             ? parallel_thread_count() - 1
                             : 0);
  return pool;
}

std::size_t ThreadPool::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& q : queues_) {
    std::lock_guard<std::mutex> lock(q->mutex);
    depth += q->jobs.size();
  }
  return depth;
}

bool ThreadPool::submit(Job job) {
  if (queues_.empty()) return false;
  std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->jobs.push_back(job);
  }
  pending_.fetch_add(1, std::memory_order_release);
  OCPS_OBS_GAUGE("pool.queue_depth",
                 pending_.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_one();
  }
  return true;
}

std::size_t ThreadPool::cancel(void* ctx) {
  std::size_t removed = 0;
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> lock(q->mutex);
    for (auto it = q->jobs.begin(); it != q->jobs.end();) {
      if (it->ctx == ctx) {
        it = q->jobs.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  if (removed > 0) pending_.fetch_sub(removed, std::memory_order_release);
  return removed;
}

bool ThreadPool::try_pop(std::size_t self, Job& out) {
  // Own queue first, newest job (LIFO: best locality for nested loops)...
  {
    auto& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.jobs.empty()) {
      out = q.jobs.back();
      q.jobs.pop_back();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // ... then steal the oldest job from the other queues (FIFO end), which
  // tends to grab whole loops rather than their tails.
  for (std::size_t off = 1; off < queues_.size(); ++off) {
    auto& q = *queues_[(self + off) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.jobs.empty()) {
      out = q.jobs.front();
      q.jobs.pop_front();
      pending_.fetch_sub(1, std::memory_order_release);
      OCPS_OBS_COUNT("pool.jobs_stolen", 1);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    Job job;
    if (try_pop(self, job)) {
      job.run(job.ctx);
      OCPS_OBS_COUNT("pool.jobs_executed", 1);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;
  }
}

}  // namespace ocps
