// Persistent work-stealing thread pool behind the parallel evaluation
// sweeps.
//
// The seed implementation spawned std::thread workers on every
// parallel_for call and dispatched each index through a type-erased
// std::function. Both costs are gone here:
//
//  * workers are spawned once (ThreadPool::global(), sized from
//    OCPS_THREADS / hardware_concurrency) and parked on a condition
//    variable between loops; each starts by moving itself to its own
//    CPU, then restores the full affinity mask (see the constructor);
//  * jobs are plain {function pointer, context} pairs pushed into
//    per-worker deques — owners pop newest-first, idle workers steal
//    oldest-first from a random victim — and parallel loops are chunked:
//    the per-index callable is a template parameter invoked directly
//    inside the chunk loop, so tight bodies inline (no per-index
//    indirect call).
//
// Loops are cooperative: the calling thread claims chunks too, so a
// nested for_each from inside a worker always makes progress even when
// every other worker is busy (helper jobs that find no chunks left exit
// immediately; queued helpers are cancelled when the loop drains early).
// Exceptions thrown by the body are captured and the first one is
// rethrown on the calling thread after the loop quiesces, matching the
// old parallel_for contract.
//
// Observability (when OCPS_OBS=1): gauge `pool.threads`, counters
// `pool.jobs_executed`, `pool.jobs_stolen`, `pool.loops`, and gauge
// `pool.queue_depth` sampled at submission time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ocps {

/// Number of worker threads used for parallel loops: hardware_concurrency,
/// overridable with OCPS_THREADS. (Total loop width; the pool itself keeps
/// one fewer persistent worker because the caller participates.)
std::size_t parallel_thread_count();

class ThreadPool {
 public:
  /// A unit of pool work: `run(ctx)` — no allocation, no type erasure
  /// beyond the function pointer.
  struct Job {
    void (*run)(void*) noexcept = nullptr;
    void* ctx = nullptr;
  };

  /// Spawns `workers` persistent threads (0 is valid: every loop then runs
  /// entirely on the calling thread).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, created on first use with
  /// max(parallel_thread_count() - 1, 0) workers. OCPS_THREADS is read at
  /// creation time for the pool size and per loop for the loop width.
  static ThreadPool& global();

  std::size_t workers() const { return threads_.size(); }

  /// Jobs queued but not yet claimed, summed across worker deques.
  std::size_t queue_depth() const;

  /// Runs fn(i) for every i in [begin, end) with dynamically claimed
  /// contiguous chunks. Blocks until every index ran; rethrows the first
  /// exception after the loop quiesces. `width` caps the number of
  /// participating threads (0 = auto: min(parallel_thread_count(),
  /// workers()+1)).
  template <typename Fn>
  void for_each(std::size_t begin, std::size_t end, Fn&& fn,
                std::size_t width = 0) {
    for_each_with(
        begin, end, [] { return char{0}; },
        [&fn](char&, std::size_t i) { fn(i); }, width);
  }

  /// for_each with per-thread state: each participating thread calls
  /// make() once, then fn(state, i) for every index it claims. Chunks are
  /// contiguous and claimed in ascending order, so state that caches
  /// recent work (e.g. DP prefix layers) sees long runs of adjacent
  /// indices.
  template <typename Make, typename Fn>
  void for_each_with(std::size_t begin, std::size_t end, Make&& make,
                     Fn&& fn, std::size_t width = 0);

  /// Enqueues one raw job (round-robin across worker deques). Returns
  /// false when the pool has no workers — the caller must run it inline.
  bool submit(Job job);

  /// Removes not-yet-claimed jobs whose ctx equals `ctx`; returns how many
  /// were removed. Used to retire helper jobs of a loop that drained
  /// before they started.
  std::size_t cancel(void* ctx);

 private:
  struct WorkerQueue {
    mutable std::mutex mutex;
    std::deque<Job> jobs;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, Job& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> pending_{0};
};

namespace detail {

/// Shared control block of one for_each loop, stack-allocated by the
/// caller. Helper jobs reference it; the caller cancels or joins every
/// helper before returning, so the block never dangles.
struct LoopControl {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> live_helpers{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;
  std::mutex error_mutex;

  /// Claims the next chunk; returns false when the range is exhausted.
  bool claim(std::size_t& lo, std::size_t& hi) {
    std::size_t got = next.fetch_add(chunk, std::memory_order_relaxed);
    if (got >= end) return false;
    lo = got;
    hi = got + chunk < end ? got + chunk : end;
    return true;
  }

  void record_error(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = e;
    }
    // Stop handing out further chunks; in-flight chunks finish.
    next.store(end, std::memory_order_relaxed);
  }

  void helper_done() {
    std::lock_guard<std::mutex> lock(done_mutex);
    live_helpers.fetch_sub(1, std::memory_order_acq_rel);
    done_cv.notify_all();
  }
};

/// Typed loop body shared by the caller and helper jobs. Each thread
/// entering run() builds its own per-thread state via make().
template <typename Make, typename Fn>
struct LoopBody {
  LoopControl control;
  Make* make;
  Fn* fn;

  void run() noexcept {
    std::size_t lo = 0, hi = 0;
    if (!control.claim(lo, hi)) return;  // drained before we started
    try {
      auto state = (*make)();
      do {
        for (std::size_t i = lo; i < hi; ++i) (*fn)(state, i);
      } while (control.claim(lo, hi));
    } catch (...) {
      control.record_error(std::current_exception());
    }
  }

  static void run_job(void* ctx) noexcept {
    auto* body = static_cast<LoopBody*>(ctx);
    body->run();
    body->control.helper_done();
  }
};

}  // namespace detail

template <typename Make, typename Fn>
void ThreadPool::for_each_with(std::size_t begin, std::size_t end,
                               Make&& make, Fn&& fn, std::size_t width) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  std::size_t auto_width = parallel_thread_count();
  if (width == 0 || width > workers() + 1)
    width = std::min(width == 0 ? auto_width : width, workers() + 1);
  width = std::min(width, n);

  using Body = detail::LoopBody<std::decay_t<Make>, std::decay_t<Fn>>;
  auto make_copy = std::forward<Make>(make);
  auto fn_copy = std::forward<Fn>(fn);
  Body body{};
  body.make = &make_copy;
  body.fn = &fn_copy;
  body.control.next.store(begin, std::memory_order_relaxed);
  body.control.end = end;

  if (width <= 1) {
    // Serial: one state, plain loop, exceptions propagate directly.
    auto state = make_copy();
    for (std::size_t i = begin; i < end; ++i) fn_copy(state, i);
    return;
  }

  // Dynamic scheduling: contiguous chunks claimed from a shared cursor so
  // uneven per-index cost balances out, while each thread still sees long
  // ascending runs (good for prefix-cached state).
  body.control.chunk = std::max<std::size_t>(1, n / (width * 8));

  const std::size_t helpers = width - 1;
  body.control.live_helpers.store(helpers, std::memory_order_relaxed);
  for (std::size_t h = 0; h < helpers; ++h)
    submit(Job{&Body::run_job, &body});

  body.run();  // the caller participates

  // The range is drained (or an error stopped it): retire helpers that
  // never started, then wait for the ones that did.
  std::size_t cancelled = cancel(&body);
  if (cancelled > 0) {
    std::lock_guard<std::mutex> lock(body.control.done_mutex);
    body.control.live_helpers.fetch_sub(cancelled,
                                        std::memory_order_acq_rel);
  }
  {
    std::unique_lock<std::mutex> lock(body.control.done_mutex);
    body.control.done_cv.wait(lock, [&] {
      return body.control.live_helpers.load(std::memory_order_acquire) == 0;
    });
  }
  if (body.control.error) std::rethrow_exception(body.control.error);
}

/// Runs fn(i) for every i in [begin, end) on the global pool. Template
/// over the callable so per-index dispatch inlines (the seed version took
/// const std::function& — an indirect call per index).
template <typename Fn>
inline void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  ThreadPool::global().for_each(begin, end, std::forward<Fn>(fn));
}

/// parallel_for with per-thread state (see ThreadPool::for_each_with).
template <typename Make, typename Fn>
inline void parallel_for_with(std::size_t begin, std::size_t end,
                              Make&& make, Fn&& fn,
                              std::size_t width = 0) {
  ThreadPool::global().for_each_with(begin, end, std::forward<Make>(make),
                                     std::forward<Fn>(fn), width);
}

}  // namespace ocps
