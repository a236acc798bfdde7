// Persistent thread pool behind the parallel evaluation sweeps.
//
// The seed implementation spawned std::thread workers on every
// parallel_for call and dispatched each index through a type-erased
// std::function. Both costs are gone here:
//
//  * workers are spawned once (ThreadPool::global(), sized from
//    OCPS_THREADS / hardware_concurrency) and parked on a condition
//    variable between loops; each starts by moving itself to its own
//    CPU, then restores the full affinity mask (see the constructor);
//  * one scheduler: a loop publishes itself, with width - 1 helper seats,
//    on the pool's list of open loops, and an idle worker takes a seat on
//    the newest one. Every participant then claims contiguous chunks from
//    the loop's shared cursor, which is the only load balancing. The
//    per-index callable is a template parameter invoked directly inside
//    the chunk loop, so tight bodies inline (no per-index indirect call).
//
// Loops are cooperative: the calling thread claims chunks too, so a
// nested for_each from inside a worker always makes progress even when
// every other worker is busy (a helper seated after the range drained
// leaves at once). Once the range is drained the caller withdraws the
// loop's free seats and waits until every seated helper has left.
// Exceptions thrown by the body are captured and the first one is
// rethrown on the calling thread after the loop quiesces, matching the
// old parallel_for contract.
//
// Observability (when OCPS_OBS=1): gauge `pool.threads`, the workers plus
// the calling thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
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

namespace detail {

/// Shared control block of one for_each loop, stack-allocated by the
/// caller. While the loop is open the pool lists it and idle workers take
/// its helper seats; the caller withdraws it and waits for every seated
/// helper to leave before returning, so the block never dangles.
struct LoopControl {
  void (*run)(LoopControl*) noexcept = nullptr;  // the typed loop body
  std::size_t seats = 0;   // free helper seats (guarded by the pool mutex)
  std::size_t seated = 0;  // helpers inside run (guarded by the pool mutex)
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t chunk = 1;
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
};

/// Typed loop body shared by the caller and its helpers. Each thread
/// entering run() builds its own per-thread state via make().
template <typename Make, typename Fn>
struct LoopBody : LoopControl {
  Make* make;
  Fn* fn;

  LoopBody(Make* m, Fn* f) : make(m), fn(f) { run = &run_body; }

  static void run_body(LoopControl* control) noexcept {
    auto* body = static_cast<LoopBody*>(control);
    std::size_t lo = 0, hi = 0;
    if (!body->claim(lo, hi)) return;  // drained before we started
    try {
      auto state = (*body->make)();
      do {
        for (std::size_t i = lo; i < hi; ++i) (*body->fn)(state, i);
      } while (body->claim(lo, hi));
    } catch (...) {
      body->record_error(std::current_exception());
    }
  }
};

}  // namespace detail

class ThreadPool {
 public:
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

 private:
  void worker_loop();
  /// Lists `loop` with its helper seats and wakes idle workers.
  void open(detail::LoopControl& loop);
  /// Withdraws `loop`'s free seats and waits until no helper is seated.
  void close(detail::LoopControl& loop);

  std::mutex mutex_;
  std::condition_variable seat_cv_;  // workers: a seat opened, or stop
  std::condition_variable left_cv_;  // callers: a helper left its loop
  std::vector<detail::LoopControl*> open_;  // free seats, newest last
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the workers use the above
};

template <typename Make, typename Fn>
void ThreadPool::for_each_with(std::size_t begin, std::size_t end,
                               Make&& make, Fn&& fn, std::size_t width) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  std::size_t auto_width = parallel_thread_count();
  if (width == 0 || width > workers() + 1)
    width = std::min(width == 0 ? auto_width : width, workers() + 1);
  width = std::min(width, n);

  auto make_copy = std::forward<Make>(make);
  auto fn_copy = std::forward<Fn>(fn);
  if (width <= 1) {
    // Serial: one state, plain loop, exceptions propagate directly.
    auto state = make_copy();
    for (std::size_t i = begin; i < end; ++i) fn_copy(state, i);
    return;
  }

  // Dynamic scheduling: contiguous chunks claimed from a shared cursor so
  // uneven per-index cost balances out, while each thread still sees long
  // ascending runs (good for prefix-cached state).
  using Body = detail::LoopBody<std::decay_t<Make>, std::decay_t<Fn>>;
  Body body(&make_copy, &fn_copy);
  body.next.store(begin, std::memory_order_relaxed);
  body.end = end;
  body.chunk = std::max<std::size_t>(1, n / (width * 8));
  body.seats = width - 1;

  open(body);
  Body::run_body(&body);  // the caller participates
  close(body);
  if (body.error) std::rethrow_exception(body.error);
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
