// Per-second slots over a sliding window, shared by WindowedHistogram and
// SloTracker. A slot is recycled lazily when a newer second hashes onto
// it, so window + 1 slots never evict an in-window second and an idle ring
// needs no sweeping. Unsynchronized: the owner holds its own lock.
#pragma once

#include <cstdint>
#include <vector>

namespace ocps::obs {

template <typename T>
class SecondRing {
 public:
  explicit SecondRing(unsigned window_seconds) : slots_(window_seconds + 1) {}

  /// The slot of now_ns's second, reset to T{} if an older second held it.
  T& at(std::uint64_t now_ns) {
    const std::uint64_t sec = now_ns / 1000000000ULL;
    Slot& s = slots_[sec % slots_.size()];
    if (s.second != sec) s = Slot{sec, T{}};
    return s.value;
  }

  /// Calls fn(value) for each slot of the `window` seconds ending with
  /// now_ns's second.
  template <typename Fn>
  void for_window(std::uint64_t now_ns, unsigned window, Fn&& fn) const {
    const std::uint64_t sec = now_ns / 1000000000ULL;
    for (const Slot& s : slots_)
      if (s.second <= sec && s.second + window > sec) fn(s.value);
  }

 private:
  struct Slot {
    std::uint64_t second = ~std::uint64_t{0};  // never used
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace ocps::obs
