// Reuse-time profiling (§III of the paper).
//
// A reuse pair is a pair of accesses to the same datum with no intervening
// access to it; the reuse time of the pair at positions i < j (1-indexed)
// is rt = j - i + 1 (paper Eq. 4). The reuse-time histogram freq(rt),
// together with each datum's first and last access positions, is a
// sufficient statistic for the average footprint function — that is the
// linear-time footprint formula of Xiang et al. implemented in
// footprint.hpp. The positions are kept as two ascending lists of m
// entries each, not as n-long indicator arrays, so a profile costs the
// histogram plus O(m).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace ocps {

/// Reuse-time statistics of one trace. Positions are 1-indexed as in the
/// paper. All counts are exact (full-trace profiling, no sampling).
struct ReuseProfile {
  std::uint64_t trace_length = 0;   ///< n
  std::uint64_t distinct = 0;       ///< m
  /// freq[rt] = number of reuse pairs with reuse time rt, for
  /// rt = 0..n+1; index 0 and 1 are always zero (minimum reuse time is 2:
  /// adjacent accesses).
  std::vector<std::uint64_t> freq;
  /// Positions of the m first accesses, one per datum, ascending.
  std::vector<std::uint64_t> first_pos;
  /// Positions of the m last accesses, one per datum, ascending.
  std::vector<std::uint64_t> last_pos;

  /// Total number of reuse pairs (= n - m).
  std::uint64_t reuse_pairs() const { return trace_length - distinct; }
};

/// Profiles a trace in one O(n) pass (plus an O(m log m) sort of the last
/// positions).
ReuseProfile profile_reuse(const Trace& trace);

}  // namespace ocps
