#include "locality/reuse_time.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"

namespace ocps {

ReuseProfile profile_reuse(const Trace& trace) {
  ReuseProfile p;
  p.trace_length = trace.length();
  p.freq.assign(p.trace_length + 2, 0);

  std::unordered_map<Block, std::uint64_t> last_pos;  // 1-indexed
  last_pos.reserve(trace.length() / 4 + 16);
  for (std::uint64_t t = 1; t <= trace.length(); ++t) {
    Block b = trace.accesses[t - 1];
    auto [it, inserted] = last_pos.try_emplace(b, t);
    if (inserted) {
      p.first_pos.push_back(t);
    } else {
      std::uint64_t rt = t - it->second + 1;  // paper Eq. 4
      ++p.freq[rt];
      it->second = t;
    }
  }
  p.distinct = last_pos.size();
  p.last_pos.reserve(last_pos.size());
  for (const auto& [block, pos] : last_pos) {
    (void)block;
    p.last_pos.push_back(pos);
  }
  std::sort(p.last_pos.begin(), p.last_pos.end());
  return p;
}

}  // namespace ocps
