// Outputs the workloads must reproduce bit for bit, as hex floats.
// A change that moves any of them on purpose re-records them here, in a
// change of the benchmark of its own.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench::reference {

/// Σ over the 1820 four-program groups (lexicographic order) of each
/// method's group miss ratio, in Method order: Equal, Natural,
/// Equal baseline, Natural baseline, Optimal, STTW.
inline constexpr std::array<double, 6> kTable1GroupMrSum = {
    0x1.628903418402ap+6,  // Equal
    0x1.541b87dfa3f96p+6,  // Natural
    0x1.48dd82076bdd7p+6,  // Equal baseline
    0x1.4a9a1ecac0a6ep+6,  // Natural baseline
    0x1.1af667ef958cep+6,  // Optimal (70.740630859...)
    0x1.a738a823c4bddp+6,  // STTW
};

/// Realized group miss ratio of the controlled run.
inline constexpr double kControllerRealizedMr = 0x1.ae64c2f837b4ap-4;  // 0.1050...
/// FNV-1a 64 of the controller's alloc_history (see fnv1a).
inline constexpr std::uint64_t kControllerAllocHash = 231750957083490891ULL;

}  // namespace perfbench::reference
