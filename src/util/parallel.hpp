// Shared-memory parallel loops for the evaluation sweeps.
//
// Facade over util/thread_pool: parallel_for keeps its historical
// free-function shape (dynamic contiguous chunks, first exception
// rethrown on the caller, serial degradation on one core) but now runs
// on the persistent pool instead of spawning threads per call, and is
// a template over the callable so per-index dispatch inlines. See
// thread_pool.hpp for the pool itself (idle workers take seats on open
// loops, which share one chunk cursor), per-thread-state loops
// (parallel_for_with), and the OCPS_THREADS contract.
#pragma once

#include "util/thread_pool.hpp"
