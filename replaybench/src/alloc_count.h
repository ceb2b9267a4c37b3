// Allocation counting for the traced run: a benchmark-local global
// operator new override (alloc_count.cpp) bumps a per-thread counter, so
// the replay thread can attribute allocations to the call it just timed
// without contending with the engine's worker threads.
#pragma once

#include <cstdint>

namespace replaybench {

/// Allocations made by the calling thread since it started.
uint64_t ThreadAllocs();

}  // namespace replaybench
