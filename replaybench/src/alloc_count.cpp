#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

namespace replaybench {
uint64_t ThreadAllocs() { return t_allocs; }
}  // namespace replaybench

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

// GCC pairs allocation functions by body and flags free() on a pointer from
// the malloc-backed replacement operator new above — a false positive, as
// both sides of the pair are replaced together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
