#include "sim/frame_pool.hpp"

#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace rpcoib::sim::frame_pool {
namespace {

struct FreeFrame {
  FreeFrame* next;
};

constexpr std::size_t kClasses = kMaxBytes / kClassBytes;

// Constant-initialized and trivially destructible: no per-access TLS guard.
thread_local FreeFrame* free_lists[kClasses] = {};

std::size_t size_class(std::size_t bytes) { return (bytes - 1) / kClassBytes; }

}  // namespace

void* allocate(std::size_t bytes) {
  if (!kEnabled || bytes == 0 || bytes > kMaxBytes) return ::operator new(bytes);
  const std::size_t c = size_class(bytes);
  if (FreeFrame* f = free_lists[c]) {
    free_lists[c] = f->next;
    return f;
  }
  return ::operator new((c + 1) * kClassBytes);
}

void deallocate(void* p, std::size_t bytes) noexcept {
  if (!kEnabled || bytes == 0 || bytes > kMaxBytes) {
    ::operator delete(p);
    return;
  }
  const std::size_t c = size_class(bytes);
  free_lists[c] = ::new (p) FreeFrame{free_lists[c]};
}

}  // namespace rpcoib::sim::frame_pool

namespace rpcoib::sim {

void pin_heap_policy() {
#if defined(__GLIBC__) && !RPCOIB_ASAN_BUILD
  // The heap top goes back to the kernel only once this much of it is
  // free: twice the 8 MB four concurrent 2 MB payloads keep live, because
  // free space fragments around them. It is the smallest power of two
  // with no faults once warm (HeapPolicy test; 8 MB still trims).
  constexpr std::size_t kHeapTrimThreshold = 16u << 20;
  static const bool pinned = [] {
    mallopt(M_MMAP_THRESHOLD, static_cast<int>(kHeapMmapThreshold));
    mallopt(M_TRIM_THRESHOLD, static_cast<int>(kHeapTrimThreshold));
    return true;
  }();
  (void)pinned;
#endif
}

}  // namespace rpcoib::sim
