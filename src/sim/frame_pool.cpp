#include "sim/frame_pool.hpp"

#include <new>

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
