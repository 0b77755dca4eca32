// Recycling allocator for coroutine frames.
//
// Every simulated call, wait and process is a coroutine frame; allocating
// each one from the general heap was a large share of the simulator's host
// cost. Task and Co<T> promises route their frames here instead: frames up
// to kMaxBytes are rounded up to a kClassBytes multiple and recycled through
// a per-thread free list for that size class (never returned to the heap);
// larger frames use plain operator new.
//
// Pooling is compiled out under AddressSanitizer (allocate/deallocate are
// then plain operator new/delete), so a use of a destroyed frame still
// lands in freed, poisoned memory and is reported.
#pragma once

#include <cstddef>

// GCC defines __SANITIZE_ADDRESS__ under -fsanitize=address; clang
// reports it through __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define RPCOIB_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RPCOIB_ASAN_BUILD 1
#else
#define RPCOIB_ASAN_BUILD 0
#endif
#else
#define RPCOIB_ASAN_BUILD 0
#endif

namespace rpcoib::sim::frame_pool {

inline constexpr bool kEnabled = !RPCOIB_ASAN_BUILD;
inline constexpr std::size_t kClassBytes = 64;
inline constexpr std::size_t kMaxBytes = 4096;

void* allocate(std::size_t bytes);
void deallocate(void* p, std::size_t bytes) noexcept;

/// Standard allocator over the pool, for other per-task objects (the
/// shared completion state a JoinHandle observes).
template <typename T>
struct Allocator {
  using value_type = T;
  Allocator() = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}  // NOLINT: rebinding
  T* allocate(std::size_t n) { return static_cast<T*>(frame_pool::allocate(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { frame_pool::deallocate(p, n * sizeof(T)); }
  friend bool operator==(const Allocator&, const Allocator&) { return true; }
};

}  // namespace rpcoib::sim::frame_pool

namespace rpcoib::sim::detail {

/// Base of the coroutine promise types: gives their frames the pool.
struct PooledFrame {
#if !RPCOIB_ASAN_BUILD
  static void* operator new(std::size_t bytes) { return frame_pool::allocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    frame_pool::deallocate(p, bytes);
  }
#endif
};

}  // namespace rpcoib::sim::detail
