// Move-only `void()` callable with small-buffer storage.
//
// The scheduler and the fabric hold one of these per pending event. A
// capture list of up to kInlineBytes (pointers, ids, a span, a moved-in
// net::Bytes, a shared_ptr) lives inside the object, so scheduling a
// verbs completion or a fabric arrival does not touch the heap; a larger
// or throwing-move callable is boxed on the heap instead. Unlike
// std::function it accepts move-only captures (std::unique_ptr) and is
// never copied.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rpcoib::sim {

class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>)
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
  }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = std::exchange(o.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the stored callable. The callable stays alive until the
  /// Callback is destroyed or reset.
  void operator()() { ops_->invoke(buf_); }

  /// Destroy the stored callable (releasing its captures).
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into `dst` from `src` and destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) noexcept {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, void* src) noexcept { *static_cast<D**>(dst) = *static_cast<D**>(src); },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  // Pointer alignment keeps a Callback at 56 bytes, so a scheduler slot
  // (handle + Callback) is one 64-byte cache line.
  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace rpcoib::sim
