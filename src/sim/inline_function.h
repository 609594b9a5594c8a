// InlineFunction: the kernel's allocation-free callback type.
//
// A move-only callable wrapper with fixed inline storage and no heap
// fallback: a capture that does not fit the budget is a compile error, not a
// silent allocation. This is the whole point — std::function's small-buffer
// optimization keeps the fast path only until someone captures one field too
// many, and then every scheduled event costs a malloc/free pair. Here the
// budget is part of the schedule_in() contract (docs/PERFORMANCE.md): hot
// paths capture `this` plus a few scalars, and anything bigger (a Packet,
// say) lives in a pool and is captured as a handle.
//
// Dispatch is one indirect call through a per-type operations table. Moving
// an InlineFunction relocates the capture: a trivially copyable capture (the
// hot `{this, Packet*}` closures) is copied with memcpy, only its own size,
// and any other capture (std::function members, strings in cold-path
// closures) with the erased type's move constructor. Destroying a trivially
// destructible capture is a no-op; nothing is called.
#ifndef INCAST_SIM_INLINE_FUNCTION_H_
#define INCAST_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace incast::sim {

class InlineFunction {
  template <typename F>
  using EnableIfCallable =
      std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                       std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>;

 public:
  // Inline capture budget, in bytes. Sized for the fattest legitimate hot
  // capture in the tree (`this` + a handful of scalars / a Time / a
  // std::function forwarded by a test) with headroom; one 64-byte cache
  // line keeps a 4-ary heap dispatch touching at most two lines per event.
  static constexpr std::size_t kCaptureBudget = 64;

  InlineFunction() noexcept = default;

  template <typename F, typename = EnableIfCallable<F>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  // Replaces the target with `f`, constructed in place: the kernel builds
  // each callback directly in its slab slot this way.
  template <typename F, typename = EnableIfCallable<F>>
  InlineFunction& operator=(F&& f) {
    reset();
    construct(std::forward<F>(f));
    return *this;
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Invokes the stored callable. Precondition: engaged.
  void operator()() { ops_->call(storage_); }

 private:
  struct Ops {
    void (*call)(void* self);
    // Move-construct dst from src, then destroy src; nullptr when a memcpy
    // of `size` bytes does the same (trivially copyable captures).
    void (*relocate)(void* dst, void* src) noexcept;
    // nullptr when the capture is trivially destructible.
    void (*destroy)(void* self) noexcept;
    std::size_t size;
  };

  template <typename Fn>
  static void call_fn(void* self) {
    (*static_cast<Fn*>(self))();
  }
  template <typename Fn>
  static void relocate_fn(void* dst, void* src) noexcept {
    ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
    static_cast<Fn*>(src)->~Fn();
  }
  template <typename Fn>
  static void destroy_fn(void* self) noexcept {
    static_cast<Fn*>(self)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops ops_for{
      &call_fn<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_fn<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_fn<Fn>,
      sizeof(Fn),
  };

  // Precondition: empty.
  template <typename F>
  void construct(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= kCaptureBudget,
                  "capture exceeds the inline budget: pool the payload and "
                  "capture a handle instead (see docs/PERFORMANCE.md)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-movable: the kernel relocates "
                  "callbacks when the slab grows");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &ops_for<Fn>;
  }

  // Moves other's target into this (empty) function and empties other.
  void take(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, ops_->size);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kCaptureBudget];
  const Ops* ops_{nullptr};
};

}  // namespace incast::sim

#endif  // INCAST_SIM_INLINE_FUNCTION_H_
