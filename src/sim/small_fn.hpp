// A move-only callable with small-buffer storage, used for event callbacks.
//
// std::function costs a heap allocation for any capture larger than two
// pointers, and the event core schedules tens of millions of callbacks per
// simulated run. SmallFn keeps captures up to `Capacity` bytes inline in the
// event record itself (falling back to the heap only for oversized or
// throwing-move captures), so the common packet-delivery / timer-tick lambdas
// never allocate. Move-only by design: an event callback has exactly one
// owner (the queue) and most useful captures own moved-in state anyway.
//
// A callback is moved several times between the call site and the event
// record (transport queue, link slot, event record, out of the record to
// run). Captures that are trivially copyable and trivially destructible —
// `{this, record}` and other pointer/integer tuples, i.e. nearly every
// packet-path lambda — and heap-fallback pointers carry null relocate and
// destroy ops, so those moves are a fixed-size memcpy of the buffer rather
// than an indirect call.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace smarth::sim {

template <std::size_t Capacity>
class SmallFn {
  static_assert(Capacity >= sizeof(void*), "capacity must hold a pointer");

 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { take_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      take_from(other);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the target. Precondition: non-null.
  void operator()() { ops_->invoke(storage_); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True when a callable of type F is stored inline (no heap allocation);
  /// hot-path call sites static_assert this on their lambdas.
  template <typename F>
  static constexpr bool stores_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the target from `src` storage into `dst` storage and
    /// destroys the source — relocation between inline slots. Null when a
    /// byte copy of the buffer relocates the target.
    void (*relocate)(void* dst, void* src);
    /// Null when the target needs no destructor call.
    void (*destroy)(void*);
  };

  template <typename F>
  static constexpr bool trivially_relocatable() {
    return std::is_trivially_copyable_v<F> &&
           std::is_trivially_destructible_v<F>;
  }

  template <typename F>
  static const Ops* inline_ops() {
    if constexpr (trivially_relocatable<F>()) {
      static constexpr Ops ops = {
          [](void* p) { (*static_cast<F*>(p))(); }, nullptr, nullptr};
      return &ops;
    } else {
      static constexpr Ops ops = {
          [](void* p) { (*static_cast<F*>(p))(); },
          [](void* dst, void* src) {
            F* from = static_cast<F*>(src);
            ::new (dst) F(std::move(*from));
            from->~F();
          },
          [](void* p) { static_cast<F*>(p)->~F(); },
      };
      return &ops;
    }
  }

  /// The buffer holds only an owning pointer, so a byte copy relocates it.
  template <typename F>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* p) { (**static_cast<F**>(p))(); },
        nullptr,
        [](void* p) { delete *static_cast<F**>(p); },
    };
    return &ops;
  }

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = heap_ops<D>();
    }
  }

  void take_from(SmallFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, Capacity);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace smarth::sim
