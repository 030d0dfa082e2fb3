// Move-only `void()` callable with inline storage, the Simulator's event
// payload.
//
// Callables up to kInlineSize bytes (and no stricter than pointer alignment)
// live inside the Callback, so scheduling them does not allocate. The size is
// chosen to hold Network::send's per-hop delivery closure, which captures a
// whole Packet; larger callables fall back to one heap allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pan::sim {

class Callback {
 public:
  static constexpr std::size_t kInlineSize = 96;

  template <typename F>
  static constexpr bool fits_inline = sizeof(F) <= kInlineSize &&
                                      alignof(F) <= alignof(void*) &&
                                      std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  void reset() noexcept {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(buf_);
    }
  }

  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs into `dst` and destroys the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, void* src) noexcept { *static_cast<D**>(dst) = *static_cast<D**>(src); },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  alignas(void*) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace pan::sim
