// InlineFunction: a move-only callable with fixed small-buffer storage.
//
// The simulator schedules millions of events per wall second; the dominant
// cost of the old core was one heap allocation per scheduled std::function.
// InlineFunction stores the callable inline when it fits and only falls back
// to a heap-allocating std::function wrapper for oversized captures. The
// fallback is silent, so the hot sites pin their lambdas with
// `static_assert(Simulator::Callback::kFits<decltype(fn)>)`: the TX and RX
// pipeline steps in Host, the apply completion in ReplicatedServer and the
// persisted AppendEntries reply in RaftNode. A capture that grows past the
// buffer then fails to compile instead of allocating on every request.
#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace hovercraft {

template <size_t kBytes>
class InlineFunction {
 public:
  // Whether a callable of type F is stored inline, without the fallback.
  template <typename F>
  static constexpr bool kFits = sizeof(std::decay_t<F>) <= kBytes &&
                                alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT: implicit, mirrors std::function

  template <typename F, typename D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                 !std::is_same_v<D, std::nullptr_t> &&
                                 std::is_invocable_v<D&>,
                             int> = 0>
  InlineFunction(F&& fn) {  // NOLINT: implicit, mirrors std::function
    if constexpr (kFits<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kOps<D>;
    } else {
      // Oversized capture: wrap in std::function (which heap-allocates) so
      // correctness never depends on the buffer size. Hot paths are audited
      // to stay under kBytes; see docs/performance.md.
      using Fallback = std::function<void()>;
      static_assert(sizeof(Fallback) <= kBytes, "buffer must hold std::function");
      ::new (static_cast<void*>(buf_)) Fallback(std::forward<F>(fn));
      ops_ = &kOps<Fallback>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*destroy)(void* self);
    // Move-constructs *dst from *src and destroys *src.
    void (*relocate)(void* dst, void* src);
  };

  template <typename T>
  static constexpr Ops kOps = {
      [](void* self) { (*static_cast<T*>(self))(); },
      [](void* self) { static_cast<T*>(self)->~T(); },
      [](void* dst, void* src) {
        ::new (dst) T(std::move(*static_cast<T*>(src)));
        static_cast<T*>(src)->~T();
      },
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }
  void MoveFrom(InlineFunction& other) {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kBytes];
};

}  // namespace hovercraft

#endif  // SRC_SIM_CALLBACK_H_
