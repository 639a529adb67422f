// zz::Atomic<T>: the repo's only sanctioned atomic type (lint: zz-raw-atomic
// bans std::atomic outside this header; zz-memory-order bans implicit
// seq_cst — this API has no defaulted order arguments, every call site
// names its ordering from the convention table in docs/ANALYSIS.md §10).
//
// Production builds compile to a plain std::atomic<T>: same size, same
// codegen, zero allocations (pinned by tests/atomic_test.cpp). Under
// ZZ_MODEL_CHECK every load/store/CAS/fetch-op of an object constructed
// inside a zz::model exploration routes through the interleaving explorer
// (zz/common/model/explorer.h) — a scheduling yield point plus simulated
// relaxed/acquire/release visibility. Objects constructed outside an
// exploration (statics like the alloc-hook gauges, pool state in ordinary
// tests) fall through to the embedded std::atomic even in model builds, so
// a ZZ_MODEL_CHECK tree still runs the full ordinary test suite.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(ZZ_MODEL_CHECK)
#include "zz/common/model/explorer.h"
#endif

namespace zz {

namespace detail_atomic {

// Model-checker word transport: values travel as zero-extended 64-bit
// words (the explorer masks RMW results back to sizeof(T)).
template <typename T>
inline std::uint64_t to_word(T v) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, &v, sizeof(T));
  return w;
}
template <typename T>
inline T from_word(std::uint64_t w) noexcept {
  T v;
  std::memcpy(&v, &w, sizeof(T));
  return v;
}

}  // namespace detail_atomic

template <typename T>
class Atomic {
  static_assert(std::is_trivially_copyable_v<T>,
                "zz::Atomic values must be trivially copyable");
  static_assert(sizeof(T) <= 8,
                "the model checker transports values as 64-bit words");

 public:
  constexpr Atomic() noexcept : Atomic(T()) {}
  constexpr explicit Atomic(T v) noexcept : a_(v) {
#if defined(ZZ_MODEL_CHECK)
    // Constant-initialized globals skip registration (they are never part
    // of an exploration); runtime construction inside one registers the
    // location with the live explorer.
    if (!std::is_constant_evaluated()) {
      if (model::detail::exploring())
        model::detail::register_loc(this, detail_atomic::to_word(v),
                                    sizeof(T));
    }
#endif
  }
#if defined(ZZ_MODEL_CHECK)
  ~Atomic() {
    if (model::detail::exploring()) model::detail::unregister_loc(this);
  }
#else
  ~Atomic() = default;
#endif
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order order) const noexcept {
#if defined(ZZ_MODEL_CHECK)
    if (model::detail::registered(this))
      return detail_atomic::from_word<T>(
          model::detail::op_load(this, static_cast<int>(order)));
#endif
    return a_.load(order);
  }

  void store(T v, std::memory_order order) noexcept {
#if defined(ZZ_MODEL_CHECK)
    if (model::detail::registered(this)) {
      model::detail::op_store(this, detail_atomic::to_word(v),
                              static_cast<int>(order));
      return;
    }
#endif
    a_.store(v, order);
  }

  T exchange(T v, std::memory_order order) noexcept {
#if defined(ZZ_MODEL_CHECK)
    if (model::detail::registered(this))
      return detail_atomic::from_word<T>(model::detail::op_exchange(
          this, detail_atomic::to_word(v), static_cast<int>(order)));
#endif
    return a_.exchange(v, order);
  }

  bool compare_exchange_weak(T& expected, T desired, std::memory_order success,
                             std::memory_order failure) noexcept {
#if defined(ZZ_MODEL_CHECK)
    if (model::detail::registered(this)) return model_cas(expected, desired,
                                                          success, failure);
#endif
    return a_.compare_exchange_weak(expected, desired, success, failure);
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) noexcept {
#if defined(ZZ_MODEL_CHECK)
    if (model::detail::registered(this)) return model_cas(expected, desired,
                                                          success, failure);
#endif
    return a_.compare_exchange_strong(expected, desired, success, failure);
  }

  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T delta, std::memory_order order) noexcept {
#if defined(ZZ_MODEL_CHECK)
    if (model::detail::registered(this))
      return detail_atomic::from_word<T>(model::detail::op_fetch_add(
          this, detail_atomic::to_word(delta), static_cast<int>(order)));
#endif
    return a_.fetch_add(delta, order);
  }

  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T delta, std::memory_order order) noexcept {
#if defined(ZZ_MODEL_CHECK)
    if (model::detail::registered(this))
      // Two's-complement delta: the explorer adds words mod 2^width.
      return detail_atomic::from_word<T>(model::detail::op_fetch_add(
          this, ~detail_atomic::to_word(delta) + 1,
          static_cast<int>(order)));
#endif
    return a_.fetch_sub(delta, order);
  }

 private:
#if defined(ZZ_MODEL_CHECK)
  bool model_cas(T& expected, T desired, std::memory_order success,
                 std::memory_order failure) noexcept {
    std::uint64_t e = detail_atomic::to_word(expected);
    const bool ok =
        model::detail::op_cas(this, e, detail_atomic::to_word(desired),
                              static_cast<int>(success),
                              static_cast<int>(failure));
    expected = detail_atomic::from_word<T>(e);
    return ok;
  }
#endif
  std::atomic<T> a_;
};

/// Lock-free maximum: raises `a` to at least `v` and returns the prior
/// value read. The RMW loop never loses a larger concurrent maximum — the
/// alloc_hook peak-gauge contract, pinned by the peak model suite.
template <typename T>
inline T fetch_max(Atomic<T>& a, T v, std::memory_order order) noexcept {
  T cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, order, std::memory_order_relaxed)) {
  }
  return cur;
}

/// One-owner flag: try_acquire wins at most once until release. Enter is
/// an acquire exchange and leave a release store, so the holder's writes
/// are visible to the next successful acquirer — the ReentryFlag contract.
class AtomicFlag {
 public:
  constexpr AtomicFlag() noexcept : held_(false) {}
  AtomicFlag(const AtomicFlag&) = delete;
  AtomicFlag& operator=(const AtomicFlag&) = delete;

  /// True if the caller took the flag (it was clear).
  bool try_acquire() noexcept {
    return !held_.exchange(true, std::memory_order_acquire);
  }
  void release() noexcept { held_.store(false, std::memory_order_release); }
  bool held(std::memory_order order) const noexcept {
    return held_.load(order);
  }

 private:
  Atomic<bool> held_;
};

/// RAII try-lock over AtomicFlag — the reentry/confinement guard shape:
/// construction attempts the acquire, acquired() reports ownership, the
/// destructor releases only what it took.
class AtomicFlagGuard {
 public:
  explicit AtomicFlagGuard(AtomicFlag& flag) noexcept
      : flag_(flag), acquired_(flag.try_acquire()) {}
  ~AtomicFlagGuard() {
    if (acquired_) flag_.release();
  }
  AtomicFlagGuard(const AtomicFlagGuard&) = delete;
  AtomicFlagGuard& operator=(const AtomicFlagGuard&) = delete;

  bool acquired() const noexcept { return acquired_; }

 private:
  AtomicFlag& flag_;
  bool acquired_;
};

/// Concurrent-entry detector for single-owner regions (ScratchArena
/// confinement). enter()/exit() return the PRIOR count; prior != 0 on
/// enter means overlap. Both are acq_rel RMWs: besides detecting overlap,
/// the counter chain is the happens-before edge for the documented serial
/// cross-thread hand-off (B's enter that reads A's exit observes all of
/// A's writes) — relaxed here both missed overlaps and broke the hand-off
/// (docs/ANALYSIS.md §10; pinned by the confinement model suite).
class EntryCounter {
 public:
  constexpr EntryCounter() noexcept : n_(0) {}
  EntryCounter(const EntryCounter&) = delete;
  EntryCounter& operator=(const EntryCounter&) = delete;

  /// Returns the count before entering (0 = sole owner).
  int enter() noexcept { return n_.fetch_add(1, std::memory_order_acq_rel); }
  /// Returns the count before exiting (1 = we were sole owner).
  int exit() noexcept { return n_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  Atomic<int> n_;
};

}  // namespace zz
