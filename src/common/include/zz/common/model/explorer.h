// Systematic interleaving explorer for the repo's lock-free protocols
// (docs/ANALYSIS.md §10).
//
// TSan (ci.sh --sanitize=tsan) only observes schedules that happen to run,
// and a 1-core container barely interleaves at all; the protocols the
// AP-farm scale-out leans on (work-stealing deque claims, the episode-memo
// Absent→Building→Ready publish, peak-gauge CAS, reentry/confinement
// guards) need their CONTRACT verified under all small interleavings, not
// a lucky schedule. This explorer runs a protocol body on 2-4 virtual
// threads, enumerates schedules at every zz::Atomic access (DPOR-lite:
// plain DFS with bounded preemption, plus an exhaustive mode for tiny
// protocols), simulates relaxed/acquire/release visibility with a
// per-location store-history + per-thread view model, and asserts
// user-supplied invariants on every explored schedule.
//
// Execution model
//   Virtual threads are real std::threads serialized by a baton: exactly
//   one runs at a time, parking at each façade access while the controller
//   replays a DFS choice stack. Real threads (not fibers) keep ASan/TSan
//   fully functional under the explorer — the sanitizer matrix runs these
//   suites as ordinary tests.
//
// Memory model (the "store buffer" simulation, view formulation)
//   Every modeled location keeps a timestamped store history; every
//   virtual thread keeps a per-location watermark view. A load may read
//   any of the last `store_history` stores at-or-above the thread's
//   watermark (the stale window — this is where relaxed bugs live); the
//   choice is a DFS decision like a context switch. A release store
//   attaches the storing thread's whole view to the store; an acquire
//   load that reads it joins that view (synchronizes-with). RMWs always
//   read the newest store (atomicity) and inherit the read store's
//   attached view (release sequences, C++20 rules: plain stores break the
//   sequence, RMWs continue it). seq_cst is approximated by a global view
//   all seq_cst accesses join both ways — stronger than C++ seq_cst, which
//   is fine because the zz-memory-order lint bans seq_cst outside the
//   documented convention table anyway. compare_exchange_weak never fails
//   spuriously in the model (retry loops make spurious failure
//   uninteresting: it only re-runs the loop).
//
// Limits (documented, deliberate): values must be trivially copyable and
// ≤ 8 bytes; protocol bodies must be deterministic given the schedule
// (divergent replay is a hard failure); bodies must not spawn real
// threads or block on real synchronization — model::Mutex is the blocking
// primitive the scheduler understands.
#pragma once

#include <cstdint>
#include <string>

namespace zz::model {

struct Options {
  /// Virtual threads the protocol body runs on (2-4 is the useful range;
  /// the schedule space is exponential in this).
  int threads = 2;
  /// Bounded-preemption DFS: a schedule may switch away from a runnable
  /// thread at most this many times (non-preemptive switches — the running
  /// thread blocked or finished — are always free). Negative = exhaustive.
  int max_preemptions = 2;
  /// Hard cap on explored schedules; hitting it sets Result::cap_hit
  /// rather than failing, so suites can assert exhaustiveness separately.
  std::uint64_t max_schedules = 100000;
  /// Per-schedule step guard: a protocol that exceeds this many scheduled
  /// ops in ONE schedule is livelocked (fails the exploration).
  int max_steps = 20000;
  /// How many trailing stores per location a load may still observe when
  /// its watermark allows (the stale window). 1 = sequentially consistent
  /// visibility; 2 is the default weak-memory window.
  int store_history = 2;
};

struct Result {
  std::uint64_t interleavings = 0;  ///< complete schedules executed
  std::uint64_t choice_points = 0;  ///< DFS decisions with arity > 1
  std::uint64_t ops = 0;            ///< modeled atomic/mutex ops (all runs)
  bool cap_hit = false;             ///< max_schedules stopped exploration
  bool failed = false;              ///< an invariant failed on some schedule
  std::string failure;              ///< message + offending schedule trace
};

namespace detail {

/// True while the calling thread is a controller or virtual thread of a
/// live exploration — the façade's routing test (zz/common/atomic.h).
bool exploring() noexcept;

/// True when `loc` was registered with the live exploration (constructed
/// inside it). Unregistered atomics — statics like the alloc-hook gauges —
/// fall through to their real std::atomic even during exploration.
bool registered(const void* loc) noexcept;

// Location registration from zz::Atomic's ctor/dtor. `width` is sizeof(T)
// so modeled RMW results wrap at the value type's width; register_loc is a
// no-op unless exploring().
void register_loc(void* loc, std::uint64_t initial, unsigned width);
void unregister_loc(void* loc) noexcept;

// Modeled operations. `order` is the std::memory_order value. All yield
// to the scheduler before executing; only call on registered locations.
std::uint64_t op_load(const void* loc, int order);
void op_store(void* loc, std::uint64_t v, int order);
std::uint64_t op_exchange(void* loc, std::uint64_t v, int order);
std::uint64_t op_fetch_add(void* loc, std::uint64_t delta, int order);
bool op_cas(void* loc, std::uint64_t& expected, std::uint64_t desired,
            int success_order, int failure_order);

/// Records an invariant violation on the current schedule and aborts the
/// schedule (throws Abort). [[noreturn]].
[[noreturn]] void fail(const char* expr, const char* msg, const char* file,
                       int line);

/// Unwind token thrown through protocol bodies when a schedule aborts
/// (assertion failure or exploration shutdown). Bodies must be exception
/// safe; the explorer catches it at the body boundary.
struct Abort {};

struct ExploreHooks {
  void* (*make)(void*);
  void (*run_thread)(void*, int);
  void (*finish)(void*);
  void (*destroy)(void*);
  void* ctx;
};

Result explore_impl(const Options& opt, const ExploreHooks& hooks);

}  // namespace detail

/// Blocking mutex the scheduler understands: lock() on a held mutex parks
/// the virtual thread until unlock (an all-blocked state is reported as a
/// deadlock failure). Acquire/release view propagation is built in, so
/// data guarded by the mutex may use relaxed accesses — exactly the
/// DecodeCache publish contract. Must be constructed inside an exploration.
class Mutex {
 public:
  Mutex();
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  void lock();
  void unlock();
};

/// Explore every schedule of `T`: per schedule the explorer constructs a
/// fresh T, runs T::thread(tid) on opt.threads virtual threads, then calls
/// T::finish() (controller context, newest-value visibility) for final
/// invariants. Assert inside bodies with ZZ_MODEL_ASSERT.
template <typename T>
Result explore(const Options& opt) {
  detail::ExploreHooks hooks{
      [](void*) -> void* { return static_cast<void*>(new T()); },
      [](void* p, int tid) { static_cast<T*>(p)->thread(tid); },
      [](void* p) { static_cast<T*>(p)->finish(); },
      [](void* p) { delete static_cast<T*>(p); }, nullptr};
  return detail::explore_impl(opt, hooks);
}

}  // namespace zz::model

/// Protocol invariant: when `cond` is false the current schedule is
/// recorded (message + full interleaving trace) as the exploration's
/// counterexample and exploration stops. Usable from thread bodies and
/// finish().
#define ZZ_MODEL_ASSERT(cond, msg)                                      \
  do {                                                                  \
    if (!(cond)) ::zz::model::detail::fail(#cond, msg, __FILE__, __LINE__); \
  } while (0)
