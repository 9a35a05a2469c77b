// Debug-build lock-order checking (lockdep) for the serving stack.
//
// The serving path crosses a dozen locks — engine shard router, bounded
// submit queues, latency rings, connection inbox/outbox, thread-pool state —
// and a lock-order inversion between any two of them is a deadlock that only
// fires under exactly the wrong interleaving. DebugMutex makes the *potential*
// inversion the bug: every acquisition records a "held A, acquired B" edge
// into a global lock-class graph, and the first acquisition that would close
// a cycle in that graph is reported immediately with both acquisition stacks
// (the current one and the one that recorded the reverse path), even though
// no thread is actually deadlocked. This is the same idea as the kernel's
// lockdep and TSan's second_deadlock_stack, but available in any plain Debug
// build with zero extra tooling.
//
// Lock *classes*, not instances: every DebugMutex constructed with the same
// class name (via BLURNET_LOCK_CLASS) shares one node in the graph, so an
// order one connection's mutex records applies to every connection. A DebugMutex constructed without a name gets a private
// per-instance class.
//
// Semantics:
//   * lock() checks (held -> this) edges for cycles before blocking, then
//     acquires and joins the thread's held set.
//   * try_lock() joins the held set on success but records no edges — a
//     non-blocking acquisition can never be the blocked edge of a deadlock.
//   * Acquiring a class already held by the thread (any instance) is reported
//     as a recursive-acquisition hazard: two same-class instances taken
//     together have no defined order against each other.
//   * Detection calls the installed handler (default: report to stderr and
//     abort). Tests install their own handler to assert on reports.
//
// Release builds (NDEBUG, unless overridden by defining BLURNET_LOCKDEP):
// DebugMutex *is* std::mutex — a type alias, not a wrapper — and
// DebugConditionVariable is std::condition_variable, so the checker costs
// nothing when it is off. BLURNET_LOCK_CLASS(name) expands to an empty token
// so member declarations read identically in both modes:
//
//   util::DebugMutex queue_mutex_ BLURNET_LOCK_CLASS("serve::Engine::queue");
//
// Waiting on a DebugMutex requires DebugConditionVariable: in Debug it is
// std::condition_variable_any (wait() releases/reacquires through DebugMutex,
// keeping the held set exact); in Release it is std::condition_variable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>

#if !defined(BLURNET_LOCKDEP)
#if defined(NDEBUG)
#define BLURNET_LOCKDEP 0
#else
#define BLURNET_LOCKDEP 1
#endif
#endif

#if BLURNET_LOCKDEP
#define BLURNET_LOCK_CLASS(name) {name}
#else
#define BLURNET_LOCK_CLASS(name)
#endif

namespace blurnet::util {

#if BLURNET_LOCKDEP

/// One detected hazard, handed to the installed handler.
struct LockdepReport {
  /// "order-inversion" or "recursive-acquisition".
  std::string kind;
  /// The class being acquired when the hazard was detected.
  std::string acquiring;
  /// The held class it conflicts with.
  std::string held;
  /// Stack of the acquisition that closed the cycle (this thread, now).
  std::string current_stack;
  /// Stack recorded when the conflicting (reverse-path) edge was first taken.
  std::string prior_stack;
  /// The full human-readable report (what the default handler prints).
  std::string message;
};

/// Called on detection instead of the default print-and-abort. nullptr
/// restores the default. Returns the previous handler. The handler runs with
/// no lockdep-internal locks held; acquiring DebugMutexes inside it records
/// no edges.
using LockdepHandler = void (*)(const LockdepReport&);
LockdepHandler lockdep_set_handler(LockdepHandler handler);

/// Edges recorded so far (test introspection).
std::size_t lockdep_edge_count();

/// Forget every recorded edge (lock classes persist — live DebugMutexes keep
/// their ids). Test isolation only; call with no DebugMutex held anywhere.
void lockdep_reset_edges();

class DebugMutex {
 public:
  /// Anonymous: a private per-instance lock class.
  DebugMutex();
  /// Named: all instances with the same name share one lock class. The name
  /// must outlive the program (string literals).
  explicit DebugMutex(const char* lock_class);
  ~DebugMutex() = default;

  DebugMutex(const DebugMutex&) = delete;
  DebugMutex& operator=(const DebugMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

 private:
  std::mutex mutex_;
  int class_id_;
};

using DebugConditionVariable = std::condition_variable_any;

#else  // !BLURNET_LOCKDEP

using DebugMutex = std::mutex;
using DebugConditionVariable = std::condition_variable;

#endif

}  // namespace blurnet::util
