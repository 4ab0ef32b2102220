// Cooperative fibers (stackful coroutines) used to run one simulated SCC
// core per fiber inside a single host thread.
//
// Rationale: MetalSVM page faults are *transparent* — a plain store deep
// inside application code may have to suspend the core while an
// ownership-transfer message round-trips through the mailbox system. A
// stackful context switch lets any call depth suspend, which stackless
// C++20 coroutines cannot do without infecting every call signature.
//
// The context switch is hand-rolled x86-64 System V assembly (callee-saved
// registers + stack pointer only, ~20 ns) because glibc's swapcontext()
// performs a sigprocmask system call per switch, which dominates the
// simulator's run time at our switch rates.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "sim/types.hpp"

namespace msvm::sim {

/// A single cooperatively-scheduled execution context with its own stack.
/// Fibers are resumed from the "main" (scheduler) context and always switch
/// back to it; fibers never switch directly between each other.
class Fiber {
 public:
  using Entry = std::function<void()>;

  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  /// Creates a fiber that will execute `entry` when first resumed. The
  /// stack is mmap'd with an inaccessible guard page below it so that a
  /// stack overflow faults loudly instead of corrupting a neighbour.
  explicit Fiber(Entry entry,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes. Must be called from the
  /// main context (never from inside another fiber).
  void resume();

  /// Switches from inside this fiber back to the main context. Must be
  /// called from inside the currently running fiber.
  static void yield_to_main();

  /// Switches directly from fiber `from` (the currently running one) to
  /// fiber `to` without bouncing through the main context: one context
  /// switch instead of two. The "return to main" continuation travels
  /// with the running fiber — `to` inherits it — so whichever fiber in a
  /// transfer chain eventually calls yield_to_main() (or finishes)
  /// returns to the resume() call that entered the chain.
  static void transfer(Fiber& from, Fiber& to);

  /// The fiber currently executing, or nullptr when in the main context.
  static Fiber* current();

  bool finished() const { return finished_; }
  bool started() const { return started_; }
  bool running() const { return this == current(); }

 private:
  static void trampoline();
  // Tell AddressSanitizer about a switch (no-ops in other builds).
  // start_switch names the destination (nullptr: the main context);
  // entered completes it in the fiber now running (nullptr: main).
  static void start_switch(void** save_fake_stack, const Fiber* to);
  static void entered(Fiber* self);

  Entry entry_;
  void* stack_base_ = nullptr;  // mmap'd region (guard page + stack)
  std::size_t map_bytes_ = 0;
  void* fiber_rsp_ = nullptr;  // saved rsp while suspended
  void* main_rsp_ = nullptr;   // saved rsp of the resuming context
  void* asan_fake_stack_ = nullptr;  // AddressSanitizer builds only
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace msvm::sim
