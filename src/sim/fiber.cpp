#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace msvm::sim {

namespace {

/// The fiber currently executing on this thread (nullptr in main context).
/// The whole simulator is single-threaded by design, but thread_local keeps
/// independent simulations on different host threads (e.g. parallel gtest
/// shards) from interfering.
thread_local Fiber* g_current_fiber = nullptr;

#if defined(__SANITIZE_ADDRESS__)
// AddressSanitizer must be told which stack is live across every switch.
// Otherwise it takes a fiber stack for part of the thread's stack, ignores
// the unpoisoning an exception thrown on it requests, and later reports
// stale poison in the unwound frames as stack-use-after-scope.
thread_local const void* g_main_stack_bottom = nullptr;
thread_local std::size_t g_main_stack_size = 0;
thread_local void* g_main_fake_stack = nullptr;
thread_local bool g_leaving_main = false;
#endif

}  // namespace

// msvm_fiber_swap(save, load): saves callee-saved registers and the stack
// pointer into *save, then installs *load as the new stack pointer and
// restores registers from it. SysV x86-64: rbx, rbp, r12-r15 are the only
// callee-saved GPRs; xmm registers are caller-saved and the simulator never
// changes mxcsr/x87 control words.
extern "C" void msvm_fiber_swap(void** save_rsp, void* const* load_rsp);

asm(R"asm(
.text
.globl msvm_fiber_swap
.type msvm_fiber_swap, @function
.align 16
msvm_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq (%rsi), %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
.size msvm_fiber_swap, .-msvm_fiber_swap
)asm");

Fiber::Fiber(Entry entry, std::size_t stack_bytes)
    : entry_(std::move(entry)) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // Round the stack up to whole pages and add one guard page below it.
  stack_bytes = (stack_bytes + page - 1) / page * page;
  map_bytes_ = stack_bytes + page;
  void* map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc{};
  stack_base_ = map;
  if (mprotect(map, page, PROT_NONE) != 0) {
    munmap(map, map_bytes_);
    throw std::bad_alloc{};
  }

  // Build the initial frame so that the first msvm_fiber_swap() into this
  // fiber pops six zeroed callee-saved registers and "returns" into
  // trampoline(). Layout (low -> high): r15 r14 r13 r12 rbx rbp ret pad.
  // The pad qword keeps rsp % 16 == 8 at trampoline entry, matching the
  // SysV alignment contract for a function entered via call/ret.
  auto top = reinterpret_cast<std::uintptr_t>(map) + map_bytes_;
  top &= ~std::uintptr_t{15};
  auto* slots = reinterpret_cast<void**>(top) - 8;
  for (int i = 0; i < 6; ++i) slots[i] = nullptr;
  slots[6] = reinterpret_cast<void*>(&Fiber::trampoline);
  slots[7] = nullptr;
  fiber_rsp_ = slots;
}

Fiber::~Fiber() {
  if (started_ && !finished_) {
    // Destroying a suspended fiber would leak the objects on its stack.
    // This indicates a scheduler bug; fail loudly.
    std::fprintf(stderr,
                 "msvm::sim::Fiber destroyed while suspended mid-execution\n");
    std::abort();
  }
  if (stack_base_ != nullptr) munmap(stack_base_, map_bytes_);
}

// Sanitizer bookkeeping around msvm_fiber_swap: start_switch before it
// names the destination stack, entered() after it (in the destination)
// completes the switch. No-ops unless built with AddressSanitizer.
void Fiber::start_switch(void** save_fake_stack, const Fiber* to) {
#if defined(__SANITIZE_ADDRESS__)
  if (to == nullptr) {
    __sanitizer_start_switch_fiber(save_fake_stack, g_main_stack_bottom,
                                   g_main_stack_size);
    return;
  }
  const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  __sanitizer_start_switch_fiber(
      save_fake_stack, static_cast<const char*>(to->stack_base_) + guard,
      to->map_bytes_ - guard);
#else
  (void)save_fake_stack;
  (void)to;
#endif
}

void Fiber::entered(Fiber* self) {
#if defined(__SANITIZE_ADDRESS__)
  if (self == nullptr) {
    __sanitizer_finish_switch_fiber(g_main_fake_stack, nullptr, nullptr);
    return;
  }
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(self->asan_fake_stack_, &from_bottom,
                                  &from_size);
  if (g_leaving_main) {  // the switch came from main: learn its stack
    g_leaving_main = false;
    g_main_stack_bottom = from_bottom;
    g_main_stack_size = from_size;
  }
#else
  (void)self;
#endif
}

void Fiber::resume() {
  assert(g_current_fiber == nullptr && "resume() must come from main");
  assert(!finished_ && "cannot resume a finished fiber");
  started_ = true;
  g_current_fiber = this;
#if defined(__SANITIZE_ADDRESS__)
  g_leaving_main = true;
  start_switch(&g_main_fake_stack, this);
#endif
  msvm_fiber_swap(&main_rsp_, &fiber_rsp_);
  entered(nullptr);
  g_current_fiber = nullptr;
}

void Fiber::yield_to_main() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "yield_to_main() called outside any fiber");
  // A finished fiber's stack is never entered again: nothing to save.
  start_switch(self->finished_ ? nullptr : &self->asan_fake_stack_,
               nullptr);
  msvm_fiber_swap(&self->fiber_rsp_, &self->main_rsp_);
  entered(self);
}

void Fiber::transfer(Fiber& from, Fiber& to) {
  assert(g_current_fiber == &from && "transfer() must come from `from`");
  assert(!to.finished_ && "cannot transfer to a finished fiber");
  // Whoever later yields to main must land in the resume() frame that
  // started this chain of transfers.
  to.main_rsp_ = from.main_rsp_;
  to.started_ = true;
  g_current_fiber = &to;
  start_switch(&from.asan_fake_stack_, &to);
  msvm_fiber_swap(&from.fiber_rsp_, &to.fiber_rsp_);
  // Control returns here when some context switches back into `from`;
  // that resumer (resume() or another transfer()) has already updated
  // g_current_fiber, so nothing but `from`'s own switch bookkeeping must
  // be touched after the swap.
  entered(&from);
}

Fiber* Fiber::current() { return g_current_fiber; }

void Fiber::trampoline() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr);
  entered(self);
  self->entry_();
  self->finished_ = true;
  // Release the closure eagerly: it may own captures whose destructors the
  // caller expects to run when the fiber completes, not when destroyed.
  self->entry_ = nullptr;
  Fiber::yield_to_main();
  // A finished fiber must never be resumed again.
  std::fprintf(stderr, "msvm::sim::Fiber resumed after completion\n");
  std::abort();
}

}  // namespace msvm::sim
