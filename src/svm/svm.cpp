// Svm — the thin per-core endpoint. Everything protocol-shaped lives in
// the protocol core (svm/protocol/) and the binding layer (svm_runtime);
// this file keeps only what the application calls directly: collectives
// (alloc / barrier / protect_readonly), locks, and the glue that
// routes their consistency semantics through the CoherencePolicy hooks.
#include "svm/svm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sccsim/addrmap.hpp"
#include "svm/svm_runtime.hpp"

namespace msvm::svm {

namespace {

[[noreturn]] void panic(const char* msg) {
  std::fprintf(stderr, "msvm::svm panic: %s\n", msg);
  std::abort();
}

}  // namespace

Svm::Svm(kernel::Kernel& kernel, mbox::MailboxSystem& mbox,
         SvmDomain& domain)
    : kernel_(kernel),
      mbox_(mbox),
      domain_(domain),
      core_(kernel.core()),
      runtime_(std::make_unique<SvmRuntime>(kernel, mbox, domain)) {
  const auto& members = domain_.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == core_.id()) rank_ = static_cast<int>(i);
  }
  assert(rank_ >= 0 && "core is not a member of the SVM domain");
  next_vaddr_ = domain_.vbase();
}

Svm::~Svm() = default;

const SvmStats& Svm::stats() const { return runtime_->stats(); }

const obs::EventRing& Svm::trace() const { return runtime_->trace_ring(); }

const proto::CoherencePolicy& Svm::policy() const {
  return runtime_->policy();
}

// ---------------------------------------------------------------------------
// collectives

u64 Svm::alloc(u64 bytes) {
  const u64 page = scc::kPageBytes;
  const u64 pages = (bytes + page - 1) / page;
  const u64 base = domain_.register_alloc(rank_, bytes);
  // Region bookkeeping cost scales with the page count (the paper's
  // Table 1 row 1: reserving 4 MiB costs ~741 us in total).
  core_.compute_cycles(pages * kAllocRegionCyclesPerPage);
  next_vaddr_ = base + pages * page;
  barrier();
  return base;
}

void Svm::barrier() {
  ++runtime_->stats().barriers;
  // Release semantics: our writes must be in memory before we signal
  // arrival.
  runtime_->policy().on_release(*runtime_);

  const scc::MpbLayout& mpb = core_.chip().map().layout();
  kernel::master_gather_barrier(
      core_, domain_.members(), barrier_sense_,
      {mpb.barrier_arrive, mpb.barrier_release, "svm.barrier_gather",
       "svm.barrier_release"});

  // Acquire semantics: under Lazy Release the data written by others
  // before the barrier must not be shadowed by stale cache lines.
  runtime_->policy().on_acquire(*runtime_);
}

void Svm::protect_readonly(u64 vaddr, u64 bytes) {
  ++runtime_->stats().protect_calls;
  const u16 region = runtime_->region_of(vaddr);
  if (region == SvmDomain::kNoRegion) {
    panic("protect_readonly outside any SVM region");
  }
  const u64 page = scc::kPageBytes;
  // Make our writes visible and drop our MPBT lines: the region's lines
  // will re-enter the caches as plain (L2-capable) lines.
  core_.flush_wcb();
  core_.cl1invmb();
  for (u64 off = 0; off < bytes; off += page) {
    core_.pagetable().update(vaddr + off, [](scc::Pte& p) {
      p.writable = false;
      p.mpbt = false;
    });
    core_.compute_cycles(40);
  }
  runtime_->set_region_readonly(region);
  barrier();
}

// ---------------------------------------------------------------------------
// locks

void Svm::lock_acquire(int lock_id) {
  ++runtime_->stats().lock_acquires;
  const int reg = domain_.app_lock_reg(lock_id);
  kernel::spin_wait(core_, scc::WatchedWord::tas(reg),
                    kernel::tas_spin_opts(core_, "svm.lock_acquire",
                                          static_cast<u64>(lock_id)));
  core_.publish(obs::EventKind::kLockAcquire, static_cast<u64>(reg),
                static_cast<u64>(lock_id));
  // Entering the critical section: see the lock holder's released data.
  runtime_->policy().on_acquire(*runtime_);
}

void Svm::lock_release(int lock_id) {
  // Leaving: push our modifications down to memory.
  runtime_->policy().on_release(*runtime_);
  const int reg = domain_.app_lock_reg(lock_id);
  core_.tas_release(reg);
  core_.publish(obs::EventKind::kLockRelease, static_cast<u64>(reg),
                static_cast<u64>(lock_id));
}

}  // namespace msvm::svm
