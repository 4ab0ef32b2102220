// Per-core performance counters. Incremented on the simulator's hot paths
// and reported by the benchmark harnesses (e.g. the "two page faults per
// iteration" claim of Section 7.2.2 is validated from these).
#pragma once

#include "sim/types.hpp"

namespace msvm::scc {

struct CoreCounters {
  // memory traffic
  u64 loads = 0;
  u64 stores = 0;
  u64 l1_hits = 0;
  u64 l1_misses = 0;
  u64 l2_hits = 0;
  u64 l2_misses = 0;
  u64 wcb_merges = 0;
  u64 wcb_flushes = 0;
  u64 dram_reads = 0;
  u64 dram_writes = 0;
  u64 mpb_reads = 0;
  u64 mpb_writes = 0;
  u64 uncached_ops = 0;
  u64 cl1invmb_count = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;

  // synchronisation
  u64 tas_acquires = 0;
  u64 tas_spins = 0;
  u64 tas_locks_broken = 0;  // registers forced open: holder died

  // faults & interrupts
  u64 page_faults = 0;
  u64 timer_irqs = 0;
  u64 ipi_irqs = 0;
  u64 ipis_sent = 0;

  // SVM fault path (maintained by the SVM layer, not the core itself;
  // kept here so they aggregate and difference with everything else)
  u64 svm_read_faults = 0;
  u64 svm_write_faults = 0;
  u64 svm_mail_roundtrips = 0;
  TimePs svm_fault_stall_ps = 0;

  // virtual-time breakdown (picoseconds)
  TimePs busy_ps = 0;

  /// Applies `op` to every field pair by walking the field table below;
  /// single source of truth for the field list used by aggregation,
  /// differencing, and the metrics registry.
  template <typename Op>
  void combine(const CoreCounters& o, Op op);

  CoreCounters& operator+=(const CoreCounters& o) {
    combine(o, [](u64& a, const u64& b) { a += b; });
    return *this;
  }

  CoreCounters operator-(const CoreCounters& o) const {
    CoreCounters d = *this;
    d.combine(o, [](u64& a, const u64& b) { a -= b; });
    return d;
  }
};

/// Self-description of CoreCounters: one entry per field, in declaration
/// order. The observability metrics registry folds counters through this
/// table ("core.loads", ...), and combine() walks it, so adding a field
/// here is the only step needed to aggregate, difference, and export it.
struct CoreCounterField {
  const char* name;
  u64 CoreCounters::*member;
};

inline constexpr CoreCounterField kCoreCounterFields[] = {
    {"loads", &CoreCounters::loads},
    {"stores", &CoreCounters::stores},
    {"l1_hits", &CoreCounters::l1_hits},
    {"l1_misses", &CoreCounters::l1_misses},
    {"l2_hits", &CoreCounters::l2_hits},
    {"l2_misses", &CoreCounters::l2_misses},
    {"wcb_merges", &CoreCounters::wcb_merges},
    {"wcb_flushes", &CoreCounters::wcb_flushes},
    {"dram_reads", &CoreCounters::dram_reads},
    {"dram_writes", &CoreCounters::dram_writes},
    {"mpb_reads", &CoreCounters::mpb_reads},
    {"mpb_writes", &CoreCounters::mpb_writes},
    {"uncached_ops", &CoreCounters::uncached_ops},
    {"cl1invmb_count", &CoreCounters::cl1invmb_count},
    {"tlb_hits", &CoreCounters::tlb_hits},
    {"tlb_misses", &CoreCounters::tlb_misses},
    {"tas_acquires", &CoreCounters::tas_acquires},
    {"tas_spins", &CoreCounters::tas_spins},
    {"tas_locks_broken", &CoreCounters::tas_locks_broken},
    {"page_faults", &CoreCounters::page_faults},
    {"timer_irqs", &CoreCounters::timer_irqs},
    {"ipi_irqs", &CoreCounters::ipi_irqs},
    {"ipis_sent", &CoreCounters::ipis_sent},
    {"svm_read_faults", &CoreCounters::svm_read_faults},
    {"svm_write_faults", &CoreCounters::svm_write_faults},
    {"svm_mail_roundtrips", &CoreCounters::svm_mail_roundtrips},
    {"svm_fault_stall_ps", &CoreCounters::svm_fault_stall_ps},
    {"busy_ps", &CoreCounters::busy_ps},
};

template <typename Op>
void CoreCounters::combine(const CoreCounters& o, Op op) {
  for (const CoreCounterField& f : kCoreCounterFields) {
    op(this->*(f.member), o.*(f.member));
  }
}

}  // namespace msvm::scc
