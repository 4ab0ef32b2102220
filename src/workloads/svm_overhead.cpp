#include "workloads/svm_overhead.hpp"

#include "cluster/cluster.hpp"

namespace msvm::workloads {

SvmOverheadResult run_svm_overhead(const SvmOverheadParams& params) {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = 48;
  cfg.chip.shared_dram_bytes = 32 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = params.model;
  cfg.use_ipi = params.use_ipi;
  cfg.members = {params.core_a, params.core_b};
  cluster::Cluster cl(cfg);

  SvmOverheadResult result;
  const u64 page = scc::kPageBytes;
  const u64 pages = params.bytes / page;
  result.pages = pages;

  cl.run([&](cluster::Node& n) {
    svm::Svm& svm = n.svm();
    scc::Core& core = n.core();
    const bool is_a = n.core_id() == params.core_a;

    // Row 1: collective reservation of the whole region.
    const TimePs t_alloc0 = core.now();
    const u64 base = svm.alloc(params.bytes);
    if (is_a) result.alloc_total = core.now() - t_alloc0;

    // Row 2: core A touches every page => physical allocation.
    if (is_a) {
      const TimePs t0 = core.now();
      for (u64 p = 0; p < pages; ++p) {
        core.vstore<u32>(base + p * page, 0xa110c);
      }
      result.phys_alloc_per_page = (core.now() - t0) / pages;
    }
    svm.barrier();

    // Row 3: core B touches every (already allocated) page => mapping,
    // plus — under Strong — the ownership retrieval from core A.
    if (!is_a) {
      const TimePs t0 = core.now();
      for (u64 p = 0; p < pages; ++p) {
        core.vstore<u32>(base + p * page, 0x3a99ed);
      }
      result.map_per_page = (core.now() - t0) / pages;
    }
    svm.barrier();

    // Row 4: core A writes again. Pages are allocated and were mapped on
    // A before; under Strong, A must retrieve permission from B — the
    // isolated ownership-transfer cost. Under Lazy Release the mapping
    // still exists, so this is the no-overhead baseline.
    if (is_a) {
      const TimePs t0 = core.now();
      for (u64 p = 0; p < pages; ++p) {
        core.vstore<u32>(base + p * page, 0x4e5e7);
      }
      result.retrieve_per_page = (core.now() - t0) / pages;
    }
    svm.barrier();
  });

  return result;
}

}  // namespace msvm::workloads
