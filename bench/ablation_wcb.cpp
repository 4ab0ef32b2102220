// Ablation 2 — the write-combine buffer's bandwidth effect (Section 3:
// "the combine of write through data is extremely useful to increase the
// bandwidth").
//
// One core streams sequential stores over a buffer, once through
// MPBT-typed pages (write-through L1 + WCB, the SVM configuration) and
// once through plain cached write-through pages (the iRCCE variant's
// private memory, where every store is its own DRAM transaction). Also
// sweeps the store width: the WCB advantage is a function of stores per
// 32-byte line.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "sccsim/chip.hpp"

using namespace msvm;

namespace {

struct Outcome {
  TimePs elapsed = 0;
  u64 dram_writes = 0;
};

Outcome run(bool mpbt, u32 store_bytes, u64 total_bytes) {
  scc::ChipConfig cfg;
  cfg.num_cores = 1;
  cfg.shared_dram_bytes = 16 << 20;
  cfg.private_dram_bytes = 1 << 20;
  scc::Chip chip(cfg);
  Outcome out;
  chip.spawn_program(0, [&](scc::Core& core) {
    // Map the target region manually (no SVM needed for this ablation).
    for (u64 off = 0; off < total_bytes; off += scc::kPageBytes) {
      scc::Pte pte;
      pte.frame_paddr = scc::kSharedBase + off;
      pte.present = true;
      pte.writable = true;
      pte.mpbt = mpbt;
      core.pagetable().map(scc::kSvmVBase + off, pte);
    }
    const TimePs t0 = core.now();
    const u64 w0 = core.counters().dram_writes;
    for (u64 off = 0; off < total_bytes; off += store_bytes) {
      switch (store_bytes) {
        case 1:
          core.vstore<u8>(scc::kSvmVBase + off, static_cast<u8>(off));
          break;
        case 4:
          core.vstore<u32>(scc::kSvmVBase + off, static_cast<u32>(off));
          break;
        default:
          core.vstore<u64>(scc::kSvmVBase + off, off);
          break;
      }
    }
    core.flush_wcb();
    out.elapsed = core.now() - t0;
    out.dram_writes = core.counters().dram_writes - w0;
  });
  chip.run();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::obs_setup(argc, argv);
  const u64 kb = bench::arg_u64(argc, argv, "kbytes", 256);
  const u64 total = kb << 10;

  bench::print_header(
      "Ablation — write-combine buffer bandwidth",
      "Lankes et al., PMAM'12, Section 3 (WCB) / Section 7.2.2");

  std::printf("streaming %llu KiB of sequential stores\n\n",
              static_cast<unsigned long long>(kb));
  bench::Claim claim(
      "DRAM writes: bytes/32 with the WCB and bytes/width without, at "
      "every store width");

  std::printf("%6s | %13s %12s | %13s %12s | %8s\n", "width",
              "WCB [ms]", "DRAM writes", "no-WCB [ms]", "DRAM writes",
              "speedup");
  bench::print_row_sep();
  for (const u32 width : {1u, 4u, 8u}) {
    const Outcome with = run(/*mpbt=*/true, width, total);
    const Outcome without = run(/*mpbt=*/false, width, total);
    std::printf("%5uB | %13.3f %12llu | %13.3f %12llu | %7.2fx\n", width,
                ps_to_ms(with.elapsed),
                static_cast<unsigned long long>(with.dram_writes),
                ps_to_ms(without.elapsed),
                static_cast<unsigned long long>(without.dram_writes),
                static_cast<double>(without.elapsed) /
                    static_cast<double>(with.elapsed));
    // One DRAM transaction per 32-byte line through the WCB, one per
    // store on the plain write-through path.
    claim.require(with.dram_writes == total / scc::kLineBytes,
                  "%uB stores with the WCB: %llu DRAM writes == %llu", width,
                  static_cast<unsigned long long>(with.dram_writes),
                  static_cast<unsigned long long>(total / scc::kLineBytes));
    claim.require(without.dram_writes == total / width,
                  "%uB stores without the WCB: %llu DRAM writes == %llu",
                  width, static_cast<unsigned long long>(without.dram_writes),
                  static_cast<unsigned long long>(total / width));
  }
  bench::print_row_sep();
  return claim.verdict();
}
