// SvmDomain — chip-wide SVM bookkeeping: the simulated-memory layout of
// the owner vector, scratchpad, directory and per-MC frame allocators,
// plus the host-side collective/allocation records. Pure layout and
// bookkeeping; no protocol logic lives here.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sccsim/addrmap.hpp"
#include "svm/svm.hpp"
#include "svm/svm_panic.hpp"

namespace msvm::svm {

namespace {

using proto::kFrameMask;

u64 round_up(u64 v, u64 to) { return (v + to - 1) / to * to; }

}  // namespace

void panic(const char* msg) {
  std::fprintf(stderr, "msvm::svm panic: %s\n", msg);
  std::abort();
}

SvmDomain::SvmDomain(scc::Chip& chip, SvmConfig cfg,
                     std::vector<int> members, int slot, int num_slots)
    : chip_(chip),
      cfg_(cfg),
      members_(std::move(members)),
      next_alloc_seq_(members_.size(), 0) {
  assert(num_slots >= 1 && slot >= 0 && slot < num_slots);
  const scc::Topology& topo = chip_.topology();
  const scc::ChipConfig& ccfg = chip_.config();
  const u64 page = scc::kPageBytes;

  const scc::MpbLayout& mpb = chip_.map().layout();
  entries_per_mpb_ = (mpb.rcce_comm - mpb.entries) / 2;
  page_capacity_total_ =
      static_cast<u64>(ccfg.num_cores) * entries_per_mpb_;
  // Wide chips: the scratchpad-addressable capacity grows with the core
  // count, but the DRAM metadata below is sized off it — at 1024 cores
  // the uncapped owner vector plus directory would outgrow shared DRAM
  // itself. Past the SCC die, cap capacity at 4x the physical frame
  // count (overcommit for sparse allocations); at <= 48 cores the
  // historical layout is kept bit for bit.
  if (topo.max_cores() > 48) {
    page_capacity_total_ =
        std::min(page_capacity_total_, 4 * (ccfg.shared_dram_bytes / page));
  }
  // Coherency-domain partitioning: each slot owns a disjoint share of
  // the page-index space (and therefore of the scratchpad/owner-vector
  // entries and the virtual address range).
  svm_page_capacity_ = page_capacity_total_ / static_cast<u64>(num_slots);
  page_index_base_ = static_cast<u64>(slot) * svm_page_capacity_;

  // Metadata at the tail of shared DRAM: the per-MC frame counters
  // (8 bytes each, padded to 64 — exactly 64 bytes on the four-MC SCC),
  // then the owner vector, then 2 bytes per page that nothing uses (an
  // off-die copy of the scratchpad once lived there; the area stays
  // reserved because freeing it would move meta_base_ and with it every
  // frame number), then — only in read-replication mode, so that
  // flag-off runs keep the paper's exact layout — one directory entry
  // per page. Sized for the whole chip so every slot sees the same
  // layout.
  mc_area_bytes_ =
      round_up(8 * static_cast<u64>(topo.num_mem_controllers()), 64);
  const u64 meta_bytes =
      mc_area_bytes_ + 4 * page_capacity_total_ +
      (cfg_.read_replication ? dir_entry_stride() * page_capacity_total_
                             : 0);
  if (round_up(meta_bytes, page) + page >= ccfg.shared_dram_bytes) {
    panic("shared DRAM too small for SVM metadata");
  }
  meta_base_ = ccfg.shared_dram_bytes - round_up(meta_bytes, page);

  // Seed the per-MC frame allocator counters in *simulated* memory (the
  // kernel would write these at boot). Slot 0 does it; later slots must
  // not reset the chip-level allocators.
  if (slot == 0) {
    for (int mc = 0; mc < topo.num_mem_controllers(); ++mc) {
      const auto [lo, hi] = frame_range_of_mc(mc);
      (void)hi;
      const u64 v = lo;
      chip_.memory().write(mc_counter_paddr(mc), &v, sizeof(v));
    }
  }

  // Integrity layer storage exists only when armed: a flag-off run must
  // not even size the vectors (byte-identical baselines).
  if (chip_.faults().plan().integrity_armed()) {
    seals.resize(svm_page_capacity_);
  }
}

u64 SvmDomain::vbase() const {
  return scc::kSvmVBase + page_index_base_ * scc::kPageBytes;
}

std::pair<u16, u16> SvmDomain::frame_range_of_mc(int mc) const {
  const scc::ChipConfig& ccfg = chip_.config();
  const u64 page = scc::kPageBytes;
  const u64 quarter = ccfg.shared_dram_bytes /
                      static_cast<u64>(chip_.topology().num_mem_controllers());
  const u64 frames_limit = meta_base_ / page;  // metadata is off-limits
  u64 lo = static_cast<u64>(mc) * quarter / page;
  u64 hi = (static_cast<u64>(mc) + 1) * quarter / page;
  if (lo == 0) lo = 1;  // frame 0 is the "unallocated" sentinel
  hi = std::min(hi, frames_limit);
  lo = std::min(lo, hi);
  if (hi > kFrameMask) panic("shared DRAM exceeds 15-bit frame space");
  return {static_cast<u16>(lo), static_cast<u16>(hi)};
}

u64 SvmDomain::owner_entry_paddr(u64 page_idx) const {
  assert(page_idx >= page_index_base_ &&
         page_idx < page_index_base_ + svm_page_capacity_);
  return scc::kSharedBase + meta_base_ + mc_area_bytes_ + 2 * page_idx;
}

u64 SvmDomain::scratchpad_entry_paddr(u64 page_idx) const {
  assert(page_idx >= page_index_base_ &&
         page_idx < page_index_base_ + svm_page_capacity_);
  const int core = static_cast<int>(page_idx / entries_per_mpb_);
  const u32 off = static_cast<u32>(page_idx % entries_per_mpb_) * 2;
  return chip_.map().mpb_base(core) + chip_.map().layout().entries + off;
}

u64 SvmDomain::sharer_entry_paddr(u64 page_idx) const {
  assert(cfg_.read_replication &&
         "directory sharer words exist only in read-replication mode");
  assert(page_idx >= page_index_base_ &&
         page_idx < page_index_base_ + svm_page_capacity_);
  return scc::kSharedBase + meta_base_ + mc_area_bytes_ +
         4 * page_capacity_total_ + dir_entry_stride() * page_idx;
}

u64 SvmDomain::total_frames() const {
  return meta_base_ / scc::kPageBytes;
}

u64 SvmDomain::mc_counter_paddr(int mc) const {
  return scc::kSharedBase + meta_base_ + 8 * static_cast<u64>(mc);
}

u64 SvmDomain::frame_paddr(u16 frame_no) const {
  return scc::kSharedBase +
         static_cast<u64>(frame_no) * scc::kPageBytes;
}

u16 SvmDomain::frame_of_paddr(u64 paddr) const {
  return static_cast<u16>((paddr - scc::kSharedBase) / scc::kPageBytes);
}

// The TAS file (one register per core the die provides) is partitioned
// statically: the scratchpad lock and the transfer locks share the lower
// half, application locks take the upper half. SVM fault handling can
// therefore never self-deadlock on a register aliased with an
// application lock the faulting code holds.
int SvmDomain::transfer_lock_reg(u64 page_idx) const {
  // Shares the lower half with the scratchpad lock; the two are never
  // held simultaneously, so aliasing only costs contention, not deadlock.
  return static_cast<int>(page_idx %
                          static_cast<u64>(transfer_lock_regs()));
}

int SvmDomain::app_lock_reg(int lock_id) const {
  const int half = chip_.topology().max_cores() / 2;
  return half + lock_id % half;
}

u64 SvmDomain::register_alloc(int rank, u64 bytes) {
  const u64 page = scc::kPageBytes;
  const u64 seq = next_alloc_seq_[static_cast<std::size_t>(rank)]++;
  if (seq == allocs_.size()) {
    // First member to reach this collective call defines the region.
    const u64 prev_end =
        allocs_.empty()
            ? vbase()
            : allocs_.back().base +
                  round_up(allocs_.back().bytes, page);
    if ((prev_end - vbase()) / page + round_up(bytes, page) / page >
        svm_page_capacity_) {
      panic("svm_alloc exceeds scratchpad capacity");
    }
    if (allocs_.size() >= kNoRegion) panic("svm region id space exhausted");
    region_by_page_.resize(
        region_by_page_.size() + round_up(bytes, page) / page,
        static_cast<u16>(allocs_.size()));
    allocs_.push_back(AllocRecord{bytes, prev_end, 0});
  }
  AllocRecord& rec = allocs_.at(seq);
  if (rec.bytes != bytes) {
    panic("svm_alloc called with mismatched sizes across cores");
  }
  ++rec.seen;
  return rec.base;
}

}  // namespace msvm::svm
