// On-die MPB space carving, shared by the mailbox system, the SVM
// scratchpad and the RCCE allocator.
//
// Paper, Section 5: "For each communication path between two cores a
// mailbox of one cache-line size is reserved at each local MPB. Thus, the
// mailbox system takes 48 * 32 Bytes = 1.5 kByte of MPB space per core
// ... RCCE provides a memory allocation scheme to manage the remaining
// 6.5 kByte". Section 6.3 additionally parks the first-touch scratchpad
// in on-die memory; we carve it out of the RCCE share.
//
// With a parameterized topology the carve is computed at runtime from the
// die's maximum core count (Layout::make); at the SCC's 48 cores it
// reproduces the historical constants below byte for byte. Chips past 48
// cores need a larger MPB (scc::mpb_bytes_for sizes it).
#pragma once

#include <cstdio>
#include <cstdlib>

#include "sim/types.hpp"

namespace msvm::mbox {

inline constexpr u32 kMailBytes = 32;  // one cache line per mailbox
inline constexpr u32 kMaxCores = 48;   // the physical SCC part

/// [0, 1536): mailbox slots, one per potential sender (48-core part).
inline constexpr u32 kMailboxRegionBytes = kMaxCores * kMailBytes;

/// [1536, 3584): SVM first-touch scratchpad (16-bit entries, Section 6.3).
inline constexpr u32 kScratchpadOffset = kMailboxRegionBytes;
inline constexpr u32 kScratchpadBytes = 2048;

/// [3584, 8192): RCCE-managed space (flags + communication buffers).
inline constexpr u32 kRcceOffset = kScratchpadOffset + kScratchpadBytes;

/// Offset of the mailbox written by `sender` within the receiver's MPB.
constexpr u32 mail_slot_offset(int sender) {
  return static_cast<u32>(sender) * kMailBytes;
}

/// Runtime MPB carve for a die of `max_cores` potential senders. All
/// region consumers (mailbox slots, SVM scratchpad + barrier, RCCE flags
/// and comm buffer) derive their offsets from one Layout so the regions
/// can never overlap. Equal to the constants above at 48 cores.
struct Layout {
  int max_cores = kMaxCores;
  u32 mpb_bytes = 0;

  u32 mailbox_region_bytes = kMailboxRegionBytes;
  u32 scratchpad_offset = kScratchpadOffset;  // == mailbox_region_bytes
  u32 scratchpad_bytes = kScratchpadBytes;
  u32 rcce_offset = kRcceOffset;

  /// Dissemination-barrier geometry inside the scratchpad header (see
  /// svm.cpp): arrive bytes (one per core) + 1 release byte + 2 bytes per
  /// round, rounded up to a cache line. 64 bytes at 48 cores.
  int diss_rounds = 6;
  u32 barrier_header_bytes = 64;

  static int ceil_log2(int n) {
    int r = 0;
    while ((1 << r) < n) ++r;
    return r;
  }

  static Layout make(int max_cores, u32 mpb_bytes) {
    Layout l;
    l.max_cores = max_cores;
    l.mpb_bytes = mpb_bytes;
    l.mailbox_region_bytes = static_cast<u32>(max_cores) * kMailBytes;
    l.scratchpad_offset = l.mailbox_region_bytes;
    l.scratchpad_bytes = kScratchpadBytes;
    l.rcce_offset = l.scratchpad_offset + l.scratchpad_bytes;
    l.diss_rounds = ceil_log2(max_cores) > 6 ? ceil_log2(max_cores) : 6;
    const u32 header = static_cast<u32>(max_cores) + 1 +
                       2 * static_cast<u32>(l.diss_rounds);
    l.barrier_header_bytes = (header + 63) / 64 * 64;
    // RCCE share: 4 KiB comm buffer + 3 flag bytes per core + 1 release.
    const u32 need = l.rcce_offset + 4096 +
                     3 * static_cast<u32>(max_cores) + 1;
    if (mpb_bytes != 0 && mpb_bytes < need) {
      std::fprintf(stderr,
                   "msvm::mbox::Layout: mpb_bytes=%u too small for a "
                   "%d-core die (need %u; see scc::mpb_bytes_for)\n",
                   mpb_bytes, max_cores, need);
      std::abort();
    }
    return l;
  }
};

}  // namespace msvm::mbox
