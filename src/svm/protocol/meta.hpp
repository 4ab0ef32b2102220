// The metadata-ops layer: every piece of protocol metadata the paper
// spreads over simulated physical memory — the off-die owner vector, the
// on-die first-touch scratchpad, and the read-replication directory —
// is, to the protocol core, just a typed word keyed by (kind, page).
//
// MetaStore is the raw transport: one load and one store, implemented by
// the binding layer as uncached ploads/pstores at the SvmDomain's
// physical addresses and by the test harness as plain arrays. MetaWord
// is the typed accessor on top that replaces the former
// owner_read/owner_write/dir_read/dir_write/scratchpad_read/
// scratchpad_write boilerplate sextet, and gives every metadata write a
// single choke point for transition tracing.
#pragma once

#include "svm/protocol/sharer_set.hpp"
#include "svm/protocol/types.hpp"

namespace msvm::svm::proto {

/// One page's read-replication directory entry: the set of cores holding
/// a read-only replica (never including the owner) plus the
/// Exclusive/Shared state bit. The width of `sharers` is the store's
/// sharer_width(), fixed by the directory encoding.
struct DirEntry {
  SharerSet sharers;
  bool shared = false;

  DirEntry() = default;
  explicit DirEntry(int width) : sharers(width) {}

  /// True for the pristine Exclusive entry (the historical word == 0).
  bool none() const { return !shared && sharers.none(); }
};

/// Raw word transport for protocol metadata. Values are passed as u64;
/// 16-bit kinds use the low half (the store side truncates).
///
/// The directory row is wider than one word past 64 cores, so it gets
/// typed accessors with a width: the defaults below pack a DirEntry into
/// the historical single u64 (bit 63 = Shared, bits [0, 48) = sharers)
/// through load/store(kDirectory), which keeps every narrow MetaStore —
/// including the scripted test harness — working unchanged. Stores
/// serving chips wider than 64 cores override all three.
class MetaStore {
 public:
  virtual ~MetaStore() = default;
  virtual u64 load(MetaKind kind, u64 page) = 0;
  virtual void store(MetaKind kind, u64 page, u64 value) = 0;

  /// Width (in core ids) of the directory's sharer set.
  virtual int sharer_width() const { return 48; }

  virtual DirEntry load_dir(u64 page) {
    DirEntry e(sharer_width());
    const u64 word = load(MetaKind::kDirectory, page);
    e.shared = (word & kDirSharedBit) != 0;
    // Sharer bits occupy everything below the state bit; masking with
    // ~kDirSharedBit (rather than the historical 48-bit mask) keeps the
    // single-word encoding exact for dies of up to 63 cores.
    e.sharers.set_word(0, word & ~kDirSharedBit);
    return e;
  }

  virtual void store_dir(u64 page, const DirEntry& e) {
    const u64 word = (e.shared ? kDirSharedBit : 0) |
                     (e.sharers.word(0) & ~kDirSharedBit);
    store(MetaKind::kDirectory, page, word);
  }
};

/// Allocatable frame numbers are 15-bit: a scratchpad entry's bit 15 is
/// unused and masked off on every read, so frame numbers never exceed
/// 0x7fff (128 MiB of shared memory, half the paper's 256 MiB — still far
/// beyond what we simulate).
inline constexpr u16 kFrameMask = 0x7fff;

/// Typed facade over a MetaStore. Reads are free of side effects; every
/// write is recorded through the (optional) trace sink.
class MetaWord {
 public:
  explicit MetaWord(MetaStore& store, TraceSink* trace = nullptr)
      : store_(store), trace_(trace) {}

  // ---- owner vector ----
  u16 owner(u64 page) {
    return static_cast<u16>(store_.load(MetaKind::kOwner, page));
  }
  void set_owner(u64 page, u16 core) {
    write(MetaKind::kOwner, page, core);
  }

  // ---- first-touch scratchpad ----
  u16 scratchpad(u64 page) {
    return static_cast<u16>(store_.load(MetaKind::kScratchpad, page));
  }
  void set_scratchpad(u64 page, u16 entry) {
    write(MetaKind::kScratchpad, page, entry);
  }
  u16 frame_of(u64 page) { return scratchpad(page) & kFrameMask; }

  // ---- read-replication directory ----
  DirEntry dir_entry(u64 page) { return store_.load_dir(page); }
  void store_dir_entry(u64 page, const DirEntry& e) {
    store_.store_dir(page, e);
    if (trace_ != nullptr) {
      // Trace the legacy packed view (exact for <= 64-wide directories;
      // word 0 plus the state bit for wider ones).
      const u64 value =
          (e.shared ? kDirSharedBit : 0) | e.sharers.word(0);
      trace_->trace(TraceEvent{TraceKind::kMetaWrite, page,
                               static_cast<u64>(MetaKind::kDirectory),
                               value});
    }
  }
  void clear_dir(u64 page) {
    store_dir_entry(page, DirEntry(store_.sharer_width()));
  }

  MetaStore& store() { return store_; }

 private:
  void write(MetaKind kind, u64 page, u64 value) {
    store_.store(kind, page, value);
    if (trace_ != nullptr) {
      trace_->trace(TraceEvent{TraceKind::kMetaWrite, page,
                               static_cast<u64>(kind), value});
    }
  }

  MetaStore& store_;
  TraceSink* trace_;
};

}  // namespace msvm::svm::proto
