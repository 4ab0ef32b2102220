// The metadata-ops layer: every piece of protocol metadata the paper
// spreads over simulated physical memory — the off-die owner vector, the
// on-die first-touch scratchpad, and the read-replication directory —
// is, to the protocol core, just typed words keyed by (kind, page, word).
//
// MetaStore is the raw transport: one load and one store, implemented by
// the binding layer as uncached ploads/pstores at the SvmDomain's
// physical addresses and by the test harness as plain arrays. MetaWord
// is the typed accessor on top that replaces the former
// owner_read/owner_write/dir_read/dir_write/scratchpad_read/
// scratchpad_write boilerplate sextet, is the only packer of directory
// entries (one rule on every die, see kDirSharedBit), and gives every
// metadata write a single choke point for transition tracing.
#pragma once

#include "svm/protocol/sharer_set.hpp"
#include "svm/protocol/types.hpp"

namespace msvm::svm::proto {

/// One page's read-replication directory entry: the set of cores holding
/// a read-only replica (never including the owner) plus the
/// Exclusive/Shared state bit. The width of `sharers` is the die's core
/// count (MetaWord::dir_width()).
struct DirEntry {
  SharerSet sharers;
  bool shared = false;

  DirEntry() = default;
  explicit DirEntry(int width) : sharers(width) {}

  /// True for the pristine Exclusive entry (every word 0).
  bool none() const { return !shared && sharers.none(); }
};

/// Raw word transport for protocol metadata: word `word` of the entry of
/// `page`. Values are passed as u64; 16-bit kinds use the low half (the
/// store side truncates). Owner and scratchpad entries are one word;
/// a directory entry is dir_words(n) words, which MetaWord packs.
class MetaStore {
 public:
  virtual ~MetaStore() = default;
  virtual u64 load(MetaKind kind, u64 page, int word) = 0;
  virtual void store(MetaKind kind, u64 page, int word, u64 value) = 0;
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
  /// `dir_width` is the die's core count; it fixes the directory entry
  /// at dir_words(dir_width) words.
  MetaWord(MetaStore& store, int dir_width, TraceSink* trace = nullptr)
      : store_(store),
        trace_(trace),
        dir_width_(dir_width),
        entry_words_(dir_words(dir_width)) {}

  // ---- owner vector ----
  u16 owner(u64 page) {
    return static_cast<u16>(store_.load(MetaKind::kOwner, page, 0));
  }
  void set_owner(u64 page, u16 core) {
    write(MetaKind::kOwner, page, 0, core);
  }

  // ---- first-touch scratchpad ----
  u16 scratchpad(u64 page) {
    return static_cast<u16>(store_.load(MetaKind::kScratchpad, page, 0));
  }
  void set_scratchpad(u64 page, u16 entry) {
    write(MetaKind::kScratchpad, page, 0, entry);
  }
  u16 frame_of(u64 page) { return scratchpad(page) & kFrameMask; }

  // ---- read-replication directory (layout: see kDirSharedBit) ----
  int dir_width() const { return dir_width_; }

  DirEntry dir_entry(u64 page) {
    DirEntry e(dir_width_);
    for (int w = 0; w < entry_words_; ++w) {
      u64 word = store_.load(MetaKind::kDirectory, page, w);
      if (w == entry_words_ - 1) {
        e.shared = (word & kDirSharedBit) != 0;
        word &= ~kDirSharedBit;
      }
      if (w < e.sharers.num_words()) e.sharers.set_word(w, word);
    }
    return e;
  }

  /// Stores every word, then traces every word: the records of one entry
  /// arrive together, so an auditor never sees half an entry.
  void store_dir_entry(u64 page, const DirEntry& e) {
    for (int w = 0; w < entry_words_; ++w) {
      store_.store(MetaKind::kDirectory, page, w, dir_word(e, w));
    }
    for (int w = 0; w < entry_words_; ++w) {
      trace_write(MetaKind::kDirectory, page, w, dir_word(e, w));
    }
  }
  void clear_dir(u64 page) { store_dir_entry(page, DirEntry(dir_width_)); }

 private:
  u64 dir_word(const DirEntry& e, int w) const {
    u64 word = w < e.sharers.num_words() ? e.sharers.word(w) : 0;
    if (w == entry_words_ - 1 && e.shared) word |= kDirSharedBit;
    return word;
  }

  void write(MetaKind kind, u64 page, int word, u64 value) {
    store_.store(kind, page, word, value);
    trace_write(kind, page, word, value);
  }

  void trace_write(MetaKind kind, u64 page, int word, u64 value) {
    if (trace_ != nullptr) {
      trace_->trace(TraceEvent{TraceKind::kMetaWrite, page,
                               meta_tag(kind, word), value});
    }
  }

  MetaStore& store_;
  TraceSink* trace_;
  int dir_width_;
  int entry_words_;
};

}  // namespace msvm::svm::proto
