// Sharded in-memory key-value store over SVM shared regions.
//
// The table is hash-partitioned into shards, each owned by one *home*
// member core (shard s is homed on rank s % members). Every shard's
// slot array lives in its own page-aligned slice of one collective SVM
// allocation, and the home core first-touches its slice at init — so
// frames land near the home's memory controller, and under the Strong
// model the home acquires (and keeps) page ownership, making steady-
// state serving a run of local L1 hits. Requests from other cores are
// routed to the home over the mailbox layer (see kv_serving.*); remote
// cores never touch a foreign shard's pages directly, which keeps the
// tier correct under all three coherence models and confines a fail-
// stopped home's page poisonings to the shard nobody else will read.
//
// Keys are dense in [0, num_keys): shard_of = key % shards, slot =
// key / shards — a perfect hash, so there is no collision chain and a
// slot's address is a pure function of the key.
//
// Values are self-verifying: slot contents are derived words
// value_word(seed, key, version, i), so any byte the store hands back
// can be checked against the (key, version) pair it claims to carry —
// by the serving core when it executes the op, and independently by the
// client when the reply's fold arrives. Silent corruption anywhere in
// the SVM/mailbox stack surfaces as a verification mismatch, never as
// a plausible-looking answer (same discipline as the kill-mosaic
// workload's slot checksums).
#pragma once

#include "sim/types.hpp"
#include "svm/svm.hpp"

namespace msvm::serve {

struct KvConfig {
  /// Shard count; 0 means one shard per member core.
  u32 shards = 0;
  u64 num_keys = 4096;
  /// 8-byte value words per entry; the entry is the version word plus
  /// the value words, padded to a 64-byte line.
  u32 value_words = 6;
  /// Seed the derived value words are keyed on.
  u64 seed = 42;
  /// TAS stripes backing the per-shard locks (shard -> stripe by mod).
  u32 lock_stripes = 16;
};

/// Per-core view of the shared store. Every member constructs one (the
/// constructor performs the collective SVM allocation, so construction
/// is itself a collective call), then each home initialises its own
/// shards before serving.
class KvStore {
 public:
  KvStore(svm::Svm& svm, const KvConfig& cfg, int num_members);

  u32 num_shards() const { return shards_; }
  u64 num_keys() const { return cfg_.num_keys; }
  u64 shard_bytes() const { return shard_bytes_; }

  u32 shard_of(u64 key) const {
    return static_cast<u32>(key % shards_);
  }
  /// Rank (not core id) of the member that owns `shard`.
  int home_rank(u32 shard) const {
    return static_cast<int>(shard % static_cast<u32>(num_members_));
  }
  /// TAS lock id guarding `shard` (pass to Svm::lock_acquire).
  int lock_id(u32 shard) const {
    return static_cast<int>(shard % cfg_.lock_stripes);
  }

  /// Home-side init: fills every slot of `shard` with version 1 and its
  /// derived value words (first touch places the frames). Call once per
  /// owned shard before serving.
  void init_shard(u32 shard);

  struct OpResult {
    bool ok = false;   // store-side verification of what was read
    u64 version = 0;   // entry version the op observed/installed
    u64 fold = 0;      // fold of the value words read/written
    u32 count = 0;     // entries touched (1, or scan length)
  };

  /// Reads the entry and verifies the stored words against the stored
  /// version; `fold` is computed from the words actually read so the
  /// caller can re-verify end to end. Ops take the shard's TAS lock.
  OpResult get(u64 key);

  /// Bumps the version and installs the new derived words; `fold`
  /// covers the written words.
  OpResult put(u64 key);

  /// Reads `len` consecutive slots of the key's shard (wrapping within
  /// the shard), verifying each; `fold` mixes all entry folds.
  OpResult scan(u64 key, u32 len);

  // ---- the self-verifying value scheme ----

  /// The i-th derived value word of (key, version) under `seed`
  /// (splitmix-style finalizer, like the kill-mosaic slot values: a
  /// misplaced or stale word mismatches, never collides plausibly).
  static u64 value_word(u64 seed, u64 key, u64 version, u32 i);

  /// Fold of all value words of (key, version) — what a correct GET or
  /// PUT reply must carry for that version.
  static u64 value_fold(u64 seed, u64 key, u64 version, u32 value_words);

 private:
  u64 entry_vaddr(u64 key) const;

  svm::Svm& svm_;
  KvConfig cfg_;
  int num_members_;
  u32 shards_;
  u64 keys_per_shard_;
  u64 entry_bytes_;
  u64 shard_bytes_;  // page-aligned slice per shard
  u64 base_ = 0;
};

}  // namespace msvm::serve
