#include "serve/kv_store.hpp"

#include <cassert>

namespace msvm::serve {

namespace {

u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

u64 round_up(u64 v, u64 align) { return (v + align - 1) / align * align; }

}  // namespace

u64 KvStore::value_word(u64 seed, u64 key, u64 version, u32 i) {
  return mix64(seed ^ (key << 20) ^ (version << 4) ^ i);
}

u64 KvStore::value_fold(u64 seed, u64 key, u64 version, u32 value_words) {
  u64 fold = 0;
  for (u32 i = 0; i < value_words; ++i) {
    const u64 w = value_word(seed, key, version, i);
    fold = (fold << 7 | fold >> 57) ^ w;
  }
  return fold;
}

KvStore::KvStore(svm::Svm& svm, const KvConfig& cfg, int num_members)
    : svm_(svm), cfg_(cfg), num_members_(num_members) {
  assert(num_members > 0);
  shards_ = cfg_.shards != 0 ? cfg_.shards
                             : static_cast<u32>(num_members);
  assert(cfg_.lock_stripes > 0);
  keys_per_shard_ = (cfg_.num_keys + shards_ - 1) / shards_;
  // Version word + value words, padded to a 64-byte line so one entry
  // never straddles lines.
  entry_bytes_ = round_up(8 * (1 + static_cast<u64>(cfg_.value_words)), 64);
  // Page-aligned shard slices: no page is ever shared by two shards, so
  // the only core that touches a shard's pages (its home) is also the
  // only one a fail-stop there can hurt.
  const u64 page = scc::kPageBytes;
  shard_bytes_ = round_up(keys_per_shard_ * entry_bytes_, page);
  base_ = svm_.alloc(shard_bytes_ * shards_);  // collective
}

u64 KvStore::entry_vaddr(u64 key) const {
  const u32 shard = shard_of(key);
  const u64 slot = key / shards_;
  return base_ + static_cast<u64>(shard) * shard_bytes_ +
         slot * entry_bytes_;
}

void KvStore::init_shard(u32 shard) {
  // Lockless by design: init happens before the serving epoch, when no
  // request can reach this shard yet, and the home is the only core
  // that ever touches its pages — its own later reads see its own
  // writes under every model. Taking the striped TAS lock here would
  // serialise the inits of every shard sharing a stripe (and stripes
  // alias in the TAS register file), delaying the last home past the
  // start epoch at high core counts.
  for (u64 slot = 0; slot < keys_per_shard_; ++slot) {
    const u64 key = slot * shards_ + shard;
    if (key >= cfg_.num_keys) break;
    const u64 e = entry_vaddr(key);
    svm_.write<u64>(e, 1);  // initial version
    for (u32 i = 0; i < cfg_.value_words; ++i) {
      svm_.write<u64>(e + 8 * (1 + static_cast<u64>(i)),
                      value_word(cfg_.seed, key, 1, i));
    }
  }
}

KvStore::OpResult KvStore::get(u64 key) {
  assert(key < cfg_.num_keys);
  const u64 e = entry_vaddr(key);
  OpResult r;
  svm_.lock_acquire(lock_id(shard_of(key)));
  r.version = svm_.read<u64>(e);
  u64 fold = 0;
  bool ok = r.version != 0;
  for (u32 i = 0; i < cfg_.value_words; ++i) {
    const u64 w = svm_.read<u64>(e + 8 * (1 + static_cast<u64>(i)));
    fold = (fold << 7 | fold >> 57) ^ w;
    ok = ok && w == value_word(cfg_.seed, key, r.version, i);
  }
  svm_.lock_release(lock_id(shard_of(key)));
  r.fold = fold;
  r.ok = ok;
  r.count = 1;
  return r;
}

KvStore::OpResult KvStore::put(u64 key) {
  assert(key < cfg_.num_keys);
  const u64 e = entry_vaddr(key);
  OpResult r;
  svm_.lock_acquire(lock_id(shard_of(key)));
  const u64 old = svm_.read<u64>(e);
  r.version = old + 1;
  u64 fold = 0;
  for (u32 i = 0; i < cfg_.value_words; ++i) {
    const u64 w = value_word(cfg_.seed, key, r.version, i);
    svm_.write<u64>(e + 8 * (1 + static_cast<u64>(i)), w);
    fold = (fold << 7 | fold >> 57) ^ w;
  }
  // Version is published last: a torn entry (words without the matching
  // version) can only exist below a version that still verifies.
  svm_.write<u64>(e, r.version);
  svm_.lock_release(lock_id(shard_of(key)));
  r.fold = fold;
  r.ok = true;
  r.count = 1;
  return r;
}

KvStore::OpResult KvStore::scan(u64 key, u32 len) {
  assert(key < cfg_.num_keys);
  const u32 shard = shard_of(key);
  const u64 start = key / shards_;
  OpResult r;
  r.ok = true;
  svm_.lock_acquire(lock_id(shard));
  for (u32 k = 0; k < len; ++k) {
    const u64 slot = (start + k) % keys_per_shard_;
    const u64 skey = slot * shards_ + shard;
    if (skey >= cfg_.num_keys) continue;  // ragged last shard
    const u64 e = base_ + static_cast<u64>(shard) * shard_bytes_ +
                  slot * entry_bytes_;
    const u64 version = svm_.read<u64>(e);
    u64 fold = 0;
    bool ok = version != 0;
    for (u32 i = 0; i < cfg_.value_words; ++i) {
      const u64 w = svm_.read<u64>(e + 8 * (1 + static_cast<u64>(i)));
      fold = (fold << 7 | fold >> 57) ^ w;
      ok = ok && w == value_word(cfg_.seed, skey, version, i);
    }
    r.ok = r.ok && ok;
    r.fold = (r.fold << 9 | r.fold >> 55) ^ fold;
    ++r.count;
  }
  svm_.lock_release(lock_id(shard));
  r.version = 0;  // a scan spans many versions; the fold is the witness
  return r;
}

}  // namespace msvm::serve
