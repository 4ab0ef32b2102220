#include "svm/protocol/recovery.hpp"

namespace msvm::svm::proto {

RecoveryAction recover_page(ProtocolEnv& env, u64 page,
                            const SharerSet& dead, bool owner_died_dirty,
                            bool has_directory) {
  MetaWord& meta = env.meta();
  ++env.stats().recoveries;
  // Modelled cost of the repair walk itself; the metadata loads and
  // stores below additionally pay their real simulated latencies.
  env.cost_cycles(400);

  // Prune dead sharers: their read-only replicas died with them, and a
  // later write upgrade must not wait for an InvalAck no one will send.
  DirEntry entry(meta.dir_width());
  bool entry_changed = false;
  if (has_directory) {
    entry = meta.dir_entry(page);
    dead.for_each([&](int d) {
      if (entry.sharers.test(d)) {
        entry.sharers.clear(d);
        entry_changed = true;
        ++env.stats().sharers_pruned;
      }
    });
  }

  const u16 owner = meta.owner(page);
  RecoveryAction action =
      entry_changed ? RecoveryAction::kPruned : RecoveryAction::kNone;
  if (owner != kOwnerLost && dead.test(static_cast<int>(owner))) {
    if (owner_died_dirty) {
      // The owner's write-combine buffer died holding a line of this
      // frame: earlier lines of the same burst may already be in DRAM,
      // the last one is gone — the frame must be presumed torn. Poison
      // the owner word; every later access throws SvmDataLossError.
      meta.set_owner(page, kOwnerLost);
      if (has_directory && !entry.none()) {
        entry = DirEntry(meta.dir_width());
        entry_changed = true;
      }
      ++env.stats().pages_lost;
      action = RecoveryAction::kLost;
    } else {
      // Clean death: the write-through L1 published every write the
      // owner ever made except the (empty) WCB, so the DRAM frame is
      // exactly the owner's last released state. Elect the lowest-id
      // surviving sharer — its replica already mirrors that frame — or
      // fall back to the recovering core, which re-reads from DRAM.
      int elected = -1;
      entry.sharers.for_each([&](int s) {
        if (elected < 0) elected = s;
      });
      if (elected >= 0) {
        // The directory never lists the owner; the elected core keeps
        // its read-only mapping (the entry stays Shared), so its next
        // write takes the ordinary upgrade path.
        entry.sharers.clear(elected);
        entry_changed = true;
        ++env.stats().pages_rehomed;
        action = RecoveryAction::kRehomed;
      } else {
        elected = env.self();
        ++env.stats().pages_refetched;
        action = RecoveryAction::kRefetched;
      }
      meta.set_owner(page, static_cast<u16>(elected));
    }
  }
  if (entry_changed) meta.store_dir_entry(page, entry);
  return action;
}

}  // namespace msvm::svm::proto
