// ReadReplicationPolicy — the read-replication directory protocol
// (SvmConfig::read_replication).
//
// The owner vector is extended by a per-page directory entry holding the
// sharer set and the Exclusive/Shared state (layout: kDirSharedBit). All
// directory transitions happen under the page's transfer lock, except the
// Exclusive->Shared downgrade the owner performs on behalf of the lock
// holder while serving its read request.
#include "svm/protocol/policy.hpp"
#include "svm/protocol/recovery.hpp"

namespace msvm::svm::proto {

void ReadReplicationPolicy::fault(u64 page, u16 frame, bool is_write,
                                  ProtocolEnv& env) {
  if (!is_write) {
    // Read-replication fast path: a read fault joins the sharer set
    // (one grant round-trip at most) instead of moving ownership.
    acquire_read_replica(page, frame, env);
    return;
  }
  acquire_ownership(page, env);
}

void ReadReplicationPolicy::on_message(const Msg& m, ProtocolEnv& env) {
  switch (m.type) {
    case MsgType::kOwnershipReq:
      serve_ownership_request(m, env);
      return;
    case MsgType::kReadReq:
      serve_read_request(m, env);
      return;
    case MsgType::kInval:
      serve_invalidation(m, env);
      return;
    default:
      // ACK types are consumed by wait_match() inside the acquire flows.
      return;
  }
}

void ReadReplicationPolicy::acquire_read_replica(u64 page, u16 frame,
                                                 ProtocolEnv& env) {
  env.cost_cycles(kOwnershipSoftwareCycles);

  // Fast path: we are the exclusive owner — remap writable without any
  // protocol traffic (mirrors the ownership fast path).
  env.irq_off();
  if (env.meta().owner(page) == env.self() &&
      env.meta().dir_entry(page).none()) {
    env.map_page(page, frame, /*writable=*/true);
    transition(page, PageState::kOwnedRW, env);
    env.irq_on();
    return;
  }
  env.irq_on();

  // The transfer lock serialises directory transitions of this page:
  // while we hold it no write upgrade can invalidate the replica we are
  // about to install, and no other reader can race our sharer update.
  env.transfer_lock(page);

  for (;;) {
    const u16 owner = env.meta().owner(page);
    if (poisoned(owner)) throw_poisoned(env, page, owner);
    if (owner == env.self()) {
      // We own the page after all (a transfer raced ahead of the
      // fault). Shared: our mapping was downgraded — stay read-only so
      // the sharer invariants hold; Exclusive: map writable.
      env.irq_off();
      if (env.meta().owner(page) == env.self()) {
        const bool shared = env.meta().dir_entry(page).shared;
        env.map_page(page, frame, /*writable=*/!shared);
        transition(page,
                   shared ? PageState::kSharedRO : PageState::kOwnedRW,
                   env);
        env.irq_on();
        env.transfer_unlock(page);
        return;
      }
      env.irq_on();
      continue;
    }
    DirEntry entry = env.meta().dir_entry(page);
    if (entry.shared) {
      // Already Shared: the owner flushed its WCB when the state was
      // entered and cannot have written since (its mapping is read-only),
      // so the frame is clean in DRAM — join the sharer set without
      // contacting anyone. Verify the frame against the downgrade seal
      // before trusting it (may poison and throw). Stale MPBT lines from
      // an earlier ownership of this page must not shadow the fresh
      // data.
      env.page_verify(page);
      entry.sharers.set(env.self());
      env.meta().store_dir_entry(page, entry);
      env.cl1invmb();
      env.map_page(page, frame, /*writable=*/false);
      transition(page, PageState::kSharedRO, env);
      ++env.stats().replica_installs;
      env.transfer_unlock(page);
      return;
    }
    // Exclusive at a remote owner: one grant round-trip downgrades the
    // owner to Shared. No ownership transfer, no CL1INVMB on the owner.
    env.send(owner, Msg{MsgType::kReadReq, page, env.self()});
    (void)env.wait_match(MsgType::kReadAck, page);
    env.hw_count(HwEvent::kMailRoundtrip, 1);
    // Loop: the ACK normally means the Shared bit is now set; re-check
    // in case the request chased a stale owner.
  }
}

void ReadReplicationPolicy::serve_read_request(const Msg& m,
                                               ProtocolEnv& env) {
  const u64 page = m.page;
  const int requester = m.requester;
  env.cost_cycles(kOwnershipSoftwareCycles);
  const u16 owner = env.meta().owner(page);
  if (owner == requester) {
    // A forward raced with an ownership transfer to the requester
    // itself; just confirm so its wait terminates.
    env.send(requester, Msg{MsgType::kReadAck, page, 0});
    return;
  }
  if (poisoned(owner)) return;  // no ACK: the requester throws
  if (owner != env.self()) {
    // We gave the page away before this request arrived: chase the
    // current owner.
    ++env.stats().ownership_forwards;
    env.send(owner, m);
    return;
  }
  // Exclusive -> Shared: publish our writes and downgrade our own
  // mapping so a later local write takes the upgrade path. Our L1 is
  // write-through — it holds nothing newer than the WCB flush, so no
  // CL1INVMB is needed (the saving over a full ownership transfer).
  ++env.stats().replica_grants;
  env.flush_wcb();
  // Frame now clean in DRAM; seal it for the replicas about to read it.
  // Not exclusive: we stay mapped read-only, so this seal is verify-
  // only — the injector must not target it.
  env.page_seal(page, /*exclusive=*/false);
  env.downgrade_page(page);
  transition(page, PageState::kSharedRO, env);
  DirEntry entry = env.meta().dir_entry(page);
  entry.shared = true;
  env.meta().store_dir_entry(page, entry);
  env.send(requester, Msg{MsgType::kReadAck, page, 0});
}

void ReadReplicationPolicy::serve_invalidation(const Msg& m,
                                               ProtocolEnv& env) {
  const u64 page = m.page;
  const int requester = m.requester;
  env.cost_cycles(kOwnershipSoftwareCycles);
  ++env.stats().invalidations_received;
  // Drop the replica mapping and its cached lines: the replica is
  // read-only and MPBT-typed, so CL1INVMB discards exactly the lines a
  // future re-read must fetch fresh.
  env.unmap_page(page);
  transition(page, PageState::kInvalid, env);
  env.cl1invmb();
  env.send(requester, Msg{MsgType::kInvalAck, page, 0});
}

}  // namespace msvm::svm::proto
