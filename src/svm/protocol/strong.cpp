// StrongOwnerPolicy — the paper's Strong Memory Model (Section 6.1):
// "the Strong Memory Model has to retrieve the access permissions from
// the page owner" — for reads as much as writes, since at each point in
// time only one owner may access the page.
#include <cstdio>

#include "svm/protocol/policy.hpp"
#include "svm/protocol/recovery.hpp"

namespace msvm::svm::proto {

void StrongOwnerPolicy::fault(u64 page, u16 frame, bool is_write,
                              ProtocolEnv& env) {
  // Under single ownership every fault — read or write, mapping or
  // upgrade — resolves the same way: become the owner.
  (void)frame;
  (void)is_write;
  acquire_ownership(page, env);
}

void StrongOwnerPolicy::on_message(const Msg& m, ProtocolEnv& env) {
  if (m.type == MsgType::kOwnershipReq) {
    serve_ownership_request(m, env);
  }
  // OwnershipAck is consumed by wait_match() inside acquire_ownership;
  // one arriving here (poll-mode fallback race) is simply dropped.
}

void StrongOwnerPolicy::acquire_ownership(u64 page, ProtocolEnv& env) {
  ++env.stats().ownership_acquires;
  env.cost_cycles(kOwnershipSoftwareCycles);
  const u16 frame = env.meta().frame_of(page);

  // Fast path: we already own the page but hold no writable mapping of
  // it. Under read replication the directory word must also be clear —
  // a Shared page (even with an empty sharer set) needs the locked path
  // below to invalidate replicas and reset the state to Exclusive.
  env.irq_off();
  if (env.meta().owner(page) == env.self() &&
      (!read_replication_ || env.meta().dir_entry(page).none())) {
    env.map_page(page, frame, /*writable=*/true);
    transition(page, PageState::kOwnedRW, env);
    env.irq_on();
    return;
  }
  env.irq_on();

  // Serialise transfers of this page: with a free-for-all, a request can
  // chase an owner that keeps moving (three or more contenders forward
  // the mail around forever). While spinning — and while waiting for the
  // ACK below — incoming ownership requests keep being served through the
  // interrupt path, so the lock cannot deadlock the protocol.
  env.transfer_lock(page);

  // Write upgrade, step 1 (read replication): multicast invalidations to
  // every read replica and reset the directory to Exclusive. The sharer
  // set is frozen while we hold the transfer lock — joining it requires
  // the same lock.
  if (read_replication_) invalidate_sharers(page, env);

  u64 rounds = 0;
  for (;;) {
    if (++rounds % 1000 == 0) {
      char msg[128];
      std::snprintf(msg, sizeof(msg),
                    "acquire of page %llu not converging (round %llu, "
                    "owner=%u)",
                    static_cast<unsigned long long>(page),
                    static_cast<unsigned long long>(rounds),
                    env.meta().owner(page));
      env.warn(msg);
    }
    const u16 owner = env.meta().owner(page);
    if (poisoned(owner)) throw_poisoned(env, page, owner);
    if (owner == env.self()) {
      // The frame just changed hands: check it against the seal the
      // previous owner took at the handoff before trusting the data.
      // May poison and throw (lock released by the unwind).
      env.page_verify(page);
      // Close the window between learning we own the page and mapping
      // it: an incoming request handled in between would unmap it again.
      env.irq_off();
      if (env.meta().owner(page) == env.self()) {
        env.map_page(page, frame, /*writable=*/true);
        transition(page, PageState::kOwnedRW, env);
        env.irq_on();
        env.transfer_unlock(page);
        return;
      }
      env.irq_on();
      continue;
    }
    env.send(owner,
             Msg{MsgType::kOwnershipReq, page, env.self()});
    if (cfg_.ack_via_mail) {
      (void)env.wait_match(MsgType::kOwnershipAck, page);
      env.hw_count(HwEvent::kMailRoundtrip, 1);
    } else {
      // Prior-prototype scheme [14]: poll the off-die owner vector. This
      // is the "memory wall" behaviour the mailbox+ACK design removes.
      while (env.meta().owner(page) != static_cast<u16>(env.self())) {
        env.yield();
      }
    }
    // Loop re-verifies ownership and maps under masked interrupts.
  }
}

void StrongOwnerPolicy::serve_ownership_request(const Msg& m,
                                                ProtocolEnv& env) {
  const u64 page = m.page;
  const int requester = m.requester;
  env.cost_cycles(kOwnershipSoftwareCycles);
  const u16 owner = env.meta().owner(page);
  if (owner == requester) {
    // Transfer already happened (raced with a forward); just confirm.
    if (cfg_.ack_via_mail) {
      env.send(requester, Msg{MsgType::kOwnershipAck, page, 0});
    }
    return;
  }
  if (poisoned(owner)) return;  // no ACK: the requester throws
  if (owner != env.self()) {
    // We gave the page away before this request arrived: forward it to
    // the core we handed it to.
    ++env.stats().ownership_forwards;
    env.send(owner, m);
    return;
  }

  // The paper's transfer sequence (Section 6.1, steps 3-5): flush the
  // write-combine buffer, invalidate the tagged L1 entries, drop our
  // access permission, publish the new owner, send the acknowledgment.
  ++env.stats().ownership_serves;
  const Sabotage& sabotage = cfg_.sabotage;
  if (!sabotage.skip_serve_wcb_flush) env.flush_wcb();
  if (!sabotage.skip_serve_cl1invmb) env.cl1invmb();
  if (!sabotage.skip_serve_unmap) env.unmap_page(page);
  transition(page, PageState::kInvalid, env);
  // The WCB flush published our last writes: the frame in DRAM is now
  // the page. Seal it so the new owner can verify what it receives —
  // exclusive: we just unmapped and any sharers were invalidated before
  // the transfer, so nobody can read the frame before a verify.
  env.page_seal(page, /*exclusive=*/true);
  env.meta().set_owner(page, static_cast<u16>(requester));
  if (cfg_.ack_via_mail) {
    env.send(requester, Msg{MsgType::kOwnershipAck, page, 0});
  }
}

void StrongOwnerPolicy::invalidate_sharers(u64 page, ProtocolEnv& env) {
  const DirEntry entry = env.meta().dir_entry(page);
  if (entry.none()) return;
  SharerSet dests = entry.sharers;
  dests.clear(env.self());
  const int nshare = dests.count();
  if (nshare > 0) {
    env.multicast(dests, Msg{MsgType::kInval, page, env.self()});
    env.stats().invalidations_sent += static_cast<u64>(nshare);
    for (int i = 0; i < nshare; ++i) {
      (void)env.wait_match(MsgType::kInvalAck, page);
    }
    env.hw_count(HwEvent::kMailRoundtrip, 1);  // one multicast round
  }
  env.meta().clear_dir(page);  // Exclusive again
}

}  // namespace msvm::svm::proto
