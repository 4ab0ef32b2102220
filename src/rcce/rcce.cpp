#include "rcce/rcce.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "sccsim/addrmap.hpp"
#include "sccsim/chip.hpp"

namespace msvm::rcce {

namespace {
// Software cost of request bookkeeping per progress step.
constexpr u64 kProgressCycles = 40;
}  // namespace

Rcce::Rcce(kernel::Kernel& kernel, std::vector<int> members)
    : core_(kernel.core()),
      members_(std::move(members)) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == core_.id()) rank_ = static_cast<int>(i);
  }
  assert(rank_ >= 0 && "this core is not a member of the RCCE domain");
}

u64 Rcce::mpb_paddr(int core, u32 off) const {
  return core_.chip().map().mpb_base(core) + off;
}

u8 Rcce::mpb_read8(int core, u32 off) {
  ++stats_.flag_polls;
  return core_.pload<u8>(mpb_paddr(core, off), scc::MemPolicy::kUncached);
}

void Rcce::mpb_write8(int core, u32 off, u8 v) {
  core_.pstore<u8>(mpb_paddr(core, off), v, scc::MemPolicy::kUncached);
}

// ---------------------------------------------------------------------------
// iRCCE requests & progress engine

void Rcce::check_peer(int peer_rank, const char* op) const {
  if (peer_rank >= 0 && peer_rank < size() && peer_rank != rank_) return;
  std::fprintf(stderr,
               "msvm::rcce::Rcce: %s peer rank %d is not another member "
               "(rank %d of %d)\n",
               op, peer_rank, rank_, size());
  std::abort();
}

Rcce::RequestHandle Rcce::isend(u64 src_vaddr, u32 bytes, int dest_rank) {
  check_peer(dest_rank, "isend");
  auto req = std::make_shared<Request>();
  req->is_send_ = true;
  req->peer_rank_ = dest_rank;
  req->vaddr_ = src_vaddr;
  req->bytes_ = bytes;
  ++stats_.sends;
  stats_.bytes_sent += bytes;
  send_queue_.push_back(req);
  activate_heads();
  progress();
  return req;
}

Rcce::RequestHandle Rcce::irecv(u64 dst_vaddr, u32 bytes,
                                int source_rank) {
  check_peer(source_rank, "irecv");
  auto req = std::make_shared<Request>();
  req->is_send_ = false;
  req->peer_rank_ = source_rank;
  req->vaddr_ = dst_vaddr;
  req->bytes_ = bytes;
  ++stats_.recvs;
  stats_.bytes_received += bytes;
  recv_queues_[source_rank].push_back(req);
  activate_heads();
  progress();
  return req;
}

void Rcce::activate_heads() {
  // The single comm buffer serialises sends: only the queue head may use
  // it. Receives are per-source channels: each head is active.
  if (!send_queue_.empty()) send_queue_.front()->active_ = true;
  for (auto& [source, q] : recv_queues_) q.front()->active_ = true;
}

bool Rcce::progress() {
  core_.compute_cycles(kProgressCycles);
  bool moved = false;
  if (!send_queue_.empty() && progress_send(*send_queue_.front())) {
    moved = true;
    if (send_queue_.front()->done_) send_queue_.pop_front();
  }
  for (auto it = recv_queues_.begin(); it != recv_queues_.end();) {
    std::deque<RequestHandle>& q = it->second;
    if (progress_recv(*q.front())) {
      moved = true;
      if (q.front()->done_) q.pop_front();
    }
    it = q.empty() ? recv_queues_.erase(it) : std::next(it);
  }
  activate_heads();
  return moved;
}

bool Rcce::progress_send(Request& req) {
  bool moved = false;
  const int dest_core = core_of(req.peer_rank_);
  const scc::MpbLayout& mpb = core_.chip().map().layout();
  if (req.chunk_in_flight_) {
    // Has the receiver drained the previous chunk?
    if (mpb_read8(core_.id(), mpb.rcce_ack + static_cast<u32>(dest_core)) ==
        1) {
      mpb_write8(core_.id(), mpb.rcce_ack + static_cast<u32>(dest_core), 0);
      const u32 chunk =
          std::min(kChunkBytes, req.bytes_ - req.progress_);
      req.progress_ += chunk;
      req.chunk_in_flight_ = false;
      moved = true;
      if (req.progress_ >= req.bytes_) {
        req.done_ = true;
        return true;
      }
    } else {
      return false;
    }
  }
  if (!req.chunk_in_flight_ && req.progress_ < req.bytes_) {
    // Deposit the next chunk into our own MPB buffer and flag the peer.
    const u32 chunk = std::min(kChunkBytes, req.bytes_ - req.progress_);
    copy_chunk(req.vaddr_ + req.progress_, mpb_paddr(core_.id(), mpb.rcce_comm),
               chunk, /*to_mpb=*/true);
    mpb_write8(dest_core, mpb.rcce_sent + static_cast<u32>(core_.id()), 1);
    ++stats_.chunks;
    req.chunk_in_flight_ = true;
    moved = true;
  }
  return moved;
}

bool Rcce::progress_recv(Request& req) {
  const int source_core = core_of(req.peer_rank_);
  const scc::MpbLayout& mpb = core_.chip().map().layout();
  if (mpb_read8(core_.id(), mpb.rcce_sent + static_cast<u32>(source_core)) !=
      1) {
    return false;
  }
  mpb_write8(core_.id(), mpb.rcce_sent + static_cast<u32>(source_core), 0);
  const u32 chunk = std::min(kChunkBytes, req.bytes_ - req.progress_);
  copy_chunk(req.vaddr_ + req.progress_, mpb_paddr(source_core, mpb.rcce_comm),
             chunk, /*to_mpb=*/false);
  // Tell the sender its buffer is free again.
  mpb_write8(source_core, mpb.rcce_ack + static_cast<u32>(core_.id()), 1);
  req.progress_ += chunk;
  if (req.progress_ >= req.bytes_) req.done_ = true;
  return true;
}

void Rcce::copy_chunk(u64 vaddr, u64 mpb, u32 bytes, bool to_mpb) {
  u8 buf[256];
  while (bytes > 0) {
    const u32 seg = std::min<u32>(bytes, sizeof(buf));
    if (to_mpb) {
      core_.vread(vaddr, buf, seg);
      core_.pwrite(mpb, buf, seg, scc::MemPolicy::kUncached);
    } else {
      core_.pread(mpb, buf, seg, scc::MemPolicy::kUncached);
      core_.vwrite(vaddr, buf, seg);
    }
    vaddr += seg;
    mpb += seg;
    bytes -= seg;
  }
}

void Rcce::wait(const RequestHandle& req) {
  sim::BlockScope scope(core_.chip().scheduler().current(), "rcce.wait",
                        static_cast<u64>(req->peer_rank_), req->bytes_);
  TimePs since = core_.now();
  while (!req->done_) {
    if (progress()) {
      since = core_.now();  // a wait is a hang only while nothing moves
      continue;
    }
    if (core_.chip().watchdog().check(core_.now(), since, "rcce.wait",
                                      core_.id())) {
      core_.chip().scheduler().block();  // parked until teardown
    }
    core_.yield();
  }
}

void Rcce::wait_all(const std::vector<RequestHandle>& reqs) {
  for (const auto& r : reqs) wait(r);
}

// ---------------------------------------------------------------------------
// barrier

void Rcce::barrier() {
  ++stats_.barriers;
  const scc::MpbLayout& mpb = core_.chip().map().layout();
  kernel::master_gather_barrier(
      core_, members_, barrier_sense_,
      {mpb.rcce_arrive, mpb.rcce_release, "rcce.barrier_gather",
       "rcce.barrier_release", &stats_.flag_polls});
}

}  // namespace msvm::rcce
