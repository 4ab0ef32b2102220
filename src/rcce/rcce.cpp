#include "rcce/rcce.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sccsim/addrmap.hpp"
#include "sccsim/chip.hpp"

namespace msvm::rcce {

namespace {
// Software cost of request bookkeeping per progress step.
constexpr u64 kProgressCycles = 40;
}  // namespace

Rcce::Rcce(kernel::Kernel& kernel, std::vector<int> members)
    : kernel_(kernel),
      core_(kernel.core()),
      members_(std::move(members)) {
  const scc::Chip& chip = core_.chip();
  const mbox::Layout layout = mbox::Layout::make(
      chip.topology().max_cores(), chip.config().mpb_bytes);
  const u32 n = static_cast<u32>(layout.max_cores);
  comm_off_ = layout.rcce_offset;
  sent_off_ = comm_off_ + kChunkBytes;
  ack_off_ = sent_off_ + n;
  arrive_off_ = ack_off_ + n;
  release_off_ = arrive_off_ + n;
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

void Rcce::wait_own_flag(u32 off, u8 v, const kernel::SpinWaitOpts& opts) {
  kernel::spin_wait(core_,
                    scc::WatchedWord::mpb_byte(mpb_paddr(core_.id(), off), v,
                                               &stats_.flag_polls),
                    opts);
}

// ---------------------------------------------------------------------------
// one-sided

void Rcce::put(int target_rank, u32 mpb_off, u64 src_vaddr, u32 bytes) {
  assert(mpb_off + bytes <= kChunkBytes);
  const int target_core = core_of(target_rank);
  u8 buf[256];
  while (bytes > 0) {
    const u32 seg = std::min<u32>(bytes, sizeof(buf));
    core_.vread(src_vaddr, buf, seg);
    core_.pwrite(mpb_paddr(target_core, comm_off_ + mpb_off), buf,
                 seg, scc::MemPolicy::kUncached);
    src_vaddr += seg;
    mpb_off += seg;
    bytes -= seg;
  }
}

void Rcce::get(u64 dst_vaddr, int source_rank, u32 mpb_off, u32 bytes) {
  assert(mpb_off + bytes <= kChunkBytes);
  const int source_core = core_of(source_rank);
  u8 buf[256];
  while (bytes > 0) {
    const u32 seg = std::min<u32>(bytes, sizeof(buf));
    core_.pread(mpb_paddr(source_core, comm_off_ + mpb_off), buf, seg,
                scc::MemPolicy::kUncached);
    core_.vwrite(dst_vaddr, buf, seg);
    dst_vaddr += seg;
    mpb_off += seg;
    bytes -= seg;
  }
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
  if (req.chunk_in_flight_) {
    // Has the receiver drained the previous chunk?
    if (mpb_read8(core_.id(),
                  ack_off_ + static_cast<u32>(dest_core)) == 1) {
      mpb_write8(core_.id(), ack_off_ + static_cast<u32>(dest_core),
                 0);
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
    u8 buf[256];
    u64 src = req.vaddr_ + req.progress_;
    u32 left = chunk;
    u32 off = comm_off_;
    while (left > 0) {
      const u32 seg = std::min<u32>(left, sizeof(buf));
      core_.vread(src, buf, seg);
      core_.pwrite(mpb_paddr(core_.id(), off), buf, seg,
                   scc::MemPolicy::kUncached);
      src += seg;
      off += seg;
      left -= seg;
    }
    mpb_write8(dest_core, sent_off_ + static_cast<u32>(core_.id()),
               1);
    ++stats_.chunks;
    req.chunk_in_flight_ = true;
    moved = true;
  }
  return moved;
}

bool Rcce::progress_recv(Request& req) {
  const int source_core = core_of(req.peer_rank_);
  if (mpb_read8(core_.id(),
                sent_off_ + static_cast<u32>(source_core)) != 1) {
    return false;
  }
  mpb_write8(core_.id(), sent_off_ + static_cast<u32>(source_core),
             0);
  const u32 chunk = std::min(kChunkBytes, req.bytes_ - req.progress_);
  u8 buf[256];
  u64 dst = req.vaddr_ + req.progress_;
  u32 left = chunk;
  u32 off = comm_off_;
  while (left > 0) {
    const u32 seg = std::min<u32>(left, sizeof(buf));
    core_.pread(mpb_paddr(source_core, off), buf, seg,
                scc::MemPolicy::kUncached);
    core_.vwrite(dst, buf, seg);
    dst += seg;
    off += seg;
    left -= seg;
  }
  // Tell the sender its buffer is free again.
  mpb_write8(source_core, ack_off_ + static_cast<u32>(core_.id()),
             1);
  req.progress_ += chunk;
  if (req.progress_ >= req.bytes_) req.done_ = true;
  return true;
}

void Rcce::wait(const RequestHandle& req) {
  while (!req->done_) {
    if (!progress()) core_.yield();
  }
}

void Rcce::wait_all(const std::vector<RequestHandle>& reqs) {
  for (const auto& r : reqs) wait(r);
}

// ---------------------------------------------------------------------------
// two-sided blocking

void Rcce::send(u64 src_vaddr, u32 bytes, int dest_rank) {
  wait(isend(src_vaddr, bytes, dest_rank));
}

void Rcce::recv(u64 dst_vaddr, u32 bytes, int source_rank) {
  wait(irecv(dst_vaddr, bytes, source_rank));
}

// ---------------------------------------------------------------------------
// collectives

void Rcce::barrier() {
  ++stats_.barriers;
  const u8 sense = barrier_sense_;
  barrier_sense_ = sense == 1 ? 2 : 1;
  const int master_core = core_of(0);
  kernel::SpinWaitOpts opts;
  opts.start_ps = 200 * kPsPerNs;
  opts.cap_ps = 50 * kPsPerUs;
  if (rank_ == 0) {
    // Gather: wait for every member's arrival byte to carry this sense.
    opts.site = "rcce.barrier_gather";
    for (int r = 1; r < size(); ++r) {
      opts.site_arg = static_cast<u64>(core_of(r));
      wait_own_flag(arrive_off_ + static_cast<u32>(core_of(r)), sense, opts);
    }
    // Release everyone.
    for (int r = 1; r < size(); ++r) {
      mpb_write8(core_of(r), release_off_, sense);
    }
  } else {
    mpb_write8(master_core,
               arrive_off_ + static_cast<u32>(core_.id()), sense);
    opts.site = "rcce.barrier_release";
    opts.site_arg = static_cast<u64>(master_core);
    wait_own_flag(release_off_, sense, opts);
  }
}

void Rcce::bcast(u64 vaddr, u32 bytes, int root_rank) {
  if (rank_ == root_rank) {
    for (int r = 0; r < size(); ++r) {
      if (r != root_rank) send(vaddr, bytes, r);
    }
  } else {
    recv(vaddr, bytes, root_rank);
  }
}


// ---------------------------------------------------------------------------
// reduction collectives

u64 Rcce::scratch_vaddr(u32 bytes) {
  if (scratch_bytes_ < bytes) {
    scratch_ = kernel_.kmalloc(bytes, 64);
    scratch_bytes_ = bytes;
  }
  return scratch_;
}

template <typename T>
void Rcce::reduce(u64 vaddr, u32 count, ReduceOp op, int root_rank) {
  const u32 bytes = count * static_cast<u32>(sizeof(T));
  if (rank_ != root_rank) {
    send(vaddr, bytes, root_rank);
    return;
  }
  const u64 tmp = scratch_vaddr(bytes);
  for (int r = 0; r < size(); ++r) {
    if (r == root_rank) continue;
    recv(tmp, bytes, r);
    for (u32 i = 0; i < count; ++i) {
      const T a = core_.vload<T>(vaddr + i * sizeof(T));
      const T b = core_.vload<T>(tmp + i * sizeof(T));
      T out = a;
      switch (op) {
        case ReduceOp::kSum:
          out = a + b;
          break;
        case ReduceOp::kMin:
          out = b < a ? b : a;
          break;
        case ReduceOp::kMax:
          out = a < b ? b : a;
          break;
      }
      core_.vstore<T>(vaddr + i * sizeof(T), out);
      core_.compute_cycles(3);
    }
  }
}

template <typename T>
void Rcce::allreduce(u64 vaddr, u32 count, ReduceOp op) {
  reduce<T>(vaddr, count, op, /*root_rank=*/0);
  bcast(vaddr, count * static_cast<u32>(sizeof(T)), /*root_rank=*/0);
}

template void Rcce::reduce<double>(u64, u32, Rcce::ReduceOp, int);
template void Rcce::reduce<u64>(u64, u32, Rcce::ReduceOp, int);
template void Rcce::reduce<i32>(u64, u32, Rcce::ReduceOp, int);
template void Rcce::allreduce<double>(u64, u32, Rcce::ReduceOp);
template void Rcce::allreduce<u64>(u64, u32, Rcce::ReduceOp);
template void Rcce::allreduce<i32>(u64, u32, Rcce::ReduceOp);

// ---------------------------------------------------------------------------
// data-movement collectives

void Rcce::gather(u64 src_vaddr, u32 bytes_each, u64 dst_vaddr,
                  int root_rank) {
  if (rank_ != root_rank) {
    send(src_vaddr, bytes_each, root_rank);
    return;
  }
  u8 buf[256];
  for (int r = 0; r < size(); ++r) {
    const u64 dst = dst_vaddr + static_cast<u64>(r) * bytes_each;
    if (r == root_rank) {
      // Local copy of the root's own contribution.
      u64 off = 0;
      while (off < bytes_each) {
        const u32 seg = std::min<u32>(bytes_each - off, sizeof(buf));
        core_.vread(src_vaddr + off, buf, seg);
        core_.vwrite(dst + off, buf, seg);
        off += seg;
      }
    } else {
      recv(dst, bytes_each, r);
    }
  }
}

void Rcce::scatter(u64 src_vaddr, u32 bytes_each, u64 dst_vaddr,
                   int root_rank) {
  u8 buf[256];
  if (rank_ != root_rank) {
    recv(dst_vaddr, bytes_each, root_rank);
    return;
  }
  for (int r = 0; r < size(); ++r) {
    const u64 src = src_vaddr + static_cast<u64>(r) * bytes_each;
    if (r == root_rank) {
      u64 off = 0;
      while (off < bytes_each) {
        const u32 seg = std::min<u32>(bytes_each - off, sizeof(buf));
        core_.vread(src + off, buf, seg);
        core_.vwrite(dst_vaddr + off, buf, seg);
        off += seg;
      }
    } else {
      send(src, bytes_each, r);
    }
  }
}

}  // namespace msvm::rcce
