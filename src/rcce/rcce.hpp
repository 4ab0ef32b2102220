// Reimplementation of the slice of RCCE/iRCCE that the paper's
// message-passing baseline uses (Figure 9's "iRCCE variant"): the iRCCE
// non-blocking isend/irecv with its progress engine, plus RCCE's barrier.
//
// RCCE (Mattson & van der Wijngaart) is Intel's bare-metal communication
// library for the SCC. The two-sided protocol is the classic MPB pipeline:
// the sender copies a chunk into its *own* MPB communication buffer and
// raises a `sent` flag in the receiver's MPB; the receiver copies the
// chunk out of the sender's MPB and raises an `ack` flag back in the
// sender's MPB. Flags are always *polled locally* (each side spins on a
// flag inside its own MPB), which is what made RCCE efficient on the SCC.
//
// iRCCE makes isend/irecv non-blocking with a progress engine; both sides
// must still drive the transfer ("working coevally in a non-blocking but
// synchronizing manner", Section 5) — the asynchrony the mailbox system
// adds is exactly what this layer lacks, which is the paper's argument
// for building the mailbox at all.
//
// The RCCE share of each MPB (communication buffer, sent/ack flags and
// barrier bytes) is part of the one MPB carve, scc::MpbLayout.
#pragma once

#include <cassert>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "kernel/kernel.hpp"
#include "sccsim/addrmap.hpp"
#include "sim/types.hpp"

namespace msvm::rcce {

/// One in-flight chunk fills the sender's communication buffer.
inline constexpr u32 kChunkBytes = scc::MpbLayout::kRcceCommBytes;

struct RcceStats {
  u64 sends = 0;
  u64 recvs = 0;
  u64 bytes_sent = 0;
  u64 bytes_received = 0;
  u64 chunks = 0;
  u64 barriers = 0;
  u64 flag_polls = 0;
};

/// Per-core RCCE endpoint over a communication domain (a list of member
/// cores, identical on every participant; rank = index in that list).
class Rcce {
 public:
  Rcce(kernel::Kernel& kernel, std::vector<int> members);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  int core_of(int rank) const {
    return members_[static_cast<std::size_t>(rank)];
  }

  // ---- iRCCE non-blocking point-to-point ----

  class Request {
   public:
    bool done() const { return done_; }

   private:
    friend class Rcce;
    bool is_send_ = false;
    int peer_rank_ = -1;  // dest for send, source for recv
    u64 vaddr_ = 0;
    u32 bytes_ = 0;
    u32 progress_ = 0;  // bytes fully transferred
    bool active_ = false;  // head of its channel queue
    bool chunk_in_flight_ = false;  // send: chunk deposited, awaiting ack
    bool done_ = false;
  };

  using RequestHandle = std::shared_ptr<Request>;

  RequestHandle isend(u64 src_vaddr, u32 bytes, int dest_rank);
  RequestHandle irecv(u64 dst_vaddr, u32 bytes, int source_rank);

  /// Advances every in-flight request as far as currently possible
  /// without blocking. Returns true if any progress was made.
  bool progress();

  /// Blocks (driving progress and yielding) until `req` completes.
  void wait(const RequestHandle& req);

  /// Waits for all listed requests.
  void wait_all(const std::vector<RequestHandle>& reqs);

  /// Master-gather / release barrier with sense reversal, flags in MPB.
  void barrier();

  const RcceStats& stats() const { return stats_; }

 private:
  u64 mpb_paddr(int core, u32 off) const;
  u8 mpb_read8(int core, u32 off);
  void mpb_write8(int core, u32 off, u8 v);

  // Progress sub-steps; return true when they moved a request forward.
  bool progress_send(Request& req);
  bool progress_recv(Request& req);
  /// Copies `bytes` between local virtual memory at `vaddr` and the MPB
  /// at `mpb` through a 256-byte bounce buffer: into the MPB when
  /// `to_mpb`, out of it otherwise.
  void copy_chunk(u64 vaddr, u64 mpb, u32 bytes, bool to_mpb);
  void activate_heads();

  /// Aborts with a message unless `peer_rank` names another member.
  void check_peer(int peer_rank, const char* op) const;

  scc::Core& core_;
  std::vector<int> members_;
  int rank_ = -1;
  RcceStats stats_;

  // FIFO of pending sends (they share the single comm buffer) and of
  // pending receives per source rank (channel order must match). Only
  // channels with a pending receive have an entry; the map iterates in
  // source-rank order, which is the order progress() serves them in.
  std::deque<RequestHandle> send_queue_;
  std::map<int, std::deque<RequestHandle>> recv_queues_;
  u8 barrier_sense_ = 1;
};

}  // namespace msvm::rcce
