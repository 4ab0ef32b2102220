// The served-traffic tier: every member core is both a client (an
// open-loop generator issuing GET/PUT/SCAN against the sharded KV
// store) and a server (executing requests for the shards it homes).
//
// Request framing over the mailbox layer:
//
//   kMailKvReq   arg16 = op | scan_len<<2      p0=key  p1=reqid
//   kMailKvAck   arg16 = status                p0=reqid p1=version/count
//                                              p2=fold
//
// A request is routed to its shard's home core; the home executes the
// op against SVM under the shard's TAS lock and replies with the
// version and value fold. The client verifies the fold against the
// self-verifying value scheme (KvStore::value_fold), so a wrong answer
// anywhere in the stack is *detected*, never absorbed. Latency is
// captured per request from intended arrival (open loop — queueing
// delay counts) to reply, into a serve::LatencyHisto.
//
// The tier is deliberately barrier-free after construction: a home that
// fail-stops mid-run can never wedge the survivors at a rendezvous.
// Clients fail fast on presumed-dead homes (typed shed), time out on
// unanswered requests (typed timeout), and optionally retransmit —
// under kill/fault campaigns the contract is graceful degradation:
// fewer completions, zero wrong responses, zero hangs.
#pragma once

#include <vector>

#include "cluster/cluster.hpp"
#include "serve/kv_store.hpp"
#include "serve/latency_histo.hpp"
#include "serve/workload_gen.hpp"
#include "sim/faults.hpp"

namespace msvm::serve {

/// Mail types of the KV request/reply framing (SVM protocol mails own
/// 0x20..0x25; the serving tier starts at 0x30).
inline constexpr u8 kMailKvReq = 0x30;
inline constexpr u8 kMailKvAck = 0x31;

/// kMailKvAck status values.
inline constexpr u16 kKvStatusOk = 0;
inline constexpr u16 kKvStatusCorrupt = 1;  // server-side verify failed

struct KvServingParams {
  KvConfig store;
  GenConfig gen;
  /// Virtual-time budget after the load window for in-flight requests
  /// to drain before the run ends.
  TimePs drain_ps = 500 * kPsPerUs;
  /// Client-side request timeout (from issue to reply).
  TimePs timeout_ps = 200 * kPsPerUs;
  /// Retransmissions after a timeout before declaring the request lost.
  u32 retries = 1;
  /// In-flight requests per client; arrivals beyond this queue (open
  /// loop: their waiting time is measured, not elided).
  u32 max_outstanding = 4;

  /// Common virtual-time instant (from simulation start) at which every
  /// core begins issuing; arrivals and latency are measured against it.
  /// Cores finishing store init early relax until the epoch — a *time*
  /// rendezvous, not a barrier, so a core that dies during init can
  /// never wedge the survivors. Must comfortably cover construction +
  /// init (a late core starts late and is counted in late_starts).
  /// Init is dominated by first-touch faults on the shard pages, which
  /// convoy through the directory homes' single-slot channels: at 48
  /// cores the slowest home is ready at ~11 ms.
  TimePs start_epoch_ps = 16 * kPsPerMs;

  u64 seed = 42;
  bool read_replication = false;
  bool use_ipi = true;
  sim::FaultPlan faults;
};

struct KvServingResult {
  // Client side.
  u64 issued = 0;       // requests handed to the transport (or run locally)
  u64 completed = 0;    // replies received (wrong ones included)
  u64 completed_in_window = 0;  // ... before the load window closed
  u64 wrong = 0;        // fold/status mismatches — contract violations
  u64 timeouts = 0;     // no reply within timeout after all retries
  u64 dead_shed = 0;    // failed fast: home presumed dead
  u64 unfinished = 0;   // still queued or in flight when the run ended
  u64 retransmits = 0;
  u64 stale_acks = 0;   // replies that arrived after their request retired
  u64 gets = 0, puts = 0, scans = 0;

  // Server side.
  u64 served_ops = 0;   // ops executed for remote clients
  u64 local_ops = 0;    // ops a client ran against its own shard
  u64 acks_dropped = 0; // replies undeliverable (dead/stuck requester)

  /// Merged request-latency histogram (picoseconds), intended-arrival
  /// to completion.
  LatencyHisto latency;

  /// completed_in_window / load-window seconds, summed over all cores
  /// (the tier's sustained goodput in requests per virtual second;
  /// drain-window completions are excluded so a saturated run reports
  /// capacity, not the offered rate).
  double goodput_rps = 0;

  /// Cores whose init overran the start epoch (they begin late; their
  /// early requests absorb the delay as measured queueing latency).
  int late_starts = 0;

  // Fail-stop bookkeeping (kill campaigns).
  int ranks_lost = 0;
  std::vector<cluster::Cluster::MemberFailure> failures;
  u64 recoveries = 0;
  u64 pages_lost = 0;

  TimePs makespan = 0;
};

/// Runs the serving tier on `num_cores` cores under `model`; propagates
/// sim::HangError (the caller decides what a hang means for the run).
KvServingResult run_kv_serving(const KvServingParams& p, svm::Model model,
                               int num_cores);

}  // namespace msvm::serve
