#include "cluster/report.hpp"

#include <cstdarg>
#include <cstdio>

#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"

namespace msvm::cluster {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void append_core_row(std::string& out, const char* label,
                     const scc::CoreCounters& c,
                     const ReportOptions& options) {
  appendf(out, "%-8s", label);
  appendf(out, " busy %10.3f ms", ps_to_ms(c.busy_ps));
  if (options.memory) {
    appendf(out, " | ld %10llu st %10llu",
            static_cast<unsigned long long>(c.loads),
            static_cast<unsigned long long>(c.stores));
    const u64 l1 = c.l1_hits + c.l1_misses;
    appendf(out, " | L1 %5.1f%%",
            l1 ? 100.0 * static_cast<double>(c.l1_hits) /
                     static_cast<double>(l1)
               : 0.0);
    appendf(out, " L2hit %8llu",
            static_cast<unsigned long long>(c.l2_hits));
    appendf(out, " | DRAM r %8llu w %8llu wcb %7llu",
            static_cast<unsigned long long>(c.dram_reads),
            static_cast<unsigned long long>(c.dram_writes),
            static_cast<unsigned long long>(c.wcb_flushes));
  }
  appendf(out, " | flt %6llu ipi %5llu",
          static_cast<unsigned long long>(c.page_faults),
          static_cast<unsigned long long>(c.ipis_sent));
  out += '\n';
}

}  // namespace

std::string format_report(Cluster& cluster, const ReportOptions& options) {
  std::string out;
  appendf(out, "=== run report: %d member core(s), makespan %.3f ms ===\n",
          static_cast<int>(cluster.members().size()),
          ps_to_ms(cluster.makespan()));

  if (options.per_core) {
    for (const int c : cluster.members()) {
      char label[16];
      std::snprintf(label, sizeof(label), "core %2d", c);
      append_core_row(out, label, cluster.node(c).core().counters(),
                      options);
    }
  }
  append_core_row(out, "total", cluster.chip().total_counters(), options);

  if (options.svm) {
    // Table-driven aggregation: every SvmStats field sums, no hand-kept
    // field list to fall out of date.
    svm::SvmStats svm_total;
    scc::CoreCounters fault_total;
    for (const int c : cluster.members()) {
      const svm::SvmStats& s = cluster.node(c).svm().stats();
      for (const auto& f : svm::proto::kSvmStatsFields) {
        svm_total.*(f.member) += s.*(f.member);
      }
      fault_total += cluster.node(c).core().counters();
    }
    appendf(out,
            "svm: first-touch %llu, map %llu, own-acq %llu, own-serve "
            "%llu, fwd %llu, barriers %llu, locks %llu\n",
            static_cast<unsigned long long>(svm_total.first_touch_allocs),
            static_cast<unsigned long long>(svm_total.map_faults),
            static_cast<unsigned long long>(svm_total.ownership_acquires),
            static_cast<unsigned long long>(svm_total.ownership_serves),
            static_cast<unsigned long long>(svm_total.ownership_forwards),
            static_cast<unsigned long long>(svm_total.barriers),
            static_cast<unsigned long long>(svm_total.lock_acquires));
    appendf(out,
            "svm-fault: rd %llu, wr %llu, mail-rtt %llu, inval tx %llu "
            "rx %llu, replicas %llu, grants %llu, stall %.3f ms\n",
            static_cast<unsigned long long>(fault_total.svm_read_faults),
            static_cast<unsigned long long>(fault_total.svm_write_faults),
            static_cast<unsigned long long>(
                fault_total.svm_mail_roundtrips),
            static_cast<unsigned long long>(svm_total.invalidations_sent),
            static_cast<unsigned long long>(
                svm_total.invalidations_received),
            static_cast<unsigned long long>(svm_total.replica_installs),
            static_cast<unsigned long long>(svm_total.replica_grants),
            ps_to_ms(fault_total.svm_fault_stall_ps));
    if (svm_total.retransmits != 0 || svm_total.dup_acks_dropped != 0) {
      appendf(out, "svm-resilience: retransmits %llu, dup-acks dropped "
                   "%llu\n",
              static_cast<unsigned long long>(svm_total.retransmits),
              static_cast<unsigned long long>(svm_total.dup_acks_dropped));
    }
  }

  if (options.svm_trace) {
    for (const int c : cluster.members()) {
      const obs::EventRing& ring = cluster.node(c).svm().trace();
      if (ring.recorded() == 0) continue;
      appendf(out, "svm-trace core %d (%llu event(s), newest last):\n", c,
              static_cast<unsigned long long>(ring.recorded()));
      out += svm::proto_trace_dump(ring, "  ", options.svm_trace_events);
    }
  }

  if (options.mailbox) {
    mbox::MailboxStats total;
    for (const int c : cluster.members()) {
      const mbox::MailboxStats& m = cluster.node(c).mbox().stats();
      for (const auto& f : mbox::kMailboxStatsFields) {
        total.*(f.member) += m.*(f.member);
      }
    }
    appendf(out, "mailbox: sent %llu, received %llu, slot checks %llu\n",
            static_cast<unsigned long long>(total.sent),
            static_cast<unsigned long long>(total.received),
            static_cast<unsigned long long>(total.slot_checks));
    appendf(out,
            "mailbox-stall: send stalls %llu (%.3f ms), recv wait "
            "%.3f ms, sweep recoveries %llu\n",
            static_cast<unsigned long long>(total.send_stalls),
            ps_to_ms(total.send_stall_ps), ps_to_ms(total.recv_wait_ps),
            static_cast<unsigned long long>(total.sweep_recoveries));
  }

  if (options.heatmap && !obs::global_heatmap().empty()) {
    appendf(out, "svm-heatmap (top %zu page(s) by activity):\n",
            options.heatmap_top);
    out += obs::global_heatmap().table(options.heatmap_top, "  ");
  }

  if (options.metrics && !obs::global_metrics().empty()) {
    out += "metrics:\n";
    for (const auto& [name, value] : obs::global_metrics().counters()) {
      appendf(out, "  %-32s %llu\n", name.c_str(),
              static_cast<unsigned long long>(value));
    }
    for (const auto& [name, h] : obs::global_metrics().histograms()) {
      appendf(out, "  %-32s n=%llu mean=%g p50=%llu p95=%llu\n",
              name.c_str(), static_cast<unsigned long long>(h.count()),
              h.mean(), static_cast<unsigned long long>(h.p50()),
              static_cast<unsigned long long>(h.p95()));
    }
  }
  return out;
}

}  // namespace msvm::cluster
