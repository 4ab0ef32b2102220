#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/metrics.hpp"

namespace msvm::cluster {

namespace {

std::vector<std::vector<int>> resolve_groups(const ClusterConfig& cfg) {
  if (!cfg.domains.empty()) return cfg.domains;
  if (!cfg.members.empty()) return {cfg.members};
  std::vector<int> all;
  for (int i = 0; i < cfg.chip.num_cores; ++i) all.push_back(i);
  return {all};
}

std::vector<int> union_of(const std::vector<std::vector<int>>& groups) {
  std::vector<int> all;
  for (const auto& g : groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  assert(std::adjacent_find(all.begin(), all.end()) == all.end() &&
         "coherency domains must be disjoint");
  return all;
}

}  // namespace

Node::Node(scc::Core& core, const std::vector<int>& members, bool use_ipi,
           svm::SvmDomain& domain)
    : core_(core), members_(members) {
  kernel_ = std::make_unique<kernel::Kernel>(core_);
  kernel_->boot();
  mbox_ = std::make_unique<mbox::MailboxSystem>(*kernel_, use_ipi);
  mbox_->set_participants(members_);
  svm_ = std::make_unique<svm::Svm>(*kernel_, *mbox_, domain);
  rcce_ = std::make_unique<rcce::Rcce>(*kernel_, members_);

  sim::Watchdog& watchdog = core_.chip().watchdog();
  if (watchdog.enabled()) {
    // On a hang, contribute this core's SVM/protocol state and mailbox
    // tallies to the structured report (the closure outlives run():
    // nodes are owned by the Cluster, which outlives the chip run).
    watchdog.add_provider([this](std::string& out) {
      svm_->append_hang_report(out);
      const mbox::MailboxStats& ms = mbox_->stats();
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "core %d mbox: sent=%llu received=%llu inbox=%zu "
                    "sweep_recoveries=%llu\n",
                    core_.id(), static_cast<unsigned long long>(ms.sent),
                    static_cast<unsigned long long>(ms.received),
                    mbox_->inbox_depth(),
                    static_cast<unsigned long long>(ms.sweep_recoveries));
      out += buf;
    });
  }
}

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      groups_(resolve_groups(cfg_)),
      members_(union_of(groups_)),
      chip_(cfg_.chip) {
  const int num_slots = static_cast<int>(groups_.size());
  for (int slot = 0; slot < num_slots; ++slot) {
    domains_.push_back(std::make_unique<svm::SvmDomain>(
        chip_, cfg_.svm, groups_[static_cast<std::size_t>(slot)], slot,
        num_slots));
  }
  nodes_.resize(static_cast<std::size_t>(cfg_.chip.num_cores));
}

std::size_t Cluster::lost_members() const {
  if (chip_.dead_count() == 0) return 0;
  std::size_t n = 0;
  for (const int m : members_) {
    if (chip_.core_dead(m) && member_done_[static_cast<std::size_t>(m)] == 0)
      ++n;
  }
  return n;
}

void Cluster::run(Body body) {
  member_done_.assign(static_cast<std::size_t>(cfg_.chip.num_cores), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (const int core_id : groups_[g]) {
      chip_.spawn_program(core_id, [this, g, body](scc::Core& core) {
        auto& slot = nodes_[static_cast<std::size_t>(core.id())];
        slot = std::make_unique<Node>(core, groups_[g], cfg_.use_ipi,
                                      *domains_[g]);
        try {
          body(*slot);
        } catch (const svm::SvmDataLossError& e) {
          // A fail-stopped owner took this member's data with it. The
          // loss is already typed and attributed; record it and keep the
          // kernel alive to serve the survivors' protocol traffic. Any
          // other exception (including the scheduler's cancellation)
          // propagates untouched.
          failures_.push_back(MemberFailure{core.id(), e.page(), e.what()});
        }
        // The program is done, but this kernel must stay alive to serve
        // mailbox traffic (e.g. strong-model ownership requests from
        // cores still running) — exactly like the real MetalSVM kernel
        // idling in its interrupt loop. The last core wakes the idlers.
        // Members that fail-stopped mid-body never get here, so the
        // completion condition counts them via lost_members().
        member_done_[static_cast<std::size_t>(core.id())] = 1;
        ++done_count_;
        if (done_count_ + lost_members() >= members_.size()) {
          for (const int other : members_) {
            if (other != core.id() && !chip_.core_dead(other))
              core.raise_ipi(other);
          }
          return;
        }
        Node& node = *slot;
        sim::BlockScope scope(chip_.scheduler().current(), "cluster.idle",
                              static_cast<u64>(core.id()));
        std::size_t last_done = done_count_;
        std::size_t last_lost = lost_members();
        TimePs since = core.now();
        while (done_count_ + lost_members() < members_.size()) {
          if (done_count_ != last_done || lost_members() != last_lost) {
            // Progress elsewhere resets the idler's hang clock: idling
            // is only a hang when no member finishes (and no member
            // dies) for a whole limit.
            last_done = done_count_;
            last_lost = lost_members();
            since = core.now();
          }
          if (chip_.watchdog().check(core.now(), since, "cluster.idle",
                                     core.id())) {
            chip_.scheduler().block();  // parked until teardown
          }
          if (cfg_.use_ipi) {
            node.kernel().idle_once();
          } else {
            node.mbox().poll_all();
            core.yield();
          }
        }
      });
    }
  }
  chip_.run();

  if (obs::runtime_config().metrics) {
    // Fold the run's SVM/mailbox tallies into the process-wide registry
    // (named counters; the --metrics flag dumps them into BENCH_*.json).
    obs::MetricsRegistry& m = obs::global_metrics();
    for (const int c : members_) {
      // A member killed during boot never finished constructing its node.
      if (!nodes_[static_cast<std::size_t>(c)]) continue;
      obs::fold_fields(m, "svm", node(c).svm().stats(),
                       svm::proto::kSvmStatsFields);
      obs::fold_fields(m, "mailbox", node(c).mbox().stats(),
                       mbox::kMailboxStatsFields);
    }
  }
}

Node& Cluster::node(int core_id) {
  auto& n = nodes_.at(static_cast<std::size_t>(core_id));
  assert(n != nullptr && "node not booted (core is not a member?)");
  return *n;
}

}  // namespace msvm::cluster
