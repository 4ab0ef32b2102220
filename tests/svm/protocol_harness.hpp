// Deterministic protocol harness — the second ProtocolEnv implementation
// (next to svm::Svm): no fibers, no chip, no mailboxes. N policy
// instances share a plain metadata store and a byte-addressed memory
// model; protocol messages travel through per-core inboxes that the
// harness drains *deterministically* (lowest core id first) whenever a
// policy blocks in wait_match()/yield(). Scripted interleavings — a
// request already in flight, a duplicate invalidation, a release
// happening after a stale acquire — become table-driven unit tests.
//
// The memory model is the part that makes sabotage observable: each core
// has a write-combine buffer (dirty bytes, published by flush_wcb) and an
// L1 overlay (filled by reads, dropped by cl1invmb) over one shared
// memory map. Skipping a protocol step therefore produces *wrong data*,
// not just a missing counter — the same evidence the full-simulator
// sabotage tests rely on, at unit-test cost.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "svm/protocol/policy.hpp"

namespace msvm::svm::harness {

using proto::Msg;
using proto::MsgType;
using proto::PageState;
using proto::PolicyConfig;
using proto::u16;
using proto::u64;
using proto::u8;

/// Tiny pages keep test addresses readable: page p covers
/// [p * kPageBytes, (p + 1) * kPageBytes).
inline constexpr u64 kPageBytes = 64;

enum class Model { kStrong, kReadReplication, kLrc };

/// Thrown when an access cannot be resolved (still unmapped / read-only
/// after the policy ran) or when the scripted system deadlocks (a policy
/// blocks with no pending message anywhere).
struct HarnessError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Unbounded per-core event log — the harness's TraceSink backing store.
/// Tests inspect the raw events or a text dump (one to_string'd event
/// per line, each prefixed with `prefix`).
struct TraceLog {
  std::vector<proto::TraceEvent> events;

  void record(const proto::TraceEvent& e) { events.push_back(e); }
  std::size_t size() const { return events.size(); }

  std::string dump(const char* prefix = "  ") const {
    std::string out;
    for (const proto::TraceEvent& e : events) {
      out += prefix;
      out += proto::to_string(e);
      out += '\n';
    }
    return out;
  }
};

class Harness final : public proto::MetaStore {
 public:
  Harness(int num_cores, Model model, PolicyConfig cfg = {})
      : model_(model) {
    cores_.reserve(static_cast<std::size_t>(num_cores));
    for (int id = 0; id < num_cores; ++id) {
      cores_.push_back(
          std::make_unique<Core>(*this, id, num_cores, model, cfg));
    }
  }

  // ---- scenario setup ------------------------------------------------

  /// Registers a page: frame number in the scratchpad, initial owner in
  /// the owner vector, and a writable mapping + OwnedRW state on the
  /// owner (as if it first-touched the page).
  void seed_page(u64 page, int owner) {
    scratchpad_[page] = static_cast<u16>(page + 1);  // any nonzero frame
    owner_[page] = static_cast<u16>(owner);
    dir_[page] = 0;
    Core& c = core(owner);
    c.pt[page] = Mapping{true};
    c.policy->note_mapped(page, /*writable=*/true, *c.env);
  }

  /// Queues a message into `dest`'s inbox without dispatching it — the
  /// "already in flight" ingredient of scripted races.
  void inject(int dest, const Msg& m) { core(dest).inbox.push_back(m); }

  /// Drops a core's mapping without telling its policy (a page-table
  /// change from outside the protocol).
  void drop_mapping(int id, u64 page) { core(id).pt.erase(page); }

  // ---- application-level accesses (fault on demand) ------------------

  u8 read(int id, u64 addr) {
    access(id, addr, /*is_write=*/false);
    Core& c = core(id);
    if (const auto wcb = c.wcb.find(addr); wcb != c.wcb.end()) {
      return wcb->second;
    }
    if (const auto l1 = c.l1.find(addr); l1 != c.l1.end()) {
      return l1->second;
    }
    const u8 v = mem_value(addr);
    c.l1[addr] = v;  // read fills the cache
    return v;
  }

  void write(int id, u64 addr, u8 value) {
    access(id, addr, /*is_write=*/true);
    Core& c = core(id);
    c.wcb[addr] = value;
    // The L1 is write-through: a cached line is updated in place, so the
    // core's own later reads see the store even after the WCB drains.
    if (c.l1.count(addr) != 0) c.l1[addr] = value;
  }

  // ---- direct protocol entry points ----------------------------------

  /// Runs the policy fault flow directly (page-level, no data access).
  void run_fault(int id, u64 page, bool is_write) {
    Core& c = core(id);
    c.trace.record(proto::TraceEvent{proto::TraceKind::kFault, page,
                                     is_write ? u64{1} : u64{0}, 0});
    c.policy->fault(page, frame_of(page), is_write, *c.env);
  }

  /// Synchronisation hooks as the Svm endpoint drives them (lock
  /// acquire/release, barrier entry/exit).
  void sync_acquire(int id) { core(id).policy->on_acquire(*core(id).env); }
  void sync_release(int id) { core(id).policy->on_release(*core(id).env); }

  /// Dispatches pending request-type messages until every inbox holds
  /// only unconsumed ACKs. Returns the number of messages dispatched.
  int drain_all() {
    int n = 0;
    while (dispatch_one()) ++n;
    return n;
  }

  // ---- inspection ----------------------------------------------------

  proto::CoherencePolicy& policy(int id) { return *core(id).policy; }
  /// The core's ProtocolEnv view — recovery tests call recover_page
  /// against it directly, outside any policy flow.
  proto::ProtocolEnv& env(int id) { return *core(id).env; }
  proto::SvmStats& stats(int id) { return core(id).stats; }
  TraceLog& trace(int id) { return core(id).trace; }
  PageState state_of(int id, u64 page) const {
    return cores_[static_cast<std::size_t>(id)]->policy->state_of(page);
  }
  u16 owner(u64 page) const {
    const auto it = owner_.find(page);
    return it == owner_.end() ? u16{0} : it->second;
  }
  u64 dir(u64 page) const {
    const auto it = dir_.find(page);
    return it == dir_.end() ? u64{0} : it->second;
  }
  bool mapped(int id, u64 page) const {
    return cores_[static_cast<std::size_t>(id)]->pt.count(page) != 0;
  }
  bool writable(int id, u64 page) const {
    const auto& pt = cores_[static_cast<std::size_t>(id)]->pt;
    const auto it = pt.find(page);
    return it != pt.end() && it->second.writable;
  }
  std::size_t inbox_size(int id) const {
    return cores_[static_cast<std::size_t>(id)]->inbox.size();
  }
  u64 flushes(int id) const { return core(id).flushes; }
  u64 invalidates(int id) const { return core(id).invmbs; }
  u64 cost(int id) const { return core(id).cost; }
  u64 hw(int id, proto::HwEvent e) const {
    return core(id).hw[static_cast<std::size_t>(e)];
  }
  /// The committed (post-flush) value at `addr` in shared memory.
  u8 memory(u64 addr) const { return mem_value(addr); }
  const std::string& last_warning() const { return last_warning_; }

  u16 frame_of(u64 page) const {
    const auto it = scratchpad_.find(page);
    return it == scratchpad_.end()
               ? u16{0}
               : static_cast<u16>(it->second & proto::kFrameMask);
  }

  // ---- proto::MetaStore (shared across all cores) --------------------

  // Harness dies are below 64 cores, so every entry is word 0 alone.
  u64 load(proto::MetaKind kind, u64 page, int /*word*/) override {
    switch (kind) {
      case proto::MetaKind::kOwner: return owner(page);
      case proto::MetaKind::kScratchpad: {
        const auto it = scratchpad_.find(page);
        return it == scratchpad_.end() ? 0 : it->second;
      }
      case proto::MetaKind::kDirectory: return dir(page);
    }
    return 0;
  }

  void store(proto::MetaKind kind, u64 page, int /*word*/,
             u64 value) override {
    switch (kind) {
      case proto::MetaKind::kOwner:
        owner_[page] = static_cast<u16>(value);
        return;
      case proto::MetaKind::kScratchpad:
        scratchpad_[page] = static_cast<u16>(value);
        return;
      case proto::MetaKind::kDirectory:
        dir_[page] = value;
        return;
    }
  }

 private:
  struct Mapping {
    bool writable = false;
  };

  class CoreEnv;

  struct Core {
    Core(Harness& h, int id, int num_cores, Model model, PolicyConfig cfg);

    std::unique_ptr<proto::CoherencePolicy> policy;
    TraceLog trace;
    proto::SvmStats stats;
    std::unique_ptr<CoreEnv> env;
    proto::MetaWord meta;

    std::deque<Msg> inbox;
    std::map<u64, Mapping> pt;
    std::map<u64, u8> wcb;  // dirty bytes awaiting flush
    std::map<u64, u8> l1;   // read-cached bytes
    u64 cost = 0;
    u64 flushes = 0;
    u64 invmbs = 0;
    u64 hw[1] = {0};
    int irq_depth = 0;
  };

  /// Per-core ProtocolEnv view onto the harness.
  class CoreEnv final : public proto::ProtocolEnv {
   public:
    CoreEnv(Harness& h, int id) : h_(h), id_(id) {}

    int self() const override { return id_; }
    proto::MetaWord& meta() override { return h_.core(id_).meta; }
    proto::SvmStats& stats() override { return h_.core(id_).stats; }
    void trace(const proto::TraceEvent& e) override {
      h_.core(id_).trace.record(e);
    }

    void send(int dest, const Msg& m) override {
      h_.core(id_).trace.record(
          proto::TraceEvent{proto::TraceKind::kMsgSend, m.page,
                            static_cast<u64>(m.type),
                            static_cast<u64>(dest)});
      h_.core(dest).inbox.push_back(m);
    }

    int multicast(const proto::SharerSet& dests, const Msg& m) override {
      h_.core(id_).trace.record(
          proto::TraceEvent{proto::TraceKind::kMsgSend, m.page,
                            static_cast<u64>(m.type), dests.word(0)});
      int n = 0;
      dests.for_each([&](int d) {
        if (d == id_ || d >= static_cast<int>(h_.cores_.size())) return;
        h_.cores_[static_cast<std::size_t>(d)]->inbox.push_back(m);
        ++n;
      });
      return n;
    }

    Msg wait_match(MsgType type, u64 page) override {
      return h_.wait_match(id_, type, page);
    }

    void yield() override { h_.yield_step(); }

    void flush_wcb() override {
      Core& c = h_.core(id_);
      for (const auto& [addr, v] : c.wcb) h_.mem_[addr] = v;
      c.wcb.clear();
      ++c.flushes;
    }

    void cl1invmb() override {
      Core& c = h_.core(id_);
      c.l1.clear();
      ++c.invmbs;
    }

    void map_page(u64 page, u16 frame, bool writable) override {
      (void)frame;  // data lives in the flat byte map, not in frames
      h_.core(id_).pt[page] = Mapping{writable};
    }

    void unmap_page(u64 page) override { h_.core(id_).pt.erase(page); }

    void downgrade_page(u64 page) override {
      auto& pt = h_.core(id_).pt;
      if (const auto it = pt.find(page); it != pt.end()) {
        it->second.writable = false;
      }
    }

    void transfer_lock(u64 page) override {
      const auto it = h_.lock_holder_.find(page);
      if (it != h_.lock_holder_.end()) {
        // Single-threaded harness: a second top-level flow taking a held
        // lock can never be released — a scripted-scenario bug.
        throw HarnessError("transfer lock deadlock on page " +
                           std::to_string(page));
      }
      h_.lock_holder_[page] = id_;
    }

    void transfer_unlock(u64 page) override {
      h_.lock_holder_.erase(page);
    }

    void irq_off() override { ++h_.core(id_).irq_depth; }
    void irq_on() override { --h_.core(id_).irq_depth; }

    void cost_cycles(proto::u32 cycles) override {
      h_.core(id_).cost += cycles;
    }

    void hw_count(proto::HwEvent event, u64 delta) override {
      h_.core(id_).hw[static_cast<std::size_t>(event)] += delta;
    }

    void warn(const char* message) override {
      h_.last_warning_ = message;
    }

   private:
    Harness& h_;
    int id_;
  };

  Core& core(int id) { return *cores_[static_cast<std::size_t>(id)]; }
  const Core& core(int id) const {
    return *cores_[static_cast<std::size_t>(id)];
  }

  u8 mem_value(u64 addr) const {
    const auto it = mem_.find(addr);
    return it == mem_.end() ? u8{0} : it->second;
  }

  static bool is_request(MsgType t) {
    return t == MsgType::kOwnershipReq || t == MsgType::kReadReq ||
           t == MsgType::kInval;
  }

  /// Delivers the first pending request-type message (lowest core id,
  /// oldest message first) to its policy. ACKs stay queued for
  /// wait_match. Returns false when no request is pending anywhere.
  bool dispatch_one() {
    if (dispatch_depth_ > 64) {
      throw HarnessError("protocol dispatch recursion exceeded 64");
    }
    for (auto& cp : cores_) {
      Core& c = *cp;
      for (auto it = c.inbox.begin(); it != c.inbox.end(); ++it) {
        if (!is_request(it->type)) continue;
        const Msg m = *it;
        c.inbox.erase(it);
        c.trace.record(proto::TraceEvent{proto::TraceKind::kMsgRecv,
                                         m.page, static_cast<u64>(m.type),
                                         static_cast<u64>(m.requester)});
        ++dispatch_depth_;
        c.policy->on_message(m, *c.env);
        --dispatch_depth_;
        return true;
      }
    }
    return false;
  }

  Msg wait_match(int id, MsgType type, u64 page) {
    Core& c = core(id);
    for (int guard = 0; guard < 100000; ++guard) {
      for (auto it = c.inbox.begin(); it != c.inbox.end(); ++it) {
        if (it->type != type || it->page != page) continue;
        const Msg m = *it;
        c.inbox.erase(it);
        c.trace.record(proto::TraceEvent{proto::TraceKind::kMsgRecv,
                                         m.page, static_cast<u64>(m.type),
                                         static_cast<u64>(m.requester)});
        return m;
      }
      if (!dispatch_one()) {
        throw HarnessError("deadlock: core " + std::to_string(id) +
                           " waits for " +
                           std::string(proto::to_string(type)) +
                           " on page " + std::to_string(page) +
                           " with no request pending anywhere");
      }
    }
    throw HarnessError("livelock in wait_match");
  }

  void yield_step() {
    if (dispatch_one()) {
      idle_yields_ = 0;
      return;
    }
    if (++idle_yields_ > 100000) {
      throw HarnessError("livelock: polling with no pending requests");
    }
  }

  void access(int id, u64 addr, bool is_write) {
    const u64 page = addr / kPageBytes;
    Core& c = core(id);
    const auto needs_fault = [&] {
      const auto it = c.pt.find(page);
      if (it == c.pt.end()) return true;
      return is_write && !it->second.writable;
    };
    if (needs_fault()) {
      run_fault(id, page, is_write);
      if (needs_fault()) {
        throw HarnessError("access to page " + std::to_string(page) +
                           " still unresolved after fault");
      }
    }
  }

  Model model_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::map<u64, u16> owner_;
  std::map<u64, u16> scratchpad_;
  std::map<u64, u64> dir_;
  std::map<u64, u8> mem_;
  std::map<u64, int> lock_holder_;
  std::string last_warning_;
  int dispatch_depth_ = 0;
  int idle_yields_ = 0;
};

inline Harness::Core::Core(Harness& h, int id, int num_cores, Model model,
                           PolicyConfig cfg)
    : env(std::make_unique<CoreEnv>(h, id)),
      meta(h, num_cores, env.get()) {
  switch (model) {
    case Model::kStrong:
      policy = std::make_unique<proto::StrongOwnerPolicy>(cfg);
      break;
    case Model::kReadReplication:
      policy = std::make_unique<proto::ReadReplicationPolicy>(cfg);
      break;
    case Model::kLrc:
      policy = std::make_unique<proto::LrcPolicy>(cfg);
      break;
  }
}

}  // namespace msvm::svm::harness
