// Multicast-helper tests: delivery to every core named in the list,
// self-exclusion, empty lists, and both delivery modes (poll and IPI). The SVM invalidation protocol rides on this helper, so the
// guarantees here are load-bearing for the directory tests.
#include "mailbox/mailbox.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace msvm::mbox {
namespace {

scc::ChipConfig small_config(int cores) {
  scc::ChipConfig cfg;
  cfg.num_cores = cores;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  return cfg;
}

/// Harness: boots a kernel + mailbox on every core and runs `body(i)`
/// (same shape as mailbox_test.cpp's rig).
class MailboxRig {
 public:
  MailboxRig(int cores, bool use_ipi)
      : chip_(small_config(cores)), use_ipi_(use_ipi) {
    kernels_.resize(static_cast<std::size_t>(cores));
    mailboxes_.resize(static_cast<std::size_t>(cores));
  }

  scc::Chip& chip() { return chip_; }
  MailboxSystem& mbox(int i) {
    return *mailboxes_[static_cast<std::size_t>(i)];
  }

  using Body = std::function<void(int core, MailboxSystem& mbox,
                                  scc::Core& c)>;

  void run(Body body) {
    for (int i = 0; i < chip_.num_cores(); ++i) {
      chip_.spawn_program(i, [this, i, body](scc::Core& c) {
        auto& kern = kernels_[static_cast<std::size_t>(i)];
        kern = std::make_unique<kernel::Kernel>(c);
        kern->boot();
        auto& mb = mailboxes_[static_cast<std::size_t>(i)];
        mb = std::make_unique<MailboxSystem>(*kern, use_ipi_);
        body(i, *mb, c);
      });
    }
    chip_.run();
  }

 private:
  scc::Chip chip_;
  bool use_ipi_;
  std::vector<std::unique_ptr<kernel::Kernel>> kernels_;
  std::vector<std::unique_ptr<MailboxSystem>> mailboxes_;
};

constexpr u8 kPing = 21;
constexpr u8 kPong = 22;

TEST(MailboxMulticast, DeliversToEveryCoreInMask) {
  for (const bool ipi : {false, true}) {
    constexpr int kCores = 6;
    MailboxRig rig(kCores, ipi);
    std::vector<u64> got(kCores, 0);
    int fanout = -1;
    rig.run([&](int core, MailboxSystem& mb, scc::Core&) {
      if (core == 0) {
        Mail m;
        m.type = kPing;
        m.p0 = 777;
        fanout = mb.multicast({1, 2, 3, 4, 5}, m);
        // Collect one pong per target so the run only ends after
        // everyone consumed the mail.
        for (int i = 1; i < kCores; ++i) (void)mb.recv_type(kPong);
      } else {
        const Mail m = mb.recv_type(kPing);
        got[static_cast<std::size_t>(core)] = m.p0;
        EXPECT_EQ(m.sender, 0);
        Mail pong;
        pong.type = kPong;
        mb.send(0, pong);
      }
    });
    EXPECT_EQ(fanout, kCores - 1);
    for (int c = 1; c < kCores; ++c) {
      EXPECT_EQ(got[static_cast<std::size_t>(c)], 777u) << "core " << c;
    }
    EXPECT_EQ(rig.mbox(0).stats().multicasts, 1u);
    EXPECT_GE(rig.mbox(0).stats().sent, static_cast<u64>(kCores - 1));
  }
}

TEST(MailboxMulticast, SelfBitIsIgnored) {
  for (const bool ipi : {false, true}) {
    MailboxRig rig(3, ipi);
    int fanout = -1;
    rig.run([&](int core, MailboxSystem& mb, scc::Core&) {
      if (core == 0) {
        Mail m;
        m.type = kPing;
        // Core 0 is the sender itself: it must be skipped (a core
        // cannot mail itself — its own slot is never polled).
        fanout = mb.multicast({0, 1, 2}, m);
        (void)mb.recv_type(kPong);
        (void)mb.recv_type(kPong);
      } else {
        (void)mb.recv_type(kPing);
        Mail pong;
        pong.type = kPong;
        mb.send(0, pong);
      }
    });
    EXPECT_EQ(fanout, 2);
  }
}

TEST(MailboxMulticast, EmptyAndSelfOnlyMasksSendNothing) {
  MailboxRig rig(2, /*use_ipi=*/true);
  int empty_fanout = -1;
  int self_fanout = -1;
  rig.run([&](int core, MailboxSystem& mb, scc::Core&) {
    if (core == 0) {
      Mail m;
      m.type = kPing;
      empty_fanout = mb.multicast({}, m);
      self_fanout = mb.multicast({0}, m);
      Mail done;
      done.type = kPong;
      mb.send(1, done);
    } else {
      (void)mb.recv_type(kPong);
    }
  });
  EXPECT_EQ(empty_fanout, 0);
  EXPECT_EQ(self_fanout, 0);
  EXPECT_EQ(rig.mbox(0).stats().sent, 1u);  // only the completion pong
}

TEST(MailboxMulticast, HandlersFireOnMulticastDelivery) {
  // Receivers consume through a registered handler (the SVM invalidation
  // pattern) rather than recv_type, in both delivery modes.
  for (const bool ipi : {false, true}) {
    constexpr int kCores = 4;
    MailboxRig rig(kCores, ipi);
    std::vector<int> handled(kCores, 0);
    constexpr u8 kReady = 23;
    rig.run([&](int core, MailboxSystem& mb, scc::Core& c) {
      if (core == 0) {
        // Handlers must be installed before the multicast leaves — an
        // earlier arrival would fall through to the inbox instead.
        for (int i = 1; i < kCores; ++i) (void)mb.recv_type(kReady);
        Mail m;
        m.type = kPing;
        m.p1 = static_cast<u64>(core);
        mb.multicast({1, 2, 3}, m);
        for (int i = 1; i < kCores; ++i) (void)mb.recv_type(kPong);
      } else {
        mb.set_handler(kPing, [&handled, core, &mb](const Mail& m) {
          ++handled[static_cast<std::size_t>(core)];
          Mail pong;
          pong.type = kPong;
          mb.send(static_cast<int>(m.p1), pong);
        });
        Mail ready;
        ready.type = kReady;
        mb.send(0, ready);
        // Wait until our handler ran (poll mode needs explicit scans;
        // the yield lets the simulated sender make progress).
        while (handled[static_cast<std::size_t>(core)] == 0) {
          mb.poll_all();
          c.yield();
        }
      }
    });
    for (int c = 1; c < kCores; ++c) {
      EXPECT_EQ(handled[static_cast<std::size_t>(c)], 1) << "core " << c;
    }
  }
}

}  // namespace
}  // namespace msvm::mbox
