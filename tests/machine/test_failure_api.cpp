// The Machine failure API on a bare machine (no Runtime): inject_kill,
// inject_hang, declare_failed, revive_pe and pe_failed, driven from
// handler context on both single-process backends. Each test seeds one
// message to PE 0 and scripts the rest of the scenario as a chain of
// steps, so every call happens on a PE exactly as the runtime makes it.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

#include "machine/machine.hpp"
#include "pup/pup.hpp"

namespace {

using namespace cxm;
using cx::ft::FailureKind;
using cx::ft::PeFailure;

/// A bare machine plus one step handler: a message carrying step `i`
/// runs steps[i] on its destination PE.
struct Harness {
  std::unique_ptr<Machine> m;
  std::vector<std::function<void()>> steps;
  std::uint32_t h = 0;
  std::mutex mu;
  std::vector<PeFailure> seen;  ///< guarded by mu

  Harness(Backend b, int pes) {
    MachineConfig cfg;
    cfg.num_pes = pes;
    cfg.backend = b;
    m = make_machine(cfg);
    m->set_failure_listener([this](const PeFailure& f) {
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(f);
    });
    h = m->register_handler([this](MessagePtr msg) {
      steps.at(static_cast<std::size_t>(pup::from_bytes<int>(msg->data)))();
    });
  }

  MessagePtr step_msg(int step, int pe) const {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = pe;
    msg->data = pup::to_bytes(step);
    return msg;
  }
  void send(int step, int pe) { m->send(step_msg(step, pe)); }
  /// Deliver step `step` to `pe` after `s` seconds of the caller's clock
  /// — long enough on both backends for earlier sends to have landed.
  void later(int step, int pe, double s = 0.02) {
    m->send_after(step_msg(step, pe), s);
  }

  void run() {
    send(0, 0);
    m->run();
  }
  std::size_t failures() {
    std::lock_guard<std::mutex> lk(mu);
    return seen.size();
  }
};

class FailureApi : public ::testing::TestWithParam<Backend> {};

TEST_P(FailureApi, ListenerFiresOncePerFailureAndRepeatedKillIsNoOp) {
  Harness t(GetParam(), 4);
  t.steps = {[&] {
    t.m->inject_kill(2);
    t.m->inject_kill(2);                          // repeat: no-op
    t.m->declare_failed(2, FailureKind::Crashed);  // already notified
    t.m->inject_kill(3);
    t.m->inject_kill(-1);  // out of range: ignored
    t.m->inject_kill(4);
    t.m->stop();
  }};
  t.run();
  ASSERT_EQ(t.seen.size(), 2u);
  EXPECT_EQ(t.seen[0].pe, 2);
  EXPECT_EQ(t.seen[0].kind, FailureKind::Crashed);
  EXPECT_EQ(t.seen[1].pe, 3);
  EXPECT_TRUE(t.m->pe_failed(2));
  EXPECT_TRUE(t.m->pe_failed(3));
  EXPECT_FALSE(t.m->pe_failed(0));
  EXPECT_FALSE(t.m->pe_failed(1));
  EXPECT_FALSE(t.m->pe_failed(4));
}

TEST_P(FailureApi, DeclareUnreachableSetsPeFailed) {
  Harness t(GetParam(), 3);
  t.steps = {[&] {
    EXPECT_FALSE(t.m->pe_failed(1));
    t.m->declare_failed(1, FailureKind::Unreachable);
    EXPECT_TRUE(t.m->pe_failed(1));
    t.m->stop();
  }};
  t.run();
  ASSERT_EQ(t.seen.size(), 1u);
  EXPECT_EQ(t.seen[0].pe, 1);
  EXPECT_EQ(t.seen[0].kind, FailureKind::Unreachable);
  EXPECT_TRUE(t.m->pe_failed(1));
}

TEST_P(FailureApi, ReviveClearsFailureRearmsAndDiscardsBacklog) {
  Harness t(GetParam(), 2);
  std::atomic<int> backlog_runs{0};
  std::atomic<int> revived_runs{0};
  t.steps = {
      // 0 (PE 0): hang PE 1, detect it, and queue a message it must
      // never run; revive once that message has arrived.
      [&] {
        t.m->inject_hang(1);
        EXPECT_TRUE(t.m->pe_failed(1));
        EXPECT_EQ(t.failures(), 0u);  // a hang is silent
        t.m->declare_failed(1, FailureKind::Hung);
        t.send(1, 1);
        t.later(2, 0);
      },
      // 1 (PE 1): the backlog message.
      [&] { backlog_runs.fetch_add(1); },
      // 2 (PE 0): revive; PE 1 must work again.
      [&] {
        t.m->revive_pe(1);
        EXPECT_FALSE(t.m->pe_failed(1));
        t.send(3, 1);
      },
      // 3 (PE 1): the first message after the revive.
      [&] {
        revived_runs.fetch_add(1);
        t.send(4, 0);
      },
      // 4 (PE 0): notification is re-armed — a new failure reports.
      [&] {
        t.m->inject_kill(1);
        t.m->stop();
      },
  };
  t.run();
  EXPECT_EQ(backlog_runs.load(), 0);
  EXPECT_EQ(revived_runs.load(), 1);
  ASSERT_EQ(t.seen.size(), 2u);
  EXPECT_EQ(t.seen[0].pe, 1);
  EXPECT_EQ(t.seen[0].kind, FailureKind::Hung);
  EXPECT_EQ(t.seen[1].pe, 1);
  EXPECT_EQ(t.seen[1].kind, FailureKind::Crashed);
}

TEST_P(FailureApi, CrashedPeRunsNoHandler) {
  Harness t(GetParam(), 3);
  std::atomic<int> dead_runs{0};
  std::atomic<int> live_runs{0};
  t.steps = {
      [&] {
        t.m->inject_kill(1);
        t.send(1, 1);
        t.send(2, 2);
        t.later(3, 0);
      },
      [&] { dead_runs.fetch_add(1); },
      [&] { live_runs.fetch_add(1); },
      [&] { t.m->stop(); },
  };
  t.run();
  EXPECT_EQ(dead_runs.load(), 0);
  EXPECT_EQ(live_runs.load(), 1);
  EXPECT_EQ(t.seen.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FailureApi,
                         ::testing::Values(Backend::Threaded, Backend::Sim),
                         [](const auto& info) {
                           return info.param == Backend::Sim ? "Sim"
                                                             : "Threaded";
                         });

}  // namespace
