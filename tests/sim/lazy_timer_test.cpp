// LazyTimer: a re-armed timer fires at the (t, order word) a cancel +
// schedule re-arm would have given it, whether its deadline moved later
// (the pending carrier re-files), earlier (a fresh carrier; the old one
// falls inert) or stayed put; a far deadline is reached in hops of at most
// kMaxLead; a disarmed timer's carrier does nothing. Carriers are counted
// as processed events.
#include "sim/lazy_timer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timing_wheel.hpp"

namespace fncc {
namespace {

constexpr Time kTick = Time{1} << TimingWheel::kTickShift;
constexpr Time kLead = LazyTimer::kMaxLead;

/// A timer owner that logs "T@<time>" when its timer expires. The carrier
/// names the owner directly: it outlives every run in these tests.
struct Owner {
  Simulator* sim;
  std::vector<std::string>* log;
  LazyTimer timer;
  int carriers = 0;
  std::vector<Time> pops;  // when each carrier popped

  [[nodiscard]] TypedEvent Carrier() {
    return TypedEvent{.run = &Owner::Fire,
                      .drop = nullptr,
                      .p0 = this,
                      .p1 = nullptr,
                      .arg = 0};
  }
  void Arm(Time t) { timer.Arm(*sim, t, Carrier()); }
  static void Fire(void* p0, void* /*unused*/, std::uint64_t /*arg*/) {
    auto* self = static_cast<Owner*>(p0);
    ++self->carriers;
    self->pops.push_back(self->sim->Now());
    if (self->timer.Expired(*self->sim, self->Carrier())) {
      self->log->push_back("T@" + std::to_string(self->sim->Now()));
    }
  }
};

class LazyTimerTest : public ::testing::Test {
 protected:
  /// Schedules a native event logging `name` at `t`.
  void Native(Time t, const std::string& name) {
    sim_.ScheduleAt(t, [this, name] { log_.push_back(name); });
  }

  Simulator sim_;
  std::vector<std::string> log_;
  Owner owner_{&sim_, &log_, LazyTimer{}, 0, {}};
};

TEST_F(LazyTimerTest, ReArmLaterKeepsTheReArmWord) {
  // Re-armed later at t = 50: the carrier filed for 100 re-files at 200
  // with the word minted at the re-arm, so at t = 200 the timer runs after
  // a native scheduled before the re-arm and before one scheduled after it
  // — the back-of-FIFO order a cancel + schedule gave.
  owner_.Arm(100);
  Native(200, "before");
  sim_.ScheduleAt(50, [this] {
    owner_.Arm(200);
    Native(200, "after");
  });
  sim_.Run();
  EXPECT_EQ(log_, (std::vector<std::string>{"before", "T@200", "after"}));
  EXPECT_EQ(owner_.carriers, 2) << "the re-filing carrier pops too";
  EXPECT_FALSE(owner_.timer.armed());
}

TEST_F(LazyTimerTest, ReArmAtTheSameTimeGoesBehindEarlierNatives) {
  // The re-arm keeps the deadline but mints a newer word: the carrier
  // pops at its old word and re-files behind the native scheduled in
  // between.
  owner_.Arm(5);
  Native(5, "native");
  owner_.Arm(5);
  sim_.Run();
  EXPECT_EQ(log_, (std::vector<std::string>{"native", "T@5"}));
  EXPECT_EQ(owner_.carriers, 2);
}

TEST_F(LazyTimerTest, ReArmEarlierGetsAFreshCarrier) {
  // Armed far (its carrier one lead ahead), re-armed near: a fresh carrier
  // fires at the near deadline and the far one falls inert when it pops.
  owner_.Arm(2 * kLead);
  Native(kTick, "a");
  owner_.Arm(2 * kTick);
  Native(2 * kTick, "b");
  sim_.Run();
  EXPECT_EQ(log_, (std::vector<std::string>{
                      "a", "T@" + std::to_string(2 * kTick), "b"}));
  EXPECT_EQ(owner_.pops, (std::vector<Time>{2 * kTick, kLead}))
      << "the superseded carrier still pops";
}

TEST_F(LazyTimerTest, FarDeadlineIsReachedInHopsOfAtMostTheLead) {
  // Armed near, then re-armed three leads out: the near carrier re-files
  // one lead on at a time, then at the deadline itself, and the timer
  // fires there ahead of a native scheduled after the re-arm.
  const Time far = 3 * kLead + 5;
  owner_.Arm(3 * kTick);
  owner_.Arm(far);
  Native(far, "c");
  sim_.Run();
  EXPECT_EQ(log_,
            (std::vector<std::string>{"T@" + std::to_string(far), "c"}));
  EXPECT_EQ(owner_.pops, (std::vector<Time>{3 * kTick, 3 * kTick + kLead,
                                            3 * kTick + 2 * kLead, far}));
}

TEST_F(LazyTimerTest, ReArmEarlierThenLaterAgainFiresOnce) {
  // 300 -> 100 (fresh carrier) -> 300 again at t = 50 (the 100 carrier
  // re-files): the superseded 300 carrier must not fire the timer too.
  owner_.Arm(300);
  owner_.Arm(100);
  sim_.ScheduleAt(50, [this] { owner_.Arm(300); });
  sim_.Run();
  EXPECT_EQ(log_, (std::vector<std::string>{"T@300"}));
  EXPECT_EQ(owner_.carriers, 3);
}

TEST_F(LazyTimerTest, DisarmedCarrierIsInert) {
  owner_.Arm(100);
  owner_.timer.Disarm();
  EXPECT_FALSE(owner_.timer.armed());
  sim_.Run();
  EXPECT_TRUE(log_.empty());
  EXPECT_EQ(owner_.carriers, 1);
  EXPECT_EQ(sim_.events_processed(), 1u);
}

TEST_F(LazyTimerTest, MintsTheWordAScheduleWouldHaveTaken) {
  // Arming consumes exactly one native word, like the Schedule it stands
  // for, so events scheduled after it keep their words.
  owner_.Arm(100);
  std::uint64_t native_word = 0;
  sim_.ScheduleAt(100, [this, &native_word] {
    native_word = sim_.CurrentOrderKey().order;
  });
  sim_.Run();
  EXPECT_EQ(native_word, kNativeOrderBit | 1);
  EXPECT_EQ(sim_.MintOrder(), kNativeOrderBit | 2);
}

}  // namespace
}  // namespace fncc
