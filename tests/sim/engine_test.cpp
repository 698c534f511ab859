#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace capgpu::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, EqualTimestampsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, TimeAdvancesToEventTime) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(5.5, [&] { seen = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.5);
}

TEST(Engine, ScheduleAfterUsesRelativeTime) {
  Engine e;
  e.run_until(2.0);
  double seen = -1.0;
  e.schedule_after(3.0, [&] { seen = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Engine, PastSchedulingThrows) {
  Engine e;
  e.run_until(5.0);
  EXPECT_THROW(e.schedule_at(4.0, [] {}), capgpu::InvalidArgument);
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), capgpu::InvalidArgument);
  EXPECT_THROW(e.run_until(4.0), capgpu::InvalidArgument);
}

TEST(Engine, NullCallbackThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1.0, nullptr), capgpu::InvalidArgument);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(1.0, [&] { ran = true; });
  e.cancel(id);
  e.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine e;
  e.cancel(9999);  // must not crash
  e.run_until(1.0);
}

TEST(Engine, EventsBeyondHorizonStayPending) {
  Engine e;
  bool ran = false;
  e.schedule_at(5.0, [&] { ran = true; });
  e.run_until(4.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine e;
  int fires = 0;
  e.schedule_periodic(1.0, [&] { ++fires; });
  e.run_until(5.5);
  EXPECT_EQ(fires, 5);
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine e;
  int fires = 0;
  EventId id = 0;
  id = e.schedule_periodic(1.0, [&] {
    if (++fires == 3) e.cancel(id);
  });
  e.run_until(10.0);
  EXPECT_EQ(fires, 3);
}

TEST(Engine, CancelInsideOwnCallbackDoesNotResurrect) {
  // Regression: cancelling a periodic event from inside its own callback
  // used to be undone by the post-callback reschedule, resurrecting the
  // event forever.
  Engine e;
  int fires = 0;
  EventId id = 0;
  id = e.schedule_periodic(1.0, [&] {
    ++fires;
    e.cancel(id);
  });
  e.run_until(10.0);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(e.pending(), 0u);
  // The freed slot must be safely reusable: a new event may land in it, and
  // the stale id must not cancel the newcomer.
  int other = 0;
  e.schedule_at(11.0, [&] { ++other; });
  e.cancel(id);  // stale generation: no-op
  e.run_until(12.0);
  EXPECT_EQ(other, 1);
  EXPECT_EQ(fires, 1);
}

TEST(Engine, CancelInsideOwnCallbackOneShot) {
  Engine e;
  int fires = 0;
  EventId id = e.schedule_at(1.0, [&] {
    ++fires;
    e.cancel(id);  // already firing: must be a harmless no-op
  });
  e.run_until(2.0);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, PeriodicNeedsPositivePeriod) {
  Engine e;
  EXPECT_THROW(e.schedule_periodic(0.0, [] {}), capgpu::InvalidArgument);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  std::vector<double> times;
  e.schedule_at(1.0, [&] {
    times.push_back(e.now());
    e.schedule_after(1.0, [&] { times.push_back(e.now()); });
  });
  e.run_until(5.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Engine, CancelledHeadDoesNotBlockLaterEvents) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [&] { ran = true; });
  e.cancel(id);
  e.run_until(3.0);
  EXPECT_TRUE(ran);
}

TEST(Engine, CancelledEventAfterHorizonNotExecuted) {
  Engine e;
  bool late_ran = false;
  e.schedule_at(1.0, [] {});
  const EventId late = e.schedule_at(5.0, [&] { late_ran = true; });
  e.cancel(late);
  // run_until must not execute the 5.0 event even though the head at 1.0
  // was live.
  e.run_until(3.0);
  EXPECT_FALSE(late_ran);
  e.run_until(10.0);
  EXPECT_FALSE(late_ran);
}

TEST(Engine, ExecutedCounter) {
  Engine e;
  for (int i = 0; i < 4; ++i) e.schedule_at(1.0 + i, [] {});
  e.run_until(10.0);
  EXPECT_EQ(e.events_executed(), 4u);
}

TEST(Engine, StepRunsOneEvent) {
  Engine e;
  int runs = 0;
  e.schedule_at(1.0, [&] { ++runs; });
  e.schedule_at(2.0, [&] { ++runs; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RescheduleFiringChainsOneShot) {
  Engine e;
  std::vector<SimTime> fired;
  EventId id = 0;
  id = e.schedule_after(1.0, [&] {
    fired.push_back(e.now());
    if (fired.size() < 3) {
      EXPECT_TRUE(e.try_reschedule_firing(id, 1.0));
    }
  });
  e.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<SimTime>{1.0, 2.0, 3.0}));
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RescheduleFiringKeepsFifoOrderAtEqualTimes) {
  // A re-armed event at zero delay draws its seq at the call, so it fires
  // after everything already scheduled for the same timestamp — exactly as
  // a schedule_after(0.0) from the same point would.
  Engine e;
  std::vector<int> order;
  EventId a = 0;
  bool rearmed = false;
  a = e.schedule_at(1.0, [&] {
    order.push_back(1);
    if (!rearmed) {
      rearmed = true;
      EXPECT_TRUE(e.try_reschedule_firing(a, 0.0));
    }
  });
  e.schedule_at(1.0, [&] { order.push_back(2); });
  e.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
}

TEST(Engine, RescheduleFromOtherEventReturnsFalse) {
  Engine e;
  const EventId other = e.schedule_at(5.0, [] {});
  bool attempted = false;
  e.schedule_at(1.0, [&] {
    attempted = true;
    EXPECT_FALSE(e.try_reschedule_firing(other, 1.0));
  });
  e.run_until(10.0);
  EXPECT_TRUE(attempted);
  EXPECT_EQ(e.events_executed(), 2u);
}

TEST(Engine, RescheduleOutsideAnyFiringReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  EXPECT_FALSE(e.try_reschedule_firing(id, 1.0));
  EXPECT_FALSE(e.try_reschedule_firing(0, 1.0));
  e.run_until(2.0);
}

TEST(Engine, RescheduledEventKeepsCancellableId) {
  Engine e;
  int runs = 0;
  EventId id = 0;
  id = e.schedule_after(1.0, [&] {
    ++runs;
    EXPECT_TRUE(e.try_reschedule_firing(id, 1.0));
  });
  e.run_until(1.5);  // first firing re-armed the chain for t=2
  EXPECT_EQ(e.pending(), 1u);
  e.cancel(id);
  e.run_until(10.0);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelAfterRescheduleInsideCallbackDropsChain) {
  Engine e;
  int runs = 0;
  EventId id = 0;
  id = e.schedule_after(1.0, [&] {
    ++runs;
    EXPECT_TRUE(e.try_reschedule_firing(id, 1.0));
    e.cancel(id);  // changed its mind within the same firing
  });
  e.run_until(10.0);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RescheduleFiringStaleGenerationReturnsFalse) {
  // A stale id whose slot was recycled into the currently-firing event must
  // not re-arm someone else's chain: the generation check rejects it.
  Engine e;
  const EventId first = e.schedule_at(1.0, [] {});
  e.run_until(1.5);  // `first` fired; its slot is free for reuse
  bool attempted = false;
  const EventId second = e.schedule_at(2.0, [&] {
    attempted = true;
    EXPECT_FALSE(e.try_reschedule_firing(first, 1.0));
  });
  // The recycled slot means `second` reuses `first`'s slot index.
  EXPECT_EQ(first >> 32, second >> 32);
  e.run_until(3.0);
  EXPECT_TRUE(attempted);
}

/// Toy lazy chain holding any number of pending events, each fired in
/// (time, seq) order and logged as "tag@now".
class ToyChain final : public Engine::LazyChain {
 public:
  ToyChain(Engine& e, std::vector<std::string>& log)
      : LazyChain(e), engine_(e), log_(log) {}

  void arm_at(SimTime time, std::string tag) {
    pending_.push_back(Pending{time, draw_seq(), std::move(tag)});
    std::sort(pending_.begin(), pending_.end(),
              [](const Pending& a, const Pending& b) {
                return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
    set_next(pending_.front().time, pending_.front().seq);
  }

 private:
  struct Pending {
    SimTime time;
    std::uint64_t seq;
    std::string tag;
  };

  void fire() override {
    const Pending p = pending_.front();
    pending_.erase(pending_.begin());
    EXPECT_EQ(engine_.now(), p.time) << p.tag;
    log_.push_back(p.tag + "@" + std::to_string(engine_.now()));
    if (pending_.empty()) {
      disarm();
    } else {
      set_next(pending_.front().time, pending_.front().seq);
    }
  }

  Engine& engine_;
  std::vector<std::string>& log_;
  std::vector<Pending> pending_;
};

TEST(Engine, LazyChainKeepsFifoOrderAgainstHeapEvents) {
  // Chain events land at exactly the times of heap events, armed both
  // before and after those heap events are scheduled, and once from inside
  // a heap event: the fire order must follow the seqs drawn at each arm or
  // schedule call, as if every event were a heap event.
  const auto setup = [](Engine& e, ToyChain& chain,
                        std::vector<std::string>& log) {
    chain.arm_at(1.0, "c1a");
    e.schedule_at(1.0, [&log, &e] {
      log.push_back("h1@" + std::to_string(e.now()));
    });
    chain.arm_at(1.0, "c1b");
    e.schedule_at(2.0, [&log, &e, &chain] {
      log.push_back("h2@" + std::to_string(e.now()));
      chain.arm_at(2.0, "c2c");
      e.schedule_at(2.0, [&log, &e] {
        log.push_back("h2b@" + std::to_string(e.now()));
      });
    });
    chain.arm_at(2.0, "c2");
    chain.arm_at(3.0, "c3");  // exactly at the run_until target below
    chain.arm_at(4.0, "c4");
  };
  const std::vector<std::string> expected{
      "c1a@1.000000", "h1@1.000000",  "c1b@1.000000", "h2@2.000000",
      "c2@2.000000",  "c2c@2.000000", "h2b@2.000000", "c3@3.000000"};

  {
    Engine e;
    std::vector<std::string> log;
    ToyChain chain(e, log);
    setup(e, chain, log);
    e.run_until(3.0);
    EXPECT_EQ(log, expected);
    EXPECT_DOUBLE_EQ(e.now(), 3.0);
    // Heap events only: h1, h2, h2b.
    EXPECT_EQ(e.events_executed(), 3u);
    EXPECT_EQ(e.pending(), 0u);
  }
  {
    Engine e;
    std::vector<std::string> log;
    ToyChain chain(e, log);
    setup(e, chain, log);
    std::vector<std::string> expected_steps = expected;
    expected_steps.push_back("c4@4.000000");
    std::size_t steps = 0;
    while (e.step()) ++steps;
    EXPECT_EQ(log, expected_steps);
    EXPECT_EQ(steps, expected_steps.size());
    EXPECT_DOUBLE_EQ(e.now(), 4.0);
    EXPECT_EQ(e.events_executed(), 3u);
  }
}

TEST(Engine, LazyChainEventCannotTouchTheHeap) {
  Engine e;
  struct Scheduling final : Engine::LazyChain {
    explicit Scheduling(Engine& eng) : LazyChain(eng), engine(eng) {
      set_next(1.0, draw_seq());
    }
    void fire() override {
      disarm();
      engine.schedule_after(1.0, [] {});
    }
    Engine& engine;
  } chain(e);
  EXPECT_THROW(e.run_until(2.0), capgpu::InvalidArgument);
  EXPECT_EQ(e.pending(), 0u);
}

}  // namespace
}  // namespace capgpu::sim
