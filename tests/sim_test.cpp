#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace vids::sim {
namespace {

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::Millis(1), Duration::Micros(1000));
  EXPECT_EQ(Duration::Seconds(1).nanos(), 1'000'000'000);
  EXPECT_EQ((Duration::Millis(3) - Duration::Millis(1)), Duration::Millis(2));
  EXPECT_EQ(Duration::Millis(2) * 3, Duration::Millis(6));
  EXPECT_EQ(Duration::Millis(6) / 2, Duration::Millis(3));
  EXPECT_LT(Duration::Millis(1), Duration::Millis(2));
  EXPECT_DOUBLE_EQ(Duration::Millis(1500).ToSeconds(), 1.5);
}

TEST(Time, FromSecondsRoundsToNanos) {
  EXPECT_EQ(Duration::FromSeconds(0.5), Duration::Millis(500));
  EXPECT_EQ(Duration::FromSeconds(1e-9), Duration::Nanos(1));
}

TEST(Time, TimePlusDuration) {
  const Time t = Time::FromNanos(100) + Duration::Nanos(50);
  EXPECT_EQ(t.nanos(), 150);
  EXPECT_EQ(t - Time::FromNanos(100), Duration::Nanos(50));
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(Time::FromNanos(300), [&] { order.push_back(3); });
  sched.ScheduleAt(Time::FromNanos(100), [&] { order.push_back(1); });
  sched.ScheduleAt(Time::FromNanos(200), [&] { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), Time::FromNanos(300));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(Time::FromNanos(100), [&order, i] { order.push_back(i); });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelativeToNow) {
  Scheduler sched;
  Time fired;
  sched.ScheduleAfter(Duration::Millis(10), [&] {
    sched.ScheduleAfter(Duration::Millis(5), [&] { fired = sched.Now(); });
  });
  sched.Run();
  EXPECT_EQ(fired, Time::FromNanos(15'000'000));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  auto id = sched.ScheduleAfter(Duration::Millis(1), [&] { ran = true; });
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));  // double-cancel is a no-op
  sched.Run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterRunReturnsFalse) {
  Scheduler sched;
  auto id = sched.ScheduleAfter(Duration{}, [] {});
  sched.Run();
  EXPECT_FALSE(sched.Cancel(id));
}

TEST(Scheduler, DefaultEventIdIsInert) {
  Scheduler sched;
  Scheduler::EventId id;
  EXPECT_FALSE(sched.Cancel(id));
}

TEST(Scheduler, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Scheduler sched;
  int count = 0;
  sched.ScheduleAt(Time::FromNanos(100), [&] { ++count; });
  sched.ScheduleAt(Time::FromNanos(2000), [&] { ++count; });
  sched.RunUntil(Time::FromNanos(1000));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.Now(), Time::FromNanos(1000));
  EXPECT_EQ(sched.PendingEvents(), 1u);
  sched.Run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler sched;
  sched.ScheduleAt(Time::FromNanos(100), [] {});
  sched.Run();
  EXPECT_THROW(sched.ScheduleAt(Time::FromNanos(50), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sched.ScheduleAfter(Duration::Nanos(-1), [] {}),
               std::invalid_argument);
}

TEST(Scheduler, CancelAfterFireIsANoOp) {
  Scheduler sched;
  auto first = sched.ScheduleAfter(Duration::Millis(1), [] {});
  bool second_ran = false;
  auto second =
      sched.ScheduleAfter(Duration::Millis(2), [&] { second_ran = true; });
  EXPECT_TRUE(sched.Step());
  EXPECT_FALSE(sched.IsPending(first));
  EXPECT_FALSE(sched.Cancel(first));  // already fired
  EXPECT_TRUE(sched.IsPending(second));
  sched.Run();
  EXPECT_TRUE(second_ran);
}

TEST(Scheduler, StaleHandleCannotCancelRecycledSlot) {
  Scheduler sched;
  bool a_ran = false;
  bool b_ran = false;
  auto a = sched.ScheduleAfter(Duration::Millis(1), [&] { a_ran = true; });
  const auto stale = a;  // copy taken before the slot is released
  EXPECT_TRUE(sched.Cancel(a));
  // The next event recycles a's slot under a bumped generation; the stale
  // copy must not be able to cancel it.
  auto b = sched.ScheduleAfter(Duration::Millis(2), [&] { b_ran = true; });
  auto stale_copy = stale;
  EXPECT_FALSE(sched.IsPending(stale));
  EXPECT_FALSE(sched.Cancel(stale_copy));
  EXPECT_TRUE(sched.IsPending(b));
  sched.Run();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
}

TEST(Scheduler, HandleGoesStaleBeforeItsCallbackRuns) {
  Scheduler sched;
  Scheduler::EventId id;
  bool cancel_result = true;
  id = sched.ScheduleAfter(Duration::Millis(1),
                           [&] { cancel_result = sched.Cancel(id); });
  sched.Run();
  EXPECT_FALSE(cancel_result);  // a firing event cannot cancel itself
  EXPECT_EQ(sched.ExecutedEvents(), 1u);
}

TEST(Scheduler, PendingEventsExcludesCancelled) {
  Scheduler sched;
  Scheduler::EventId ids[3];
  int ran = 0;
  for (auto& id : ids) {
    id = sched.ScheduleAfter(Duration::Millis(1), [&] { ++ran; });
  }
  EXPECT_EQ(sched.PendingEvents(), 3u);
  EXPECT_TRUE(sched.Cancel(ids[1]));
  EXPECT_EQ(sched.PendingEvents(), 2u);
  sched.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.ExecutedEvents(), 2u);
}

TEST(Scheduler, ExecutedEventsCounts) {
  Scheduler sched;
  for (int i = 0; i < 7; ++i) sched.ScheduleAfter(Duration::Nanos(i), [] {});
  sched.Run();
  EXPECT_EQ(sched.ExecutedEvents(), 7u);
}

TEST(Scheduler, NextEventTimeOfEmptyQueueIsMax) {
  Scheduler sched;
  EXPECT_EQ(sched.NextEventTime(), Time::Max());
  sched.ScheduleAfter(Duration::Millis(1), [] {});
  sched.Run();
  EXPECT_EQ(sched.NextEventTime(), Time::Max());
}

TEST(Scheduler, NextEventTimeDrainsCancelledTop) {
  obs::MetricsRegistry registry;
  Scheduler sched;
  sched.AttachMetrics(registry);
  const obs::Counter& drains = registry.GetCounter("sim.tombstone_drains");
  bool late_ran = false;
  auto early = sched.ScheduleAfter(Duration::Millis(1), [] {});
  auto middle = sched.ScheduleAfter(Duration::Millis(2), [] {});
  sched.ScheduleAfter(Duration::Millis(3), [&] { late_ran = true; });
  const auto stale = early;
  EXPECT_TRUE(sched.Cancel(early));
  EXPECT_TRUE(sched.Cancel(middle));
  EXPECT_EQ(sched.PendingEvents(), 1u);

  // Both cancelled entries sit above the live one: both drain, once.
  EXPECT_EQ(sched.NextEventTime(), Time() + Duration::Millis(3));
  EXPECT_EQ(drains.value(), 2u);
  EXPECT_EQ(sched.PendingEvents(), 1u);
  EXPECT_EQ(sched.NextEventTime(), Time() + Duration::Millis(3));
  EXPECT_EQ(drains.value(), 2u);

  // The drained slots are free again; a handle to the cancelled event must
  // not reach the event that recycles its slot.
  bool reused_ran = false;
  auto reused =
      sched.ScheduleAfter(Duration::Millis(4), [&] { reused_ran = true; });
  auto stale_copy = stale;
  EXPECT_FALSE(sched.Cancel(stale_copy));
  EXPECT_TRUE(sched.IsPending(reused));
  EXPECT_EQ(sched.PendingEvents(), 2u);
  sched.Run();
  EXPECT_TRUE(late_ran);
  EXPECT_TRUE(reused_ran);
  EXPECT_EQ(sched.ExecutedEvents(), 2u);
  EXPECT_EQ(drains.value(), 2u);
}

TEST(Scheduler, NextEventTimeNeitherRunsEventsNorMovesTheClock) {
  Scheduler sched;
  sched.RunUntil(Time() + Duration::Seconds(5));
  int ran = 0;
  sched.ScheduleAfter(Duration::Seconds(10), [&] { ++ran; });
  EXPECT_EQ(sched.NextEventTime(), Time() + Duration::Seconds(15));
  EXPECT_EQ(sched.Now(), Time() + Duration::Seconds(5));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sched.ExecutedEvents(), 0u);
  EXPECT_EQ(sched.PendingEvents(), 1u);
}

TEST(Timer, StartFiresOnce) {
  Scheduler sched;
  Timer timer(sched);
  int fired = 0;
  timer.Start(Duration::Millis(5), [&] { ++fired; });
  EXPECT_TRUE(timer.IsRunning());
  sched.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.IsRunning());
}

TEST(Timer, RestartCancelsPrevious) {
  Scheduler sched;
  Timer timer(sched);
  std::vector<int> fired;
  timer.Start(Duration::Millis(5), [&] { fired.push_back(1); });
  timer.Start(Duration::Millis(10), [&] { fired.push_back(2); });
  sched.Run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(Timer, CancelStops) {
  Scheduler sched;
  Timer timer(sched);
  bool ran = false;
  timer.Start(Duration::Millis(5), [&] { ran = true; });
  timer.Cancel();
  sched.Run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(timer.IsRunning());
}

TEST(Timer, DestructorCancels) {
  Scheduler sched;
  bool ran = false;
  {
    Timer timer(sched);
    timer.Start(Duration::Millis(5), [&] { ran = true; });
  }
  sched.Run();
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace vids::sim
