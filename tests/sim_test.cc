// Tests for the discrete-event engine: ordering, virtual time, cooperative
// processes, wait queues, determinism, forced termination, and the reuse of
// fibers and process records.

#include "src/sim/simulation.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/time.h"

namespace locus {
namespace {

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(Milliseconds(1), 1000);
  EXPECT_EQ(Seconds(1), 1000 * 1000);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(42)), 42.0);
}

TEST(SimTime, InstructionCostMatchesPaperCalibration) {
  // 750 instructions should land near the paper's 1.5-2 ms local lock cost.
  SimTime lock_cost = InstructionCost(750);
  EXPECT_GE(lock_cost, Microseconds(1400));
  EXPECT_LE(lock_cost, Milliseconds(2));
  // 9450 instructions should land near the 21 ms non-overlap commit service.
  SimTime commit_cost = InstructionCost(9450);
  EXPECT_GE(commit_cost, Milliseconds(20));
  EXPECT_LE(commit_cost, Milliseconds(22));
}

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Milliseconds(30));
}

TEST(Simulation, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// An event scheduled earlier for time T waits in the heap; zero-delay events
// scheduled once the clock reaches T queue behind it, in schedule order.
TEST(Simulation, EarlierScheduledEventRunsBeforeZeroDelayEventsAtItsTime) {
  Simulation sim;
  std::vector<std::string> order;
  sim.Schedule(Milliseconds(5), [&] {
    order.push_back("first");
    sim.Schedule(0, [&] { order.push_back("now1"); });
    sim.Schedule(0, [&] { order.push_back("now2"); });
  });
  sim.Schedule(Milliseconds(5), [&] { order.push_back("second"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "now1", "now2"}));
}

// Stop() can leave zero-delay events queued while RunFor moves the clock to
// its deadline. The next RunFor runs them first, in schedule order, then the
// events due at the new time: the heap one scheduled earlier, then the new
// zero-delay one.
TEST(Simulation, ZeroDelayEventsKeepScheduleOrderAcrossStop) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(0, [&] {
    order.push_back(0);
    sim.Stop();
  });
  for (int i = 1; i <= 4; ++i) {
    sim.Schedule(0, [&order, i] { order.push_back(i); });
  }
  sim.Schedule(Milliseconds(1), [&] { order.push_back(100); });
  sim.RunFor(Milliseconds(1));
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(sim.Now(), Milliseconds(1));
  sim.Schedule(0, [&] { order.push_back(5); });
  sim.RunFor(Milliseconds(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 100, 5}));
}

// Records every tie it is offered; on its second consultation it picks the
// last option instead of the first.
class RecordingPolicy : public SchedulePolicy {
 public:
  size_t PickNext(SimTime now, const std::vector<EventInfo>& options) override {
    (void)now;
    std::vector<int32_t> ids;
    for (const EventInfo& info : options) {
      ids.push_back(info.a);
    }
    ties.push_back(ids);
    return ties.size() == 2 ? options.size() - 1 : 0;
  }
  std::vector<std::vector<int32_t>> ties;
};

// A tie can mix events scheduled ahead (the heap) with zero-delay events
// (the FIFO). The policy sees them all, in seq order, and the events it
// passes over keep that order.
TEST(Simulation, PolicySeesTiesAcrossHeapAndZeroDelayEventsInSeqOrder) {
  Simulation sim;
  RecordingPolicy policy;
  sim.set_schedule_policy(&policy);
  std::vector<int32_t> order;
  auto record = [&order](int32_t id) { return [&order, id] { order.push_back(id); }; };
  sim.Schedule(Milliseconds(5), EventInfo{EventTag::kGeneric, 1}, [&] {
    order.push_back(1);
    sim.Schedule(0, EventInfo{EventTag::kGeneric, 3}, record(3));
    sim.Schedule(0, EventInfo{EventTag::kGeneric, 4}, record(4));
  });
  sim.Schedule(Milliseconds(5), EventInfo{EventTag::kGeneric, 2}, record(2));
  sim.Run();
  EXPECT_EQ(policy.ties, (std::vector<std::vector<int32_t>>{{1, 2}, {2, 3, 4}, {2, 3}}));
  EXPECT_EQ(order, (std::vector<int32_t>{1, 4, 2, 3}));

  // A sleep expiry ties like any event. Passed over for a zero-delay event
  // and then due alone, it resumes its process (pid 1) in place.
  Simulation sleepy;
  RecordingPolicy sleep_policy;
  sleepy.set_schedule_policy(&sleep_policy);
  order.clear();
  sleepy.Schedule(Milliseconds(5), EventInfo{EventTag::kGeneric, 7}, [&] {
    order.push_back(7);
    sleepy.Schedule(0, EventInfo{EventTag::kGeneric, 8}, record(8));
  });
  sleepy.Spawn("sleeper", [&] {
    sleepy.Sleep(Milliseconds(5));
    order.push_back(100 + static_cast<int32_t>(Simulation::Current()->id()));
  });
  sleepy.Run();
  EXPECT_EQ(sleep_policy.ties, (std::vector<std::vector<int32_t>>{{7, 1}, {1, 8}}));
  EXPECT_EQ(order, (std::vector<int32_t>{7, 8, 101}));
}

// Every LOCUS_EVENT_TAGS row's columns, pinned: the labels are what a
// counterexample trace carries, the actor site is what PCT and the DFS's
// partial-order reduction group by, and the widening tags are the ones a tie
// window may reorder across time. Distinct field values show which field each
// label and actor reads.
TEST(EventTags, EveryRowsLabelActorAndTieWindowColumn) {
  struct Row {
    EventTag tag;
    const char* label;
    int32_t actor;
    bool widens;
  };
  const Row rows[] = {
      {EventTag::kGeneric, "evt", -1, false},
      {EventTag::kWakeup, "wake:p4", -1, false},
      {EventTag::kSleepDone, "sleep:p4", -1, false},
      {EventTag::kNetDeliver, "dlv:4>5:t6", 5, true},
      {EventTag::kRpcReply, "rpy:4>5:c6", 5, true},
      {EventTag::kRpcTimeout, "tmo:4>5:c6", 4, true},
      {EventTag::kTopology, "topo:s4", 4, true},
      {EventTag::kFormFlush, "form:4>5", 4, true},
  };
  for (size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    SCOPED_TRACE(row.label);
    EXPECT_EQ(static_cast<size_t>(row.tag), i);
    const EventInfo info{row.tag, 4, 5, 6};
    EXPECT_EQ(EventInfoLabel(info), row.label);
    EXPECT_EQ(ActorSite(info), row.actor);
    EXPECT_EQ(TieWindowWidens(row.tag), row.widens);
  }
  // A tag no row has reads as an untagged event.
  const EventInfo unknown{static_cast<EventTag>(std::size(rows)), 4, 5, 6};
  EXPECT_EQ(EventInfoLabel(unknown), "evt");
  EXPECT_EQ(ActorSite(unknown), -1);
  EXPECT_FALSE(TieWindowWidens(unknown.tag));
}

// Differential check of the queues against their specification: events at
// random, often equal, times, some of them scheduled from inside events
// (zero-delay ones included), run exactly in (time, schedule order).
TEST(Simulation, RandomEventsRunInTimeThenScheduleOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Simulation sim;
    Rng rng(seed);
    struct Scheduled {
      SimTime time;
      int order;
    };
    std::vector<Scheduled> scheduled;
    std::vector<int> ran;
    // Schedules event number scheduled.size(), which may schedule up to two
    // more when it runs.
    std::function<void(int)> schedule = [&](int depth) {
      const SimTime delay = rng.Chance(0.3) ? 0 : rng.Range(0, 4) * 10;
      const int order = static_cast<int>(scheduled.size());
      scheduled.push_back(Scheduled{sim.Now() + delay, order});
      sim.Schedule(delay, [&, order, depth] {
        EXPECT_EQ(sim.Now(), scheduled[order].time);
        ran.push_back(order);
        for (int i = 0; depth < 3 && i < 2; ++i) {
          if (rng.Chance(0.5)) {
            schedule(depth + 1);
          }
        }
      });
    };
    for (int i = 0; i < 200; ++i) {
      schedule(0);
    }
    sim.Run();
    std::vector<Scheduled> expected = scheduled;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Scheduled& a, const Scheduled& b) { return a.time < b.time; });
    ASSERT_EQ(ran.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < ran.size(); ++i) {
      ASSERT_EQ(ran[i], expected[i].order) << "seed " << seed << ", event " << i;
    }
  }
}

// Counts the destructions of the object it was built as; its moved-from
// shells count nothing.
struct DestroyCounter {
  explicit DestroyCounter(int* destroyed) : count(destroyed) {}
  DestroyCounter(DestroyCounter&& other) noexcept : count(other.count) { other.count = nullptr; }
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (count != nullptr) {
      ++*count;
    }
  }
  int* count;
};

TEST(Callback, RunsAMoveOnlyCaptureAndMovesWithIt) {
  int got = 0;
  Callback<> cb = [value = std::make_unique<int>(7), &got] { got = *value; };
  Callback<> moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): a moved-from Callback is empty.
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(got, 7);

  Simulation sim;
  sim.Schedule(Milliseconds(1), [value = std::make_unique<int>(8), &got] { got = *value; });
  sim.Spawn("owner", [value = std::make_unique<int>(9), &got, &sim] {
    sim.Sleep(Milliseconds(2));
    got += *value;
  });
  sim.Run();
  EXPECT_EQ(got, 17);
}

// Captures are destroyed exactly once: right after their event runs, when a
// process body ends, or at teardown for events still pending and processes
// still blocked.
TEST(Callback, PendingCapturesAreDestroyedOnceAtTeardown) {
  auto token = std::make_shared<int>(0);
  int destroyed = 0;
  {
    Simulation sim;
    WaitQueue never(&sim);
    sim.Schedule(Milliseconds(1), [token] {});
    sim.Schedule(Seconds(10), [token, counter = DestroyCounter(&destroyed)] {});
    sim.Schedule(Seconds(20), [token] {});
    sim.Spawn("blocked", [token, &never] { never.Wait(); });
    sim.Spawn("sleeping", [token, counter = DestroyCounter(&destroyed), &sim] {
      sim.Sleep(Seconds(30));
    });
    EXPECT_EQ(token.use_count(), 6);
    sim.RunFor(Milliseconds(5));
    EXPECT_EQ(token.use_count(), 5);  // The 1 ms event ran; its capture went with it.
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(destroyed, 2);
}

// A slot freed by a finished event serves the next Schedule, which runs its
// own closure: a chain of events, each scheduling the next, reuses one slot.
TEST(Callback, AReusedSlotRunsItsNewClosure) {
  Simulation sim;
  std::vector<int> ran;
  int destroyed = 0;
  std::function<void(int)> chain = [&](int i) {
    sim.Schedule(Milliseconds(1), [&, i, counter = DestroyCounter(&destroyed)] {
      ran.push_back(i);
      if (i < 99) {
        chain(i + 1);
      }
    });
  };
  chain(0);
  sim.Run();
  ASSERT_EQ(ran.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ran[i], i);
  }
  EXPECT_EQ(destroyed, 100);
}

// A cancelled event never runs: its closure is destroyed at once, and its
// slot serves the next event. Cancelling it again, or cancelling an event
// that already ran, is a no-op, also once that event's slot holds another.
TEST(Simulation, CancelledEventNeverRunsAndItsSlotServesTheNext) {
  Simulation sim;
  std::vector<std::string> ran;
  int destroyed = 0;
  const EventId cancelled = sim.Schedule(Milliseconds(5), [&, counter = DestroyCounter(&destroyed)] {
    ran.push_back("cancelled");
  });
  sim.Schedule(Milliseconds(1), [&] { ran.push_back("kept"); });
  sim.Cancel(cancelled);
  EXPECT_EQ(destroyed, 1);
  // The slot just freed serves this event; the stale id must not reach it.
  sim.Schedule(Milliseconds(5), [&] { ran.push_back("reused"); });
  sim.Cancel(cancelled);
  sim.Cancel(EventId());
  sim.Run();
  EXPECT_EQ(ran, (std::vector<std::string>{"kept", "reused"}));
  EXPECT_EQ(sim.Now(), Milliseconds(5));
  EXPECT_EQ(sim.pending_event_count(), 0u);

  // An event that ran cannot be cancelled, not even through the event now
  // in its slot.
  const EventId done = sim.Schedule(Milliseconds(1), [&] { ran.push_back("done"); });
  sim.Run();
  sim.Schedule(Milliseconds(1), [&] { ran.push_back("next"); });
  sim.Schedule(0, [&] { ran.push_back("now"); });
  sim.Cancel(done);
  sim.Run();
  EXPECT_EQ(ran, (std::vector<std::string>{"kept", "reused", "done", "now", "next"}));
}

// An event cancelled while it runs is past cancelling, and a zero-delay
// event cancels like any other.
TEST(Simulation, CancelSkipsRunningAndZeroDelayEvents) {
  Simulation sim;
  std::vector<std::string> ran;
  EventId self;
  self = sim.Schedule(Milliseconds(1), [&] {
    sim.Cancel(self);
    ran.push_back("self");
    const EventId zero = sim.Schedule(0, [&] { ran.push_back("zero"); });
    sim.Schedule(0, [&] { ran.push_back("zero2"); });
    sim.Cancel(zero);
  });
  sim.Run();
  EXPECT_EQ(ran, (std::vector<std::string>{"self", "zero2"}));
}

// Under a SchedulePolicy, Cancel does nothing: the event stays to be offered
// in ties, and runs.
TEST(Simulation, CancelIsANoOpUnderAPolicy) {
  Simulation sim;
  SchedulePolicy policy;
  sim.set_schedule_policy(&policy);
  bool ran = false;
  const EventId id = sim.Schedule(Milliseconds(5), [&] { ran = true; });
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), Milliseconds(5));
}

// Differential check of cancellation: events at random, often equal, times
// (zero delays included), some scheduled and some cancelled from inside
// events, so many cancelled that the heap is rebuilt again and again, while
// events that already ran or were cancelled are cancelled again, to no
// effect. The survivors run exactly in (time, schedule order); the cancelled
// never run.
TEST(Simulation, RandomScheduleAndCancelRunsSurvivorsInTimeThenScheduleOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Simulation sim;
    Rng rng(seed);
    struct Scheduled {
      SimTime time;
      int order;
      EventId id;
      bool cancelled = false;
    };
    std::vector<Scheduled> scheduled;
    // Events neither run nor cancelled, by order.
    std::vector<int> pending;
    std::vector<int> ran;
    auto forget = [&](size_t i) {
      pending[i] = pending.back();
      pending.pop_back();
    };
    auto cancel_some = [&] {
      if (!pending.empty() && rng.Chance(0.6)) {
        const size_t i = rng.Below(pending.size());
        scheduled[pending[i]].cancelled = true;
        sim.Cancel(scheduled[pending[i]].id);
        forget(i);
      }
      const Scheduled& any = scheduled[rng.Below(scheduled.size())];
      if (std::find(pending.begin(), pending.end(), any.order) == pending.end()) {
        sim.Cancel(any.id);  // It ran or was cancelled: a no-op.
      }
    };
    std::function<void(int)> schedule = [&](int depth) {
      const SimTime delay = rng.Chance(0.3) ? 0 : rng.Range(0, 4) * 10;
      const int order = static_cast<int>(scheduled.size());
      scheduled.push_back(Scheduled{sim.Now() + delay, order, EventId()});
      pending.push_back(order);
      scheduled[order].id = sim.Schedule(delay, [&, order, depth] {
        EXPECT_FALSE(scheduled[order].cancelled) << "seed " << seed << ", event " << order;
        EXPECT_EQ(sim.Now(), scheduled[order].time);
        ran.push_back(order);
        forget(std::find(pending.begin(), pending.end(), order) - pending.begin());
        for (int i = 0; depth < 3 && i < 3; ++i) {
          if (rng.Chance(0.6)) {
            schedule(depth + 1);
          }
        }
        cancel_some();
      });
    };
    for (int i = 0; i < 300; ++i) {
      schedule(0);
      cancel_some();
    }
    sim.Run();
    EXPECT_EQ(sim.pending_event_count(), 0u);
    std::vector<Scheduled> expected;
    for (const Scheduled& s : scheduled) {
      if (!s.cancelled) {
        expected.push_back(s);
      }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Scheduled& a, const Scheduled& b) { return a.time < b.time; });
    ASSERT_EQ(ran.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < ran.size(); ++i) {
      ASSERT_EQ(ran[i], expected[i].order) << "seed " << seed << ", event " << i;
    }
  }
}

// A sleep that expires alone resumes its process in place. One that expires
// where another event is still due at that instant lets that event run
// first, as the separate wake-up event always did: an event scheduled
// earlier for that instant runs before the expiry, while one scheduled after
// the sleep began, or a zero-delay one scheduled at that instant, runs
// between the expiry and the wake-up.
TEST(Simulation, SleepExpiryKeepsTheHistoricalOrder) {
  auto run = [](bool earlier, bool later, bool zero_delay) {
    Simulation sim;
    std::vector<std::string> order;
    if (earlier) {
      sim.Schedule(Milliseconds(5), [&] {
        order.push_back("earlier");
        if (zero_delay) {
          sim.Schedule(0, [&] { order.push_back("zero"); });
        }
      });
    }
    sim.Spawn("sleeper", [&] {
      sim.Sleep(Milliseconds(5));
      order.push_back("sleeper@" + std::to_string(sim.Now()));
      sim.Schedule(0, [&] { order.push_back("after"); });
    });
    if (later) {
      // Scheduled at 1 ms, after the sleep began, for the expiry's instant.
      sim.Schedule(Milliseconds(1), [&] {
        sim.Schedule(Milliseconds(4), [&] { order.push_back("later"); });
      });
    }
    sim.Run();
    return order;
  };
  using Order = std::vector<std::string>;
  EXPECT_EQ(run(false, false, false), (Order{"sleeper@5000", "after"}));
  EXPECT_EQ(run(true, false, false), (Order{"earlier", "sleeper@5000", "after"}));
  EXPECT_EQ(run(true, false, true), (Order{"earlier", "zero", "sleeper@5000", "after"}));
  EXPECT_EQ(run(false, true, false), (Order{"later", "sleeper@5000", "after"}));
  EXPECT_EQ(run(true, true, true),
            (Order{"earlier", "later", "zero", "sleeper@5000", "after"}));
}

// A sleep that ends where an event is pending ends after that event: one
// scheduled before the sleep began, or after it, for the expiry's instant.
TEST(Simulation, SleepEndingAtAPendingEventsTimeRunsAfterIt) {
  for (bool event_first : {true, false}) {
    Simulation sim;
    std::vector<std::string> order;
    auto event = [&] { order.push_back("event@" + std::to_string(sim.Now())); };
    if (event_first) {
      sim.Schedule(Milliseconds(5), event);
    }
    sim.Spawn("sleeper", [&] {
      if (!event_first) {
        sim.Schedule(Milliseconds(5), event);
      }
      sim.Sleep(Milliseconds(5));
      order.push_back("sleeper@" + std::to_string(sim.Now()));
    });
    sim.Run();
    EXPECT_EQ(order, (std::vector<std::string>{"event@5000", "sleeper@5000"}))
        << "event scheduled " << (event_first ? "before" : "after") << " the sleep";
  }
}

// A sleep past RunFor's deadline parks the process: the clock stops at the
// deadline, and the next Run resumes the process at its expiry. So does a
// sleep begun after Stop().
TEST(Simulation, SleepPastTheDeadlineOrAfterStopParksTheProcess) {
  Simulation sim;
  std::vector<SimTime> woke;
  sim.Spawn("sleeper", [&] {
    sim.Sleep(Milliseconds(3));
    woke.push_back(sim.Now());
    sim.Sleep(Milliseconds(10));
    woke.push_back(sim.Now());
    sim.Stop();
    sim.Sleep(Milliseconds(1));
    woke.push_back(sim.Now());
  });
  sim.RunFor(Milliseconds(5));
  EXPECT_EQ(sim.Now(), Milliseconds(5));
  EXPECT_EQ(woke, (std::vector<SimTime>{Milliseconds(3)}));
  EXPECT_EQ(sim.blocked_process_count(), 1);
  sim.Run();
  EXPECT_EQ(woke, (std::vector<SimTime>{Milliseconds(3), Milliseconds(13)}));
  EXPECT_EQ(sim.Now(), Milliseconds(13));
  EXPECT_EQ(sim.blocked_process_count(), 1);
  sim.Run();
  EXPECT_EQ(woke, (std::vector<SimTime>{Milliseconds(3), Milliseconds(13), Milliseconds(14)}));
  EXPECT_EQ(sim.blocked_process_count(), 0);
}

// A process is named by text, or by the parts of a kernel process's name,
// which are formatted only when the name is read.
TEST(Simulation, ProcessNamesFormatTextOrParts) {
  EXPECT_EQ(ProcessName("teller3").Format(), "teller3");
  EXPECT_EQ(ProcessName(std::string("auditor")).Format(), "auditor");
  EXPECT_EQ(ProcessName("site2", "svc", 7, 41).Format(), "site2:svc7#41");
  EXPECT_EQ(ProcessName("site10", "phase2", -1, 5).Format(), "site10:phase2#5");
  Simulation sim;
  std::string seen;
  sim.Spawn(ProcessName("site1", "svc", 12, 3),
            [&] { seen = Simulation::Current()->name(); });
  sim.Run();
  EXPECT_EQ(seen, "site1:svc12#3");
}

TEST(Simulation, ProcessSleepAdvancesVirtualTime) {
  Simulation sim;
  SimTime observed = -1;
  sim.Spawn("sleeper", [&] {
    sim.Sleep(Milliseconds(7));
    observed = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(observed, Milliseconds(7));
}

TEST(Simulation, ProcessesInterleaveAtBlockingPoints) {
  Simulation sim;
  std::vector<std::string> log;
  sim.Spawn("a", [&] {
    log.push_back("a1");
    sim.Sleep(Milliseconds(10));
    log.push_back("a2");
  });
  sim.Spawn("b", [&] {
    log.push_back("b1");
    sim.Sleep(Milliseconds(5));
    log.push_back("b2");
  });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b1", "b2", "a2"}));
}

TEST(Simulation, WaitQueueBlocksUntilNotified) {
  Simulation sim;
  WaitQueue queue(&sim);
  SimTime woke_at = -1;
  sim.Spawn("waiter", [&] {
    queue.Wait();
    woke_at = sim.Now();
  });
  sim.Schedule(Milliseconds(25), [&] { queue.NotifyOne(); });
  sim.Run();
  EXPECT_EQ(woke_at, Milliseconds(25));
  EXPECT_EQ(sim.blocked_process_count(), 0);
}

TEST(Simulation, NotifyAllWakesEveryWaiter) {
  Simulation sim;
  WaitQueue queue(&sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn("w" + std::to_string(i), [&] {
      queue.Wait();
      ++woken;
    });
  }
  sim.Schedule(Milliseconds(1), [&] { queue.NotifyAll(); });
  sim.Run();
  EXPECT_EQ(woken, 5);
}

TEST(Simulation, BlockedProcessReportedWhenNeverNotified) {
  Simulation sim;
  WaitQueue queue(&sim);
  sim.Spawn("stuck", [&] { queue.Wait(); });
  sim.Run();
  EXPECT_EQ(sim.blocked_process_count(), 1);
}

TEST(Simulation, KillUnwindsBlockedProcess) {
  Simulation sim;
  WaitQueue queue(&sim);
  bool cleaned_up = false;
  bool reached_end = false;
  ProcessHandle victim = sim.Spawn("victim", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    queue.Wait();
    reached_end = true;
  });
  sim.Schedule(Milliseconds(10), [&] { sim.Kill(victim); });
  sim.Run();
  EXPECT_TRUE(cleaned_up);   // RAII ran during unwind.
  EXPECT_FALSE(reached_end);  // Body never resumed normally.
  EXPECT_TRUE(victim.finished());
}

TEST(Simulation, KillIsIdempotentAndStaleWakeupsAreHarmless) {
  Simulation sim;
  WaitQueue queue(&sim);
  ProcessHandle victim = sim.Spawn("victim", [&] { queue.Wait(); });
  sim.Schedule(Milliseconds(1), [&] {
    sim.Kill(victim);
    sim.Kill(victim);
  });
  sim.Schedule(Milliseconds(2), [&] { queue.NotifyAll(); });  // Stale wake-up.
  sim.Run();
  EXPECT_TRUE(victim.finished());
}

// Throws from `depth` frames down, each frame holding a stack array.
void ThrowFromDepth(int depth) {
  volatile char pad[128];
  pad[0] = static_cast<char>(depth);
  if (depth == 0) {
    throw std::runtime_error("deep");
  }
  ThrowFromDepth(depth - 1);
  pad[1] = pad[0];  // Keeps the call out of tail position.
}

// The path Kernel::MaybeCrashAt takes: a running process kills itself and
// throws SimCancelled, unwinding its own fiber while the others run on.
// Under AddressSanitizer the earlier caught exception leaves poisoned frames
// below the fiber's stack pointer unless the simulator reported the fiber's
// stack bounds, and the second throw then trips over them.
TEST(Simulation, SelfCancelUnwindsOnlyTheThrowingProcess) {
  Simulation sim;
  bool cleaned_up = false;
  bool reached_end = false;
  int ticks = 0;
  ProcessHandle crasher = sim.Spawn("crasher", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    auto crash_here = [&] {
      sim.Kill(Simulation::Current()->handle());
      throw SimCancelled{};
    };
    sim.Sleep(Milliseconds(5));
    try {
      ThrowFromDepth(8);
    } catch (const std::runtime_error&) {
    }
    crash_here();
    reached_end = true;
  });
  ProcessHandle bystander = sim.Spawn("bystander", [&] {
    for (int i = 0; i < 4; ++i) {
      sim.Sleep(Milliseconds(3));
      ++ticks;
    }
  });
  sim.Run();
  EXPECT_TRUE(cleaned_up);   // RAII ran during unwind.
  EXPECT_FALSE(reached_end);
  EXPECT_TRUE(crasher.finished());
  EXPECT_EQ(ticks, 4);
  EXPECT_TRUE(bystander.finished());
  EXPECT_EQ(sim.Now(), Milliseconds(12));
}

// AddressSanitizer's shadow memory defeats an address-space limit: these
// helpers, like the death tests that use them, are built only without it.
#if !defined(__SANITIZE_ADDRESS__)
// Caps the address space at its current size, leaving no room to map
// another fiber stack.
void CapAddressSpace() {
  unsigned long pages = 0;
  FILE* statm = fopen("/proc/self/statm", "r");
  ASSERT_NE(statm, nullptr);
  ASSERT_EQ(fscanf(statm, "%lu", &pages), 1);
  fclose(statm);
  const rlim_t cap = pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
  const rlimit limit{cap, cap};
  ASSERT_EQ(setrlimit(RLIMIT_AS, &limit), 0);
}

// Spawns one more process with the address space full. Stacks pooled by
// earlier Simulations on the thread would serve it without a mapping; gtest
// runs the *DeathTest suites first, before any other test has pooled one.
void SpawnWithAddressSpaceFull() {
  Simulation sim;
  sim.Spawn("warm-up", [] {});  // Grows the heap before the cap.
  CapAddressSpace();
  sim.Spawn("starved", [] {});
}

// Runs a process to completion, fills the address space, then runs a second
// process, which needs the first one's stack. Exits 0 once it has run.
void RunOnRecycledStackWithAddressSpaceFull() {
  Simulation sim;
  sim.Spawn("warm-up", [] {});
  sim.Run();
  CapAddressSpace();
  if (testing::Test::HasFatalFailure()) {
    exit(2);  // Without the cap the run would prove nothing.
  }
  bool ran = false;
  sim.Spawn("recycled", [&ran] { ran = true; });
  sim.Run();
  exit(ran ? 0 : 1);
}
#endif  // !__SANITIZE_ADDRESS__

// A fiber stack that cannot be mapped aborts with a diagnostic in every build
// type, NDEBUG ones included.
TEST(SimulationDeathTest, FiberStackAllocationFailureAborts) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer's shadow memory defeats an address-space limit";
#else
  EXPECT_DEATH(SpawnWithAddressSpaceFull(),
               "cannot allocate a fiber stack for process 'starved': .* with 1 processes "
               "spawned");
#endif
}

// A finished process's stack serves the next Spawn: no new mapping is needed.
TEST(SimulationDeathTest, FinishedFiberStackIsReused) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer's shadow memory defeats an address-space limit";
#else
  EXPECT_EXIT(RunOnRecycledStackWithAddressSpaceFull(), testing::ExitedWithCode(0), "");
#endif
}

// One Simulation runs more processes, one after another, than it could ever
// hold stacks for at once: each stack is two mappings (stack and guard page),
// and the default vm.max_map_count of 65530 stops a run that keeps them all
// near 32.7k spawns. The processes end in all three ways a fiber can: by
// returning, by a Kill while blocked, and by throwing SimCancelled after a
// caught exception has left frames on the stack.
TEST(Simulation, FinishedStacksCarryARunPastTheMappingLimit) {
  constexpr int kProcesses = 40000;
  Simulation sim;
  WaitQueue never_notified(&sim);
  int returned = 0;
  int unwound = 0;
  struct CountUnwind {
    int* count;
    ~CountUnwind() { ++*count; }
  };
  for (int i = 0; i < kProcesses; ++i) {
    switch (i % 3) {
      case 0:
        sim.Spawn("returns", [&] {
          sim.Sleep(Microseconds(1));
          ++returned;
        });
        break;
      case 1: {
        ProcessHandle victim = sim.Spawn("killed", [&] {
          CountUnwind guard{&unwound};
          never_notified.Wait();
        });
        sim.Schedule(Microseconds(1), [&sim, victim] { sim.Kill(victim); });
        break;
      }
      default:
        sim.Spawn("throws", [&] {
          CountUnwind guard{&unwound};
          try {
            ThrowFromDepth(8);
          } catch (const std::runtime_error&) {
          }
          sim.Kill(Simulation::Current()->handle());
          throw SimCancelled{};
        });
        break;
    }
    sim.Run();
  }
  EXPECT_EQ(sim.spawned_process_count(), kProcesses);
  EXPECT_EQ(sim.blocked_process_count(), 0);
  EXPECT_EQ(returned + unwound, kProcesses);
}

// A fiber whose body returned, was killed while blocked, or threw
// SimCancelled runs the next Spawn's body cleanly, and no more stacks are
// mapped than processes were ever live at once.
TEST(Simulation, FibersRunTheNextBodyHoweverTheLastOneEnded) {
  Simulation sim;
  WaitQueue never_notified(&sim);
  int unwound = 0;
  struct CountUnwind {
    int* count;
    ~CountUnwind() { ++*count; }
  };
  sim.Spawn("returns", [&] { sim.Sleep(Microseconds(1)); });
  ProcessHandle victim = sim.Spawn("killed", [&] {
    CountUnwind guard{&unwound};
    never_notified.Wait();
  });
  sim.Spawn("throws", [&] {
    CountUnwind guard{&unwound};
    try {
      ThrowFromDepth(8);
    } catch (const std::runtime_error&) {
    }
    sim.Kill(Simulation::Current()->handle());
    throw SimCancelled{};
  });
  sim.Schedule(Microseconds(1), [&] { sim.Kill(victim); });
  sim.Run();
  EXPECT_EQ(unwound, 2);
  EXPECT_EQ(sim.live_process_count(), 0);
  EXPECT_EQ(sim.idle_fiber_count(), 3);

  // Four bodies at once: the three idle fibers and one newly mapped.
  WaitQueue gate(&sim);
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn("next", [&, i] {
      sim.Sleep(Microseconds(1 + i));
      try {
        ThrowFromDepth(8);
      } catch (const std::runtime_error&) {
      }
      gate.Wait();
      ++finished;
    });
  }
  EXPECT_EQ(sim.idle_fiber_count(), 0);
  EXPECT_EQ(sim.live_process_count(), 4);
  sim.Schedule(Milliseconds(1), [&] { gate.NotifyAll(); });
  sim.Run();
  EXPECT_EQ(finished, 4);
  EXPECT_EQ(sim.live_process_count(), 0);
  EXPECT_EQ(sim.idle_fiber_count(), 4);
  EXPECT_EQ(sim.spawned_process_count(), 7);
}

// A finished process's record serves the next Spawn. Its old handle reads as
// finished and Kill through it does nothing; a queue entry it left behind
// when killed takes its notification with it rather than waking the
// record's new process.
// Stacks outlive their Simulation: back-to-back Simulations on one thread
// map no new stacks once one of them has mapped as many as any needs, and a
// stack whose last body unwound through SimCancelled (killed while blocked,
// or still blocked at teardown) runs the next Simulation's bodies cleanly.
// Under AddressSanitizer a redzone left on a reused stack, or a fiber entered
// without its switch annotated, is reported here.
TEST(Simulation, StacksOutliveTheirSimulation) {
  static constexpr int kLive = 6;
  // Runs kLive processes at once: each touches a deep frame, throws and
  // catches an exception from depth, and sleeps. The last one is killed
  // while blocked; with `leave_blocked` the rest are left blocked for the
  // teardown to unwind.
  auto run_one = [](bool leave_blocked) {
    Simulation sim;
    WaitQueue never_notified(&sim);
    int ran = 0;
    std::vector<ProcessHandle> processes;
    for (int i = 0; i < kLive; ++i) {
      processes.push_back(sim.Spawn("worker", [&, i] {
        volatile char frame[4096];
        frame[0] = 1;
        frame[sizeof(frame) - 1] = frame[0];
        try {
          ThrowFromDepth(8);
        } catch (const std::runtime_error&) {
        }
        sim.Sleep(Microseconds(1));
        ++ran;
        if (leave_blocked || i == kLive - 1) {
          never_notified.Wait();
        }
      }));
    }
    sim.Schedule(Milliseconds(1), [&] { sim.Kill(processes.back()); });
    sim.Run();
    EXPECT_EQ(ran, kLive);
    EXPECT_EQ(sim.blocked_process_count(), leave_blocked ? kLive - 1 : 0);
  };
  run_one(/*leave_blocked=*/true);
  const uint64_t mapped = Simulation::mapped_stack_count();
  for (int round = 0; round < 4; ++round) {
    run_one(/*leave_blocked=*/round % 2 == 0);
  }
  EXPECT_EQ(Simulation::mapped_stack_count(), mapped);
}

TEST(Simulation, StaleHandleAndQueueEntryMissTheRecordsNextProcess) {
  Simulation sim;
  WaitQueue left_behind(&sim);
  WaitQueue gate(&sim);
  ProcessHandle old = sim.Spawn("old", [&] { left_behind.Wait(); });
  sim.Schedule(Milliseconds(1), [&] { sim.Kill(old); });
  sim.Run();
  EXPECT_TRUE(old.finished());
  EXPECT_EQ(left_behind.size(), 1u);

  bool woke = false;
  ProcessHandle fresh = sim.Spawn("fresh", [&] {
    gate.Wait();
    woke = true;
  });
  sim.Run();
  EXPECT_TRUE(old.finished());
  EXPECT_FALSE(fresh.finished());
  sim.Schedule(Milliseconds(1), [&] {
    sim.Kill(old);
    left_behind.NotifyOne();
  });
  sim.Run();
  EXPECT_FALSE(woke);
  EXPECT_EQ(sim.blocked_process_count(), 1);
  EXPECT_TRUE(left_behind.empty());
  sim.Schedule(Milliseconds(1), [&] { gate.NotifyOne(); });
  sim.Run();
  EXPECT_TRUE(woke);
  EXPECT_TRUE(fresh.finished());
}

TEST(Simulation, RunForStopsAtDeadline) {
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.Schedule(Milliseconds(10), tick);
  };
  sim.Schedule(Milliseconds(10), tick);
  sim.RunFor(Milliseconds(55));
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.Now(), Milliseconds(55));
}

TEST(Simulation, BurnInstructionsAdvancesClock) {
  Simulation sim;
  sim.Spawn("cpu", [&] { sim.BurnInstructions(kInstructionsPerMs * 3); });
  sim.Run();
  EXPECT_EQ(sim.Now(), Milliseconds(3));
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<int64_t> trace;
    for (int i = 0; i < 4; ++i) {
      sim.Spawn("p" + std::to_string(i), [&, i] {
        for (int j = 0; j < 5; ++j) {
          sim.Sleep(Microseconds(static_cast<int64_t>(sim.rng().Below(5000))));
          trace.push_back(sim.Now() * 16 + i);
        }
      });
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Simulation, TeardownWithBlockedProcessesDoesNotHang) {
  auto sim = std::make_unique<Simulation>();
  WaitQueue queue(sim.get());
  for (int i = 0; i < 3; ++i) {
    sim->Spawn("stuck" + std::to_string(i), [&] { queue.Wait(); });
  }
  sim->Run();
  sim.reset();  // Must unwind every blocked fiber without hanging.
  SUCCEED();
}

TEST(Rng, DeterministicAndRoughlyUniform) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(1);
  int buckets[10] = {0};
  for (int i = 0; i < 10000; ++i) {
    buckets[r.Below(10)]++;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(buckets[i], 800);
    EXPECT_LT(buckets[i], 1200);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng r(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Range(2, 4);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 4);
    saw_lo |= v == 2;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace locus
