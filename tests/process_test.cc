// Process-management tests: fork semantics, wait, exit cleanup, migration
// corner cases, forwarding pointers, and orphan handling.

#include <gtest/gtest.h>

#include "src/locus/system.h"

namespace locus {
namespace {

class ProcessTest : public ::testing::Test {
 protected:
  ProcessTest() : system_(3) {}

  void RunAll() {
    system_.Run();
    EXPECT_EQ(system_.sim().blocked_process_count(), 0) << "workload deadlocked";
  }

  System system_;
};

TEST_F(ProcessTest, ForkReturnsDistinctPidsAndRunsChildren) {
  std::vector<Pid> pids;
  int ran = 0;
  system_.Spawn(0, "parent", [&](Syscalls& sys) {
    for (int i = 0; i < 5; ++i) {
      auto r = sys.Fork(i % 3, [&](Syscalls&) { ++ran; });
      ASSERT_TRUE(r.ok());
      pids.push_back(r.value);
    }
    sys.WaitChildren();
  });
  RunAll();
  EXPECT_EQ(ran, 5);
  std::sort(pids.begin(), pids.end());
  EXPECT_EQ(std::unique(pids.begin(), pids.end()), pids.end());
}

TEST_F(ProcessTest, WaitChildrenReturnsImmediatelyWithNoChildren) {
  bool done = false;
  system_.Spawn(0, "lonely", [&](Syscalls& sys) {
    sys.WaitChildren();
    done = true;
  });
  RunAll();
  EXPECT_TRUE(done);
}

TEST_F(ProcessTest, NestedForksAllComplete) {
  int leaves = 0;
  system_.Spawn(0, "root", [&](Syscalls& sys) {
    for (int i = 0; i < 2; ++i) {
      sys.Fork(1, [&](Syscalls& mid) {
        for (int j = 0; j < 2; ++j) {
          mid.Fork(2, [&](Syscalls&) { ++leaves; });
        }
        mid.WaitChildren();
      });
    }
    sys.WaitChildren();
  });
  RunAll();
  EXPECT_EQ(leaves, 4);
}

TEST_F(ProcessTest, ForkToInvalidSiteFails) {
  system_.Spawn(0, "parent", [&](Syscalls& sys) {
    EXPECT_EQ(sys.Fork(99, [](Syscalls&) {}).err, Err::kInvalid);
    EXPECT_EQ(sys.Fork(-1, [](Syscalls&) {}).err, Err::kInvalid);
  });
  RunAll();
}

TEST_F(ProcessTest, ForkToCrashedSiteFails) {
  system_.CrashSite(2);
  system_.Spawn(0, "parent", [&](Syscalls& sys) {
    EXPECT_EQ(sys.Fork(2, [](Syscalls&) {}).err, Err::kUnreachable);
  });
  RunAll();
}

TEST_F(ProcessTest, MigrateToSelfIsNoop) {
  system_.Spawn(1, "p", [&](Syscalls& sys) {
    EXPECT_EQ(sys.Migrate(1), Err::kOk);
    EXPECT_EQ(sys.CurrentSite(), 1);
  });
  RunAll();
  EXPECT_EQ(system_.stats().Get("proc.migrations"), 0);
}

TEST_F(ProcessTest, MigrateToUnreachableSiteFailsInPlace) {
  system_.Partition({{0}, {1, 2}});
  system_.Spawn(0, "p", [&](Syscalls& sys) {
    EXPECT_EQ(sys.Migrate(1), Err::kUnreachable);
    EXPECT_EQ(sys.CurrentSite(), 0);
    // Still fully operational at the old site.
    EXPECT_EQ(sys.Creat("/still-here"), Err::kOk);
  });
  RunAll();
}

TEST_F(ProcessTest, ForwardingPointersChaseRepeatedMigrations) {
  // A child exits and notifies a parent that has migrated twice; transaction
  // machinery also routes through forwarding (covered in txn tests). Here:
  // plain parent-child wait across migrations.
  bool child_done = false;
  system_.Spawn(0, "parent", [&](Syscalls& sys) {
    sys.Fork(2, [&](Syscalls& child) {
      child.Compute(Milliseconds(300));
      child_done = true;
    });
    sys.Migrate(1);
    sys.Migrate(2);
    sys.WaitChildren();  // Must still see the child's exit.
    EXPECT_TRUE(child_done);
  });
  RunAll();
}

TEST_F(ProcessTest, ChannelsFollowTheProcessAcrossMigration) {
  system_.Spawn(0, "p", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/portable"), Err::kOk);
    auto fd = sys.Open("/portable", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "before-move"), Err::kOk);
    ASSERT_EQ(sys.Migrate(2), Err::kOk);
    // The open channel still works; access is now remote.
    sys.Seek(fd.value, 0);
    auto data = sys.Read(fd.value, 11);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(std::string(data.value.begin(), data.value.end()), "before-move");
    sys.Close(fd.value);
  });
  RunAll();
}

TEST_F(ProcessTest, ExitReleasesPersonalLocks) {
  SimTime second_granted = 0;
  system_.Spawn(0, "setup", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/locked-by-dying"), Err::kOk);
    auto fd = sys.Open("/locked-by-dying", {.read = true, .write = true});
    sys.WriteString(fd.value, "contents!");
    sys.Close(fd.value);
    // Child takes an exclusive lock and exits WITHOUT unlocking.
    sys.Fork(1, [](Syscalls& child) {
      auto cfd = child.Open("/locked-by-dying", {.read = true, .write = true});
      ASSERT_EQ(child.Lock(cfd.value, 9, LockOp::kExclusive).err, Err::kOk);
      // Exit with the lock held and the channel open.
    });
    sys.WaitChildren();
    sys.Compute(Milliseconds(200));
    // The lock died with the process (section 4.3's cleanup protocols).
    auto fd2 = sys.Open("/locked-by-dying", {.read = true, .write = true});
    EXPECT_EQ(sys.Lock(fd2.value, 9, LockOp::kExclusive, {.wait = false}).err, Err::kOk);
    second_granted = sys.system().sim().Now();
    sys.Close(fd2.value);
  });
  RunAll();
  EXPECT_GT(second_granted, 0);
}

TEST_F(ProcessTest, OrphanedParentUnblocksWhenChildSiteCrashes) {
  bool parent_returned = false;
  system_.Spawn(0, "parent", [&](Syscalls& sys) {
    sys.Fork(2, [](Syscalls& child) {
      child.Compute(Seconds(600));  // Would block forever.
    });
    sys.WaitChildren();  // Child's site will crash; the wait must end.
    parent_returned = true;
  });
  system_.RunFor(Milliseconds(500));
  system_.CrashSite(2);
  system_.RunFor(Seconds(5));
  EXPECT_TRUE(parent_returned);
}

TEST_F(ProcessTest, RemoteForkPaysNetworkLatency) {
  SimTime local_cost = 0;
  SimTime remote_cost = 0;
  system_.Spawn(0, "p", [&](Syscalls& sys) {
    SimTime t0 = sys.system().sim().Now();
    sys.Fork(0, [](Syscalls&) {});
    local_cost = sys.system().sim().Now() - t0;
    t0 = sys.system().sim().Now();
    sys.Fork(1, [](Syscalls&) {});
    remote_cost = sys.system().sim().Now() - t0;
    sys.WaitChildren();
  });
  RunAll();
  EXPECT_GT(remote_cost, local_cost + Milliseconds(5));  // Image shipping.
}

TEST_F(ProcessTest, ProcessTableBookkeeping) {
  ProcessTable table;
  auto p = std::make_unique<OsProcess>();
  p->pid = 42;
  table.Add(std::move(p));
  EXPECT_NE(table.Find(42), nullptr);
  EXPECT_EQ(table.count(), 1);
  auto taken = table.Take(42);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(table.Find(42), nullptr);
  table.SetForwarding(42, 2, /*now=*/0);
  EXPECT_EQ(table.ForwardingFor(42), 2);
  EXPECT_EQ(table.ForwardingFor(7), kNoSite);
  // Re-adding clears the stale forwarding pointer.
  table.Add(std::move(taken));
  EXPECT_EQ(table.ForwardingFor(42), kNoSite);
}

// A forwarding pointer outlives every RPC time-out, then goes: the table
// holds only the pointers set within the last kForgetAfter.
TEST(ProcessTable, ForwardingPointersAreForgottenAfterTheirLifetime) {
  ProcessTable table;
  table.SetForwarding(1, 2, /*now=*/0);
  table.SetForwarding(2, 3, /*now=*/Seconds(1));
  table.SetForwarding(1, 4, /*now=*/Seconds(2));  // Moved again: a new lifetime.
  ASSERT_GT(kForgetAfter, Network::kLockCallTimeout);
  table.SetForwarding(3, 1, /*now=*/kForgetAfter + Seconds(1));
  EXPECT_EQ(table.ForwardingFor(2), kNoSite);  // Set at 1 s: forgotten.
  EXPECT_EQ(table.ForwardingFor(1), 4);        // Reset at 2 s: still held.
  EXPECT_EQ(table.ForwardingFor(3), 1);
  EXPECT_EQ(table.forwarding_count(), 2u);
  table.SetForwarding(4, 1, /*now=*/kForgetAfter + Seconds(2));
  EXPECT_EQ(table.ForwardingFor(1), kNoSite);
  EXPECT_EQ(table.forwarding_count(), 2u);
}

}  // namespace
}  // namespace locus
