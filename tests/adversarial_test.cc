// Adversarial interleavings: upgrade deadlocks, faults landing in protocol
// windows (migration, prepare, member exit), lock waits crossed with aborts,
// and hostile-but-legal API usage.

#include <gtest/gtest.h>

#include <string>

#include "src/locus/system.h"

namespace locus {
namespace {

std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class AdversarialTest : public ::testing::Test {
 protected:
  AdversarialTest() : system_(3) {}

  void MakeFileAt(SiteId site, const std::string& path, const std::string& content) {
    system_.Spawn(site, "mk", [path, content](Syscalls& sys) {
      ASSERT_EQ(sys.Creat(path), Err::kOk);
      auto fd = sys.Open(path, {.read = true, .write = true});
      ASSERT_TRUE(fd.ok());
      ASSERT_EQ(sys.WriteString(fd.value, content), Err::kOk);
      ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    });
    system_.RunFor(Seconds(5));
  }

  System system_;
};

TEST_F(AdversarialTest, UpgradeDeadlockResolvedByDetector) {
  // Classic conversion deadlock: two transactions hold shared locks on the
  // same record and both request the exclusive upgrade. Neither can proceed;
  // the detector must abort one.
  MakeFileAt(0, "/upg", "0123456789");
  int committed = 0;
  int aborted = 0;
  auto upgrader = [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/upg", {.read = true, .write = true});
    ASSERT_EQ(sys.Lock(fd.value, 10, LockOp::kShared).err, Err::kOk);
    sys.Compute(Milliseconds(80));  // Both now hold shared.
    auto up = sys.Lock(fd.value, 10, LockOp::kExclusive, {.wait = true});
    if (up.err != Err::kOk) {
      ++aborted;
      return;
    }
    sys.Close(fd.value);
    if (sys.EndTrans() == Err::kOk) {
      ++committed;
    } else {
      ++aborted;
    }
  };
  system_.Spawn(0, "u1", upgrader);
  system_.Spawn(1, "u2", upgrader);
  system_.StartDeadlockDetector(2, Milliseconds(100));
  system_.RunFor(Seconds(30));
  system_.StopDaemons();
  system_.RunFor(Seconds(1));
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 1);
  EXPECT_GE(system_.stats().Get("deadlock.victims"), 1);
}

TEST_F(AdversarialTest, PartitionDuringMigrationLeavesProcessUsable) {
  // The partition lands exactly inside the migration transfer window.
  bool finished = false;
  SiteId final_site = kNoSite;
  system_.Spawn(0, "mover", [&](Syscalls& sys) {
    // Cut the network 1 ms into the ~10 ms transfer.
    sys.system().sim().Schedule(Milliseconds(1),
                                [&] { system_.Partition({{0}, {1, 2}}); });
    Err err = sys.Migrate(1);
    // Either it slipped through before the cut was detected or it failed in
    // place; both must leave a usable process.
    final_site = sys.CurrentSite();
    EXPECT_TRUE((err == Err::kOk && final_site == 1) ||
                (err == Err::kUnreachable && final_site == 0));
    EXPECT_EQ(sys.Creat("/alive"), Err::kOk);
    finished = true;
  });
  system_.RunFor(Seconds(10));
  EXPECT_TRUE(finished);
}

TEST_F(AdversarialTest, MemberExitDuringPartitionDoesNotHangEndTrans) {
  // A member completes while the top-level site is partitioned away; its
  // file-list merge cannot be delivered. The transaction must abort (the
  // paper's topology rule), and EndTrans must not hang.
  MakeFileAt(1, "/cutoff", "xxxxxxxxxx");
  Err end_result = Err::kOk;
  system_.Spawn(0, "top", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    sys.Fork(1, [](Syscalls& member) {
      auto fd = member.Open("/cutoff", {.read = true, .write = true});
      member.WriteString(fd.value, "member!!!!");
      member.Close(fd.value);
      member.Compute(Milliseconds(300));
      // Member exits during the partition; the merge fails.
    });
    sys.Compute(Milliseconds(100));
    sys.system().Partition({{0}, {1, 2}});
    Err err = sys.EndTrans();
    end_result = err;
  });
  system_.RunFor(Seconds(30));
  system_.HealPartitions();
  system_.RunFor(Seconds(5));
  EXPECT_EQ(end_result, Err::kAborted);
  // The member's write rolled back at site 1.
  std::string content;
  system_.Spawn(2, "check", [&](Syscalls& sys) {
    for (int i = 0; i < 10; ++i) {
      auto fd = sys.Open("/cutoff", {});
      auto d = sys.Read(fd.value, 10);
      sys.Close(fd.value);
      if (d.ok()) {
        content = Text(d.value);
        return;
      }
      sys.Compute(Milliseconds(200));
    }
  });
  system_.RunFor(Seconds(10));
  EXPECT_EQ(content, "xxxxxxxxxx");
}

TEST_F(AdversarialTest, AbortWhileTopLevelWaitsForMembers) {
  // The top-level process is parked in EndTrans's member barrier when the
  // abort arrives; the barrier must wake and report kAborted.
  Err end_result = Err::kOk;
  system_.Spawn(0, "top", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    TxnId txn = sys.CurrentTxn();
    sys.Fork(1, [](Syscalls& member) {
      member.Compute(Seconds(30));  // Keeps the barrier waiting.
    });
    // A rival process aborts the transaction while we're in EndTrans.
    sys.system().Spawn(2, "assassin", [txn](Syscalls& rival) {
      rival.Compute(Milliseconds(200));
      // Route the abort like the deadlock detector would.
      rival.system().kernel(rival.CurrentSite());  // (site touch)
      rival.system().net().Send(
          2, txn.site, MakeMsg<kAbortTxnRouteReq>(AbortTxnRouteRequest{txn, "assassinated"}, 64));
    });
    end_result = sys.EndTrans();
  });
  system_.RunFor(Seconds(60));
  EXPECT_EQ(end_result, Err::kAborted);
  EXPECT_GE(system_.stats().Get("proc.killed"), 1);  // The member died.
  EXPECT_EQ(system_.sim().blocked_process_count(), 0);
}

TEST_F(AdversarialTest, CrashStormWithRepeatedRecovery) {
  // Crash and reboot the same storage site five times in a row while a
  // client keeps trying to commit a transaction against it. Eventually the
  // commit lands, and recovery never corrupts the file.
  MakeFileAt(1, "/storm", "calm......");
  bool committed = false;
  system_.Spawn(0, "client", [&](Syscalls& sys) {
    for (int attempt = 0; attempt < 30 && !committed; ++attempt) {
      if (sys.BeginTrans() != Err::kOk) {
        continue;
      }
      auto fd = sys.Open("/storm", {.read = true, .write = true});
      bool ok = fd.ok() && sys.WriteString(fd.value, "stormy!!!!") == Err::kOk;
      if (fd.ok()) {
        sys.Close(fd.value);
      }
      if (ok && sys.EndTrans() == Err::kOk) {
        committed = true;
        break;
      }
      if (sys.InTransaction()) {
        sys.AbortTrans();
      }
      sys.Compute(Milliseconds(400));
    }
  });
  system_.Spawn(2, "chaos", [&](Syscalls& sys) {
    for (int i = 0; i < 5; ++i) {
      sys.Compute(Milliseconds(350));
      sys.system().CrashSite(1);
      sys.Compute(Milliseconds(350));
      sys.system().RebootSite(1);
    }
  });
  system_.RunFor(Seconds(120));
  EXPECT_TRUE(committed);
  // Final content is one of the two legal states, never a mix.
  std::string content;
  system_.Spawn(2, "check", [&](Syscalls& sys) {
    for (int i = 0; i < 10; ++i) {
      auto fd = sys.Open("/storm", {});
      auto d = sys.Read(fd.value, 10);
      sys.Close(fd.value);
      if (d.ok()) {
        content = Text(d.value);
        return;
      }
      sys.Compute(Milliseconds(300));
    }
  });
  system_.RunFor(Seconds(10));
  EXPECT_TRUE(content == "stormy!!!!" || content == "calm......") << content;
  EXPECT_EQ(content, "stormy!!!!");  // The commit eventually landed.
}

TEST_F(AdversarialTest, DoubleCloseAndUseAfterClose) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/dc"), Err::kOk);
    auto fd = sys.Open("/dc", {.read = true, .write = true});
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    EXPECT_EQ(sys.Close(fd.value), Err::kBadFd);
    EXPECT_EQ(sys.Read(fd.value, 4).err, Err::kBadFd);
    EXPECT_EQ(sys.WriteString(fd.value, "x"), Err::kBadFd);
    EXPECT_EQ(sys.Lock(fd.value, 4, LockOp::kShared).err, Err::kBadFd);
  });
  system_.Run();
}

TEST_F(AdversarialTest, LockWaiterSurvivesHolderSiteCrash) {
  // A waiter queues at a storage site; the HOLDER's home site crashes. The
  // topology protocol aborts the holder's transaction, releasing the lock,
  // and the waiter gets its grant.
  MakeFileAt(2, "/held", "zzzzzzzzzz");
  bool waiter_got_lock = false;
  system_.Spawn(1, "holder", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/held", {.read = true, .write = true});
    ASSERT_EQ(sys.Lock(fd.value, 10, LockOp::kExclusive).err, Err::kOk);
    sys.Compute(Seconds(60));  // Holds until its site dies.
  });
  system_.Spawn(0, "waiter", [&](Syscalls& sys) {
    sys.Compute(Milliseconds(100));
    auto fd = sys.Open("/held", {.read = true, .write = true});
    auto r = sys.Lock(fd.value, 10, LockOp::kExclusive, {.wait = true});
    waiter_got_lock = r.err == Err::kOk;
    sys.Close(fd.value);
  });
  system_.RunFor(Milliseconds(500));
  system_.CrashSite(1);  // The holder dies with its site.
  system_.RunFor(Seconds(30));
  EXPECT_TRUE(waiter_got_lock);
}

}  // namespace
}  // namespace locus
