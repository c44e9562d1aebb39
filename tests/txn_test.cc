// Transaction semantics tests: simple nesting (section 2), atomic commit and
// abort, retained-lock visibility, the section 3.3 serializability scenario,
// rule-2 adoption end to end, and multi-process/multi-site transactions.

#include <gtest/gtest.h>

#include <string>

#include "src/locus/system.h"

namespace locus {
namespace {

std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : system_(3) {}

  void RunAll() {
    system_.Run();
    EXPECT_EQ(system_.sim().blocked_process_count(), 0) << "workload deadlocked";
  }

  // Creates /f with `content` committed, outside any transaction.
  static void MakeFile(Syscalls& sys, const std::string& path, const std::string& content) {
    ASSERT_EQ(sys.Creat(path), Err::kOk);
    auto fd = sys.Open(path, {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, content), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  }

  // Reads `path`, retrying briefly: right after the commit point, retained
  // locks are still being released by the asynchronous second phase of
  // commit (section 4.2), so an immediate read can be denied.
  static std::string ReadFile(Syscalls& sys, const std::string& path, int64_t n) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      auto fd = sys.Open(path, {});
      EXPECT_TRUE(fd.ok());
      auto data = sys.Read(fd.value, n);
      sys.Close(fd.value);
      if (data.ok()) {
        return Text(data.value);
      }
      sys.Compute(Milliseconds(50));
    }
    ADD_FAILURE() << "ReadFile(" << path << ") kept failing";
    return "";
  }

  System system_;
};

TEST_F(TxnTest, CommitMakesWritesDurableAndVisible) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/f", "original--");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    EXPECT_TRUE(sys.InTransaction());
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "txn-update"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    EXPECT_FALSE(sys.InTransaction());
    EXPECT_EQ(ReadFile(sys, "/f", 10), "txn-update");
  });
  RunAll();
  EXPECT_EQ(system_.stats().Get("txn.committed"), 1);
}

TEST_F(TxnTest, AbortRollsBackEverything) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/f", "keep me!!");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "discarded"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.AbortTrans(), Err::kOk);
    EXPECT_FALSE(sys.InTransaction());
    EXPECT_EQ(ReadFile(sys, "/f", 9), "keep me!!");
  });
  RunAll();
}

TEST_F(TxnTest, SimpleNestingCommitsOnlyAtOutermostEnd) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/f", "0000");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    sys.WriteString(fd.value, "1111");

    // A "database subsystem" call that brackets its own critical section.
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    sys.Seek(fd.value, 0);
    sys.WriteString(fd.value, "2222");
    ASSERT_EQ(sys.EndTrans(), Err::kOk);  // Inner end: must NOT commit.
    EXPECT_TRUE(sys.InTransaction());
    EXPECT_EQ(system_.stats().Get("txn.committed"), 0);

    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);  // Outer end commits.
    EXPECT_EQ(system_.stats().Get("txn.committed"), 1);
    EXPECT_EQ(ReadFile(sys, "/f", 4), "2222");
  });
  RunAll();
}

TEST_F(TxnTest, EndOrAbortOutsideTransactionFails) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    EXPECT_EQ(sys.EndTrans(), Err::kNoTransaction);
    EXPECT_EQ(sys.AbortTrans(), Err::kNoTransaction);
  });
  RunAll();
}

TEST_F(TxnTest, RetainedLocksBlockOthersUntilCommit) {
  // Explicitly unlocked transaction locks stay retained (rule 1); an
  // UNRELATED process (forked before BeginTrans, so not a member) gets the
  // lock only after commit.
  SimTime other_granted_at = 0;
  SimTime commit_at = 0;
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/f", "xxxxxxxxxx");
    // Independent contender: forked outside the transaction.
    sys.Fork(0, [&](Syscalls& other) {
      other.Compute(Milliseconds(60));  // Let the transaction take its lock.
      EXPECT_FALSE(other.InTransaction());
      auto ofd = other.Open("/f", {.read = true, .write = true});
      ASSERT_EQ(other.Lock(ofd.value, 10, LockOp::kExclusive, {.wait = true}).err, Err::kOk);
      other_granted_at = other.system().sim().Now();
      other.Close(ofd.value);
    });

    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_EQ(sys.Lock(fd.value, 10, LockOp::kExclusive).err, Err::kOk);
    sys.WriteString(fd.value, "transacted");
    sys.Seek(fd.value, 0);
    // Explicit unlock: the lock is retained, not released (section 3.1).
    ASSERT_EQ(sys.Lock(fd.value, 10, LockOp::kUnlock).err, Err::kOk);
    sys.Compute(Milliseconds(200));  // Contender queues against the retained lock.
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    commit_at = sys.system().sim().Now();
    sys.WaitChildren();
  });
  RunAll();
  EXPECT_GT(commit_at, Milliseconds(200));
  EXPECT_GE(other_granted_at, commit_at);
}

TEST_F(TxnTest, Section33ScenarioRule2AdoptionPreservesConsistency) {
  // The program fragments from section 3.3: a non-transaction writes x[1]
  // and unlocks without committing; a transaction reads x[1] and writes
  // x[2] := x[1]. Rule 2 must commit x[1] with the transaction so that
  // x[1] == x[2] regardless of what the non-transaction does afterwards.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/x", std::string(2, 'A'));

    // Non-transaction program: write x[0] := 'C', unlock without commit.
    auto fd = sys.Open("/x", {.read = true, .write = true});
    ASSERT_EQ(sys.Lock(fd.value, 1, LockOp::kExclusive).err, Err::kOk);
    ASSERT_EQ(sys.WriteString(fd.value, "C"), Err::kOk);
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.Lock(fd.value, 1, LockOp::kUnlock).err, Err::kOk);
    // NOTE: no commit — the datum is modified-but-uncommitted.

    // Transaction: t := x[0]; x[1] := t.
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    sys.Seek(fd.value, 0);
    auto t = sys.Read(fd.value, 1);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(Text(t.value), "C");  // Uncommitted data is visible (section 5).
    ASSERT_EQ(sys.Write(fd.value, t.value), Err::kOk);  // x[1] := t at offset 1.
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);

    // Rule 2: x[0] was committed together with the transaction even though
    // the transaction never wrote it.
    EXPECT_EQ(ReadFile(sys, "/x", 2), "CC");
  });
  RunAll();
  EXPECT_GE(system_.stats().Get("fs.rule2_adoptions"), 1);
  // Durably committed:
  Kernel& k = system_.kernel(0);
  const CatalogEntry* entry = system_.catalog().Lookup("/x");
  FileStore* store = k.StoreFor(entry->replicas[0].file.volume);
  EXPECT_EQ(store->CommittedSize(entry->replicas[0].file), 2);
}

TEST_F(TxnTest, PreTransactionLocksAreNotPartOfTransaction) {
  // Section 3.4, second mechanism: locks acquired before BeginTrans are not
  // converted; unlocking them inside the transaction releases them for real.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/pre", "0123456789");
    auto fd = sys.Open("/pre", {.read = true, .write = true});
    ASSERT_EQ(sys.Lock(fd.value, 10, LockOp::kExclusive).err, Err::kOk);
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    // Use the pre-locked resource inside the transaction: allowed, no
    // self-conflict.
    auto data = sys.Read(fd.value, 5);
    ASSERT_TRUE(data.ok());
    // Unlock inside the transaction: dropped immediately, not retained.
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.Lock(fd.value, 10, LockOp::kUnlock).err, Err::kOk);
    // An unrelated owner could now take the exclusive lock — the pre-txn
    // lock really was released, not retained. (The transaction still holds
    // an implicit shared lock from the read above, so shared is grantable
    // but exclusive is not; check against the shared mode.)
    const CatalogEntry* entry = system_.catalog().Lookup("/pre");
    const LockList* list = system_.kernel(0).lock_manager().Find(entry->replicas[0].file);
    ASSERT_NE(list, nullptr);
    LockOwner stranger{999, kNoTxn};
    EXPECT_TRUE(list->CanGrant({5, 5}, stranger, LockMode::kShared));
    // Only the implicit shared read lock on [0,5) remains; beyond it even
    // exclusive is free.
    EXPECT_TRUE(list->CanGrant({5, 5}, stranger, LockMode::kExclusive));
    sys.Close(fd.value);
    sys.EndTrans();
  });
  RunAll();
}

TEST_F(TxnTest, NonTransactionLockEscapesTwoPhaseDiscipline) {
  // Section 3.4, first mechanism: a non-transaction lock taken inside a
  // transaction can be released mid-transaction.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/catalog", "catalog-data");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/catalog", {.read = true, .write = true});
    ASSERT_EQ(sys.Lock(fd.value, 12, LockOp::kExclusive, {.non_transaction = true}).err,
              Err::kOk);
    // While held it obeys Figure 1 against strangers.
    const CatalogEntry* entry = system_.catalog().Lookup("/catalog");
    const LockList* list = system_.kernel(0).lock_manager().Find(entry->replicas[0].file);
    ASSERT_NE(list, nullptr);
    LockOwner stranger{999, kNoTxn};
    EXPECT_FALSE(list->CanGrant({0, 12}, stranger, LockMode::kExclusive));
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.Lock(fd.value, 12, LockOp::kUnlock).err, Err::kOk);
    // Released mid-transaction: a stranger could lock it now.
    EXPECT_TRUE(list->CanGrant({0, 12}, stranger, LockMode::kExclusive));
    sys.Close(fd.value);
    sys.EndTrans();
  });
  RunAll();
}

TEST_F(TxnTest, WriteUnderNonTransactionLockSurvivesAbort) {
  // Section 3.4: a write lying wholly under the process's non-transaction
  // lock belongs to the process, not the transaction. It commits at close
  // and survives AbortTrans, while a write beside it rolls back.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/audit", "................");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/audit", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.Lock(fd.value, 8, LockOp::kExclusive, {.non_transaction = true}).err,
              Err::kOk);
    ASSERT_EQ(sys.WriteString(fd.value, "escaped!"), Err::kOk);
    ASSERT_EQ(sys.WriteString(fd.value, "txnbytes"), Err::kOk);
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.Lock(fd.value, 8, LockOp::kUnlock).err, Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    ASSERT_EQ(sys.AbortTrans(), Err::kOk);
    EXPECT_EQ(ReadFile(sys, "/audit", 16), "escaped!........");
  });
  RunAll();
}

TEST_F(TxnTest, MultiFileMultiSiteTransactionIsAtomic) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/a", "site0!");
    // Create /b at site 1 via a child there.
    sys.Fork(1, [](Syscalls& c) { MakeFile(c, "/b", "site1!"); });
    sys.WaitChildren();

    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fa = sys.Open("/a", {.read = true, .write = true});
    auto fb = sys.Open("/b", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fa.value, "newAAA"), Err::kOk);
    ASSERT_EQ(sys.WriteString(fb.value, "newBBB"), Err::kOk);
    sys.Close(fa.value);
    sys.Close(fb.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    EXPECT_EQ(ReadFile(sys, "/a", 6), "newAAA");
    EXPECT_EQ(ReadFile(sys, "/b", 6), "newBBB");
  });
  RunAll();
  // Two participant sites, each with a prepare log write.
  EXPECT_GE(system_.stats().Get("io.writes.prepare_log"), 2);
  EXPECT_EQ(system_.stats().Get("io.writes.coordinator_log"), 1);
  EXPECT_EQ(system_.stats().Get("io.writes.commit_mark"), 1);
}

TEST_F(TxnTest, DistributedChildrenParticipateInTransaction) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/dist", std::string(20, '-'));
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    // Children at two sites each write a disjoint record of the same file.
    for (int i = 0; i < 2; ++i) {
      auto r = sys.Fork(i + 1, [i](Syscalls& child) {
        EXPECT_TRUE(child.InTransaction());  // Inherited membership.
        auto fd = child.Open("/dist", {.read = true, .write = true});
        ASSERT_TRUE(fd.ok());
        child.Seek(fd.value, i * 10);
        ASSERT_EQ(child.WriteString(fd.value, "child" + std::to_string(i)), Err::kOk);
        child.Close(fd.value);
      });
      ASSERT_TRUE(r.ok());
    }
    sys.WaitChildren();
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    EXPECT_EQ(ReadFile(sys, "/dist", 16), "child0----child1");
  });
  RunAll();
  EXPECT_GE(system_.stats().Get("txn.merges"), 2);  // File-lists merged.
}

TEST_F(TxnTest, ChildLocksAreSharedWithParent) {
  // Section 3.1: if a child locks a record exclusively, the parent may too.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/shared-lock", "0123456789");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/shared-lock", {.read = true, .write = true});
    sys.Fork(0, [](Syscalls& child) {
      auto cfd = child.Open("/shared-lock", {.read = true, .write = true});
      ASSERT_EQ(child.Lock(cfd.value, 10, LockOp::kExclusive).err, Err::kOk);
      child.Close(cfd.value);
    });
    sys.WaitChildren();
    // Parent can acquire the same record exclusively: same transaction.
    ASSERT_EQ(sys.Lock(fd.value, 10, LockOp::kExclusive, {.wait = false}).err, Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  RunAll();
}

TEST_F(TxnTest, AbortCascadeKillsMembers) {
  bool member_finished = false;
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/cascade", "vvvvvvvvvv");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    sys.Fork(1, [&](Syscalls& child) {
      auto fd = child.Open("/cascade", {.read = true, .write = true});
      child.WriteString(fd.value, "doomed");
      // Loop "forever": only the abort cascade can stop this member.
      for (int i = 0; i < 10000; ++i) {
        child.Compute(Milliseconds(10));
      }
      member_finished = true;
    });
    sys.Compute(Milliseconds(100));
    ASSERT_EQ(sys.AbortTrans(), Err::kOk);
    EXPECT_FALSE(sys.InTransaction());
    // Data rolled back.
    sys.Compute(Milliseconds(200));
    EXPECT_EQ(ReadFile(sys, "/cascade", 10), "vvvvvvvvvv");
  });
  RunAll();
  EXPECT_FALSE(member_finished);
  EXPECT_GE(system_.stats().Get("proc.killed"), 1);
}

TEST_F(TxnTest, TransactionSurvivesTopLevelMigration) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/roam", "##########");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/roam", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "before"), Err::kOk);
    ASSERT_EQ(sys.Migrate(2), Err::kOk);  // Mid-transaction migration.
    sys.Seek(fd.value, 6);
    ASSERT_EQ(sys.WriteString(fd.value, "afte"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);  // Commit coordinated from site 2.
    EXPECT_EQ(ReadFile(sys, "/roam", 10), "beforeafte");
  });
  RunAll();
  EXPECT_EQ(system_.stats().Get("txn.committed"), 1);
  EXPECT_EQ(system_.stats().Get("proc.migrations"), 1);
}

TEST_F(TxnTest, FileListMergeChasesMigratingTopLevel) {
  // Section 4.1's race: a child's file-list arrives while the top-level
  // process is migrating; the merge must be retried and eventually land.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/race", std::string(30, '.'));
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    // Child does work at site 1, then exits (sending its file-list while the
    // parent is bouncing between sites).
    sys.Fork(1, [](Syscalls& child) {
      auto fd = child.Open("/race", {.read = true, .write = true});
      child.Seek(fd.value, 10);
      ASSERT_EQ(child.WriteString(fd.value, "childwrite"), Err::kOk);
      child.Close(fd.value);
    });
    // Keep migrating while the child exits.
    for (SiteId s : {1, 2, 0, 1, 2}) {
      ASSERT_EQ(sys.Migrate(s), Err::kOk);
    }
    sys.WaitChildren();
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    EXPECT_EQ(ReadFile(sys, "/race", 20).substr(10), "childwrite");
  });
  RunAll();
  EXPECT_EQ(system_.stats().Get("txn.committed"), 1);
}

TEST_F(TxnTest, ReadOnlyTransactionCommitsTrivially) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  RunAll();
  EXPECT_EQ(system_.stats().Get("txn.committed_trivial"), 1);
  EXPECT_EQ(system_.stats().Get("io.writes.coordinator_log"), 0);
}

}  // namespace
}  // namespace locus
