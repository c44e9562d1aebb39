// Transaction edge cases: unbalanced nesting, abort from nested levels,
// sequential transactions in one process, transactions around pre-existing
// state, and recovery of an abort-marked coordinator log.

#include <gtest/gtest.h>

#include <string>

#include "src/locus/system.h"

namespace locus {
namespace {

std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class TxnEdgeTest : public ::testing::Test {
 protected:
  TxnEdgeTest() : system_(3) {}

  void RunAll() {
    system_.Run();
    EXPECT_EQ(system_.sim().blocked_process_count(), 0) << "workload deadlocked";
  }

  static void MakeFile(Syscalls& sys, const std::string& path, const std::string& content) {
    ASSERT_EQ(sys.Creat(path), Err::kOk);
    auto fd = sys.Open(path, {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, content), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  }

  void MakeFileAtSite1() {
    system_.Spawn(1, "mk", [](Syscalls& sys) { MakeFile(sys, "/remote1", "original!!"); });
    system_.RunFor(Seconds(5));
  }

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
    return "<unreadable>";
  }

  System system_;
};

TEST_F(TxnEdgeTest, AbortFromNestedLevelAbortsWholeTransaction) {
  // Section 2: AbortTrans undoes the ENTIRE transaction regardless of the
  // nesting depth at which it is issued.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/f", "unchanged!");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    sys.WriteString(fd.value, "outer-write");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);  // Nested level 2.
    sys.Seek(fd.value, 0);
    sys.WriteString(fd.value, "inner-write");
    sys.Close(fd.value);
    ASSERT_EQ(sys.AbortTrans(), Err::kOk);  // From the nested level.
    EXPECT_FALSE(sys.InTransaction());
    EXPECT_EQ(ReadFile(sys, "/f", 10), "unchanged!");
    // A later EndTrans has nothing to end.
    EXPECT_EQ(sys.EndTrans(), Err::kNoTransaction);
  });
  RunAll();
}

TEST_F(TxnEdgeTest, SequentialTransactionsInOneProcess) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/seq", "0000000000");
    TxnId first, second;
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    first = sys.CurrentTxn();
    auto fd = sys.Open("/seq", {.read = true, .write = true});
    sys.WriteString(fd.value, "11111");
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);

    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    second = sys.CurrentTxn();
    EXPECT_NE(first, second);  // Temporally unique ids (section 4.1).
    EXPECT_GT(second.serial, first.serial);
    auto fd2 = sys.Open("/seq", {.read = true, .write = true});
    sys.Seek(fd2.value, 5);
    sys.WriteString(fd2.value, "22222");
    sys.Close(fd2.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    EXPECT_EQ(ReadFile(sys, "/seq", 10), "1111122222");
  });
  RunAll();
  EXPECT_EQ(system_.stats().Get("txn.committed"), 2);
}

TEST_F(TxnEdgeTest, AbortThenRetryPattern) {
  // The redo pattern deadlock-victim applications use: abort, then run the
  // same work again in a fresh transaction.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/retry", "----------");
    for (int attempt = 0; attempt < 3; ++attempt) {
      ASSERT_EQ(sys.BeginTrans(), Err::kOk);
      auto fd = sys.Open("/retry", {.read = true, .write = true});
      sys.WriteString(fd.value, "attempt" + std::to_string(attempt));
      sys.Close(fd.value);
      if (attempt < 2) {
        ASSERT_EQ(sys.AbortTrans(), Err::kOk);  // Simulate failure.
      } else {
        ASSERT_EQ(sys.EndTrans(), Err::kOk);
      }
    }
    EXPECT_EQ(ReadFile(sys, "/retry", 8), "attempt2");
  });
  RunAll();
}

TEST_F(TxnEdgeTest, TransactionSeesItsOwnWrites) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/own", "aaaaaaaaaa");
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/own", {.read = true, .write = true});
    sys.WriteString(fd.value, "bbbb");
    sys.Seek(fd.value, 0);
    auto data = sys.Read(fd.value, 10);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(Text(data.value), "bbbbaaaaaa");  // Read-your-writes.
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  RunAll();
}

TEST_F(TxnEdgeTest, EmptyNestedCompositionCommitsTrivially) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(sys.BeginTrans(), Err::kOk);
      ASSERT_EQ(sys.EndTrans(), Err::kOk);
      EXPECT_TRUE(sys.InTransaction());
    }
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    EXPECT_FALSE(sys.InTransaction());
  });
  RunAll();
  EXPECT_EQ(system_.stats().Get("txn.nested_begins"), 5);
  EXPECT_EQ(system_.stats().Get("txn.committed_trivial"), 1);
}

TEST_F(TxnEdgeTest, TransactionWritesThroughChannelOpenedBeforeBegin) {
  // Section 2: file operations AFTER BeginTrans are encapsulated even if the
  // channel was opened before it.
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    MakeFile(sys, "/pre-open", "original!!");
    auto fd = sys.Open("/pre-open", {.read = true, .write = true});
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    ASSERT_EQ(sys.WriteString(fd.value, "txn-write!"), Err::kOk);
    ASSERT_EQ(sys.AbortTrans(), Err::kOk);
    // The write was transactional: rolled back.
    sys.Seek(fd.value, 0);
    auto data = sys.Read(fd.value, 10);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(Text(data.value), "original!!");
    sys.Close(fd.value);
  });
  RunAll();
}

// Section 3.4: AbortTrans undoes the transaction's changes, not the
// conventional write the process made before BeginTrans. That write is still
// uncommitted (the channel stays open) when the transaction rewrites the same
// bytes, so the transaction's lock adopts it (section 3.3 rule 2); the abort
// must hand back the pre-transaction bytes, not the committed (empty) image.
void AbortKeepsEarlierConventionalWrite(System& system, bool migrate) {
  system.Spawn(0, "prog", [migrate](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/notes", /*replication=*/3), Err::kOk);
    auto fd = sys.Open("/notes", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "first line from site zero"), Err::kOk);
    if (migrate) {
      ASSERT_EQ(sys.Migrate(2), Err::kOk);
    }
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.WriteString(fd.value, "TRANSACTIONAL REWRITE......"), Err::kOk);
    ASSERT_EQ(sys.AbortTrans(), Err::kOk);
    sys.Seek(fd.value, 0);
    auto data = sys.Read(fd.value, 32);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(Text(data.value), "first line from site zero");
    // Closing commits the conventional write (commit at close).
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    auto again = sys.Open("/notes", {});
    ASSERT_TRUE(again.ok());
    auto committed = sys.Read(again.value, 32);
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(Text(committed.value), "first line from site zero");
    sys.Close(again.value);
  });
}

TEST_F(TxnEdgeTest, AbortKeepsConventionalWriteMadeBeforeBegin) {
  AbortKeepsEarlierConventionalWrite(system_, /*migrate=*/false);
  RunAll();
}

TEST_F(TxnEdgeTest, AbortKeepsConventionalWriteMadeBeforeBeginAcrossMigration) {
  AbortKeepsEarlierConventionalWrite(system_, /*migrate=*/true);
  RunAll();
}

TEST_F(TxnEdgeTest, CoordinatorRecoveryAbortsUnknownStatusLog) {
  // Crash the coordinator BETWEEN the coordinator-log write and the commit
  // mark: recovery must treat the unknown-status log as an abort
  // (section 4.4) and the participant must roll back.
  MakeFileAtSite1();
  system_.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/remote1", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "in-doubt!!"), Err::kOk);
    sys.Close(fd.value);
    // Partition the participant away so prepare hangs, then crash self
    // mid-commit: the coordinator log exists with status unknown.
    sys.system().Partition({{0}, {1, 2}});
    sys.EndTrans();  // Will fail; we crash during/after regardless.
  });
  system_.RunFor(Seconds(8));
  system_.CrashSite(0);
  system_.HealPartitions();
  system_.RunFor(Seconds(2));
  system_.RebootSite(0);
  system_.RunFor(Seconds(10));
  // Participant rolled back; file content intact.
  std::string content;
  system_.Spawn(1, "check", [&](Syscalls& sys) { content = ReadFile(sys, "/remote1", 10); });
  system_.RunFor(Seconds(10));
  EXPECT_EQ(content, "original!!");
}

}  // namespace
}  // namespace locus
