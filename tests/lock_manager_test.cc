// LockManager tests: FIFO queueing, cancellation, release-driven grants,
// append-range recomputation, and wait-for-graph export.

#include "src/lock/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace locus {
namespace {

const FileId kFileA{0, 1};
const FileId kFileB{0, 2};
const TxnId kT1{0, 0, 1};
const TxnId kT2{0, 0, 2};
const TxnId kT3{0, 0, 3};

LockOwner Proc(Pid pid) { return LockOwner{pid, kNoTxn}; }
LockOwner Txn(const TxnId& t) { return LockOwner{kNoPid, t}; }

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : manager_(&stats_, "site0") {}

  // Issues a request and records its outcome in `outcomes` by index.
  void Request(const FileId& file, ByteRange range, LockOwner owner, LockMode mode,
               bool wait, int tag) {
    manager_.Request(file, range, owner, mode, false, wait,
                     [this, tag](bool ok, ByteRange granted) {
                       outcomes_.push_back({tag, ok, granted});
                     });
  }

  struct Outcome {
    int tag;
    bool ok;
    ByteRange granted;
  };

  StatRegistry stats_;
  LockManager manager_;
  std::vector<Outcome> outcomes_;
};

TEST_F(LockManagerTest, ImmediateGrantWhenCompatible) {
  Request(kFileA, {0, 10}, Proc(1), LockMode::kShared, false, 1);
  Request(kFileA, {0, 10}, Proc(2), LockMode::kShared, false, 2);
  ASSERT_EQ(outcomes_.size(), 2u);
  EXPECT_TRUE(outcomes_[0].ok);
  EXPECT_TRUE(outcomes_[1].ok);
}

TEST_F(LockManagerTest, NoWaitConflictDeniedImmediately) {
  Request(kFileA, {0, 10}, Proc(1), LockMode::kExclusive, false, 1);
  Request(kFileA, {5, 10}, Proc(2), LockMode::kExclusive, false, 2);
  ASSERT_EQ(outcomes_.size(), 2u);
  EXPECT_TRUE(outcomes_[0].ok);
  EXPECT_FALSE(outcomes_[1].ok);
  EXPECT_EQ(stats_.Get("lock.denied"), 1);
}

TEST_F(LockManagerTest, WaiterGrantedOnUnlockInFifoOrder) {
  Request(kFileA, {0, 10}, Proc(1), LockMode::kExclusive, false, 1);
  Request(kFileA, {0, 10}, Proc(2), LockMode::kExclusive, true, 2);
  Request(kFileA, {0, 10}, Proc(3), LockMode::kExclusive, true, 3);
  EXPECT_EQ(manager_.waiting_count(), 2);
  ASSERT_EQ(outcomes_.size(), 1u);

  manager_.Unlock(kFileA, {0, 10}, Proc(1));
  // Proc 2 (first in line) gets it; proc 3 still waits.
  ASSERT_EQ(outcomes_.size(), 2u);
  EXPECT_EQ(outcomes_[1].tag, 2);
  EXPECT_TRUE(outcomes_[1].ok);
  EXPECT_EQ(manager_.waiting_count(), 1);

  manager_.Unlock(kFileA, {0, 10}, Proc(2));
  ASSERT_EQ(outcomes_.size(), 3u);
  EXPECT_EQ(outcomes_[2].tag, 3);
}

TEST_F(LockManagerTest, ReleaseTransactionWakesWaiters) {
  Request(kFileA, {0, 10}, Txn(kT1), LockMode::kExclusive, false, 1);
  Request(kFileA, {0, 10}, Proc(2), LockMode::kShared, true, 2);
  EXPECT_EQ(outcomes_.size(), 1u);
  manager_.ReleaseTransaction(kT1);
  ASSERT_EQ(outcomes_.size(), 2u);
  EXPECT_TRUE(outcomes_[1].ok);
}

TEST_F(LockManagerTest, CancelWaitersFiresCallbackWithFalse) {
  Request(kFileA, {0, 10}, Proc(1), LockMode::kExclusive, false, 1);
  Request(kFileA, {0, 10}, Txn(kT2), LockMode::kExclusive, true, 2);
  manager_.CancelWaiters(Txn(kT2));
  ASSERT_EQ(outcomes_.size(), 2u);
  EXPECT_FALSE(outcomes_[1].ok);
  EXPECT_EQ(manager_.waiting_count(), 0);
  // The holder's unlock no longer grants anything to the cancelled waiter.
  manager_.Unlock(kFileA, {0, 10}, Proc(1));
  EXPECT_EQ(outcomes_.size(), 2u);
}

TEST_F(LockManagerTest, AbortedTransactionReleaseCancelsItsOwnWaits) {
  Request(kFileA, {0, 10}, Proc(1), LockMode::kExclusive, false, 1);
  Request(kFileA, {0, 10}, Txn(kT1), LockMode::kExclusive, true, 2);
  manager_.ReleaseTransaction(kT1);  // Abort while waiting.
  ASSERT_EQ(outcomes_.size(), 2u);
  EXPECT_FALSE(outcomes_[1].ok);
}

TEST_F(LockManagerTest, WaitForEdgesReflectBlockingOwners) {
  Request(kFileA, {0, 10}, Txn(kT1), LockMode::kExclusive, false, 1);
  Request(kFileA, {0, 10}, Txn(kT2), LockMode::kExclusive, true, 2);
  Request(kFileB, {0, 10}, Txn(kT2), LockMode::kExclusive, false, 3);
  Request(kFileB, {0, 10}, Txn(kT3), LockMode::kShared, true, 4);
  auto edges = manager_.WaitForEdges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].waiter.txn, kT2);
  EXPECT_EQ(edges[0].holder.txn, kT1);
  EXPECT_EQ(edges[1].waiter.txn, kT3);
  EXPECT_EQ(edges[1].holder.txn, kT2);
}

TEST_F(LockManagerTest, AppendRangeRecomputedAtGrantTime) {
  int64_t eof = 0;  // Simulated end-of-file that grows.
  auto recompute = [&eof] { return ByteRange{eof, 8}; };

  manager_.Request(kFileA, {}, Proc(1), LockMode::kExclusive, false, true,
                   [this](bool ok, ByteRange r) { outcomes_.push_back({1, ok, r}); },
                   recompute);
  ASSERT_TRUE(outcomes_[0].ok);
  EXPECT_EQ(outcomes_[0].granted, (ByteRange{0, 8}));

  // Second appender queues while the first holds [0,8).
  manager_.Request(kFileA, {}, Proc(2), LockMode::kExclusive, false, true,
                   [this](bool ok, ByteRange r) { outcomes_.push_back({2, ok, r}); },
                   recompute);
  EXPECT_EQ(manager_.waiting_count(), 1);

  // The first appender writes 8 bytes (EOF moves) and unlocks.
  eof = 8;
  manager_.Unlock(kFileA, {0, 8}, Proc(1));
  ASSERT_EQ(outcomes_.size(), 2u);
  EXPECT_TRUE(outcomes_[1].ok);
  // Granted at the NEW end of file, not the stale one.
  EXPECT_EQ(outcomes_[1].granted, (ByteRange{8, 8}));
}

TEST_F(LockManagerTest, LockTableHandoffForServiceMigration) {
  Request(kFileA, {0, 10}, Txn(kT1), LockMode::kExclusive, false, 1);
  LockList moved = manager_.TakeFileLocks(kFileA);
  EXPECT_EQ(moved.entries().size(), 1u);
  EXPECT_EQ(manager_.Find(kFileA), nullptr);

  LockManager other(&stats_, "site1");
  other.InstallFileLocks(kFileA, std::move(moved));
  ASSERT_NE(other.Find(kFileA), nullptr);
  EXPECT_FALSE(other.Find(kFileA)->CanGrant({0, 10}, Proc(9), LockMode::kShared));
}

TEST_F(LockManagerTest, AccessChecksDelegateToLists) {
  Request(kFileA, {0, 10}, Proc(1), LockMode::kExclusive, false, 1);
  EXPECT_FALSE(manager_.MayRead(kFileA, {0, 5}, Proc(2)));
  EXPECT_TRUE(manager_.MayRead(kFileA, {0, 5}, Proc(1)));
  EXPECT_TRUE(manager_.MayRead(kFileB, {0, 5}, Proc(2)));  // Unknown file: free.
  EXPECT_TRUE(manager_.Holds(kFileA, {0, 10}, Proc(1), LockMode::kExclusive));
  EXPECT_FALSE(manager_.Holds(kFileB, {0, 10}, Proc(1), LockMode::kExclusive));
}

TEST_F(LockManagerTest, ClearDropsEverything) {
  Request(kFileA, {0, 10}, Proc(1), LockMode::kExclusive, false, 1);
  Request(kFileA, {0, 10}, Proc(2), LockMode::kExclusive, true, 2);
  manager_.Clear();
  EXPECT_EQ(manager_.waiting_count(), 0);
  EXPECT_EQ(manager_.Find(kFileA), nullptr);
}

TEST_F(LockManagerTest, TransactionsWithLocksEnumerates) {
  Request(kFileA, {0, 10}, Txn(kT1), LockMode::kShared, false, 1);
  Request(kFileB, {0, 10}, Txn(kT2), LockMode::kShared, false, 2);
  Request(kFileB, {20, 10}, Proc(5), LockMode::kShared, false, 3);
  auto txns = manager_.TransactionsWithLocks();
  EXPECT_EQ(txns.size(), 2u);
}

}  // namespace
}  // namespace locus
