// FileStore tests: shadow-page writes, the single-file commit mechanism, the
// page-differencing commit and abort paths (Figure 4), rule-2 adoption, and
// the two-phase prepare/install split with its crash idempotency.

#include "src/fs/file_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/sim/random.h"

namespace locus {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }
std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class FileStoreTest : public ::testing::Test {
 protected:
  static constexpr int32_t kPageSize = 64;  // Small pages exercise boundaries.

  FileStoreTest() {
    auto disk = std::make_unique<Disk>(&sim_, &stats_, "d0", 512, kPageSize,
                                       Milliseconds(10));
    volume_ = std::make_unique<Volume>(0, "v0", std::move(disk));
    pool_ = std::make_unique<BufferPool>(64);
    store_ = std::make_unique<FileStore>(&sim_, volume_.get(), pool_.get(), &stats_, "site0");
  }

  // Runs `body` in process context and drives the simulation to completion.
  void Run(std::function<void()> body) {
    sim_.Spawn("test", std::move(body));
    sim_.Run();
    ASSERT_EQ(sim_.blocked_process_count(), 0);
  }

  LockOwner Proc(Pid pid) { return LockOwner{pid, kNoTxn}; }
  LockOwner Txn(uint64_t serial) { return LockOwner{kNoPid, TxnId{0, 0, serial}}; }

  Simulation sim_;
  StatRegistry stats_;
  std::unique_ptr<Volume> volume_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<FileStore> store_;
};

TEST_F(FileStoreTest, CreateAndStatEmptyFile) {
  Run([&] {
    FileId f = store_->CreateFile();
    EXPECT_TRUE(store_->Exists(f));
    EXPECT_EQ(store_->WorkingSize(f), 0);
    EXPECT_EQ(store_->CommittedSize(f), 0);
  });
}

TEST_F(FileStoreTest, UncommittedWriteVisibleToReaders) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("hello world"));
    EXPECT_EQ(store_->WorkingSize(f), 11);
    EXPECT_EQ(store_->CommittedSize(f), 0);  // Not yet committed.
    EXPECT_EQ(Text(store_->Read(f, {0, 11})), "hello world");
  });
}

TEST_F(FileStoreTest, ReadClampsToWorkingSize) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("abc"));
    EXPECT_EQ(store_->Read(f, {0, 100}).size(), 3u);
    EXPECT_TRUE(store_->Read(f, {50, 10}).empty());
  });
}

TEST_F(FileStoreTest, CommitMakesDataDurable) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("persistent"));
    store_->CommitWriter(f, Proc(1));
    EXPECT_EQ(store_->CommittedSize(f), 10);
    EXPECT_FALSE(store_->HasUncommitted(f, Proc(1)));
    // The on-disk inode names a page whose stable content holds the data.
    const DiskInode* inode = volume_->PeekInode(f.ino);
    ASSERT_NE(inode, nullptr);
    ASSERT_EQ(inode->pages.size(), 1u);
    const PageData& stable = volume_->disk().PeekStable(inode->pages[0]);
    EXPECT_EQ(std::string(stable.begin(), stable.begin() + 10), "persistent");
  });
}

TEST_F(FileStoreTest, AbortDiscardsSoloWriterChanges) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("base data!"));
    store_->CommitWriter(f, Proc(1));
    int32_t free_before = volume_->free_page_count();

    store_->Write(f, Proc(2), 0, Bytes("OVERWRITE!"));
    EXPECT_EQ(Text(store_->Read(f, {0, 10})), "OVERWRITE!");
    store_->AbortWriter(f, Proc(2));
    EXPECT_EQ(Text(store_->Read(f, {0, 10})), "base data!");
    EXPECT_EQ(volume_->free_page_count(), free_before);  // Shadow freed.
  });
}

TEST_F(FileStoreTest, AbortOfExtensionShrinksWorkingSize) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("12345"));
    store_->CommitWriter(f, Proc(1));
    store_->Write(f, Proc(2), 5, Bytes("67890"));
    EXPECT_EQ(store_->WorkingSize(f), 10);
    store_->AbortWriter(f, Proc(2));
    EXPECT_EQ(store_->WorkingSize(f), 5);
  });
}

TEST_F(FileStoreTest, MultiPageWriteAndCommit) {
  Run([&] {
    FileId f = store_->CreateFile();
    std::vector<uint8_t> big(kPageSize * 3 + 10, 'x');
    store_->Write(f, Proc(1), 0, big);
    store_->CommitWriter(f, Proc(1));
    EXPECT_EQ(store_->CommittedSize(f), kPageSize * 3 + 10);
    auto back = store_->Read(f, {0, kPageSize * 3 + 10});
    EXPECT_EQ(back, big);
    const DiskInode* inode = volume_->PeekInode(f.ino);
    EXPECT_EQ(inode->pages.size(), 4u);
  });
}

TEST_F(FileStoreTest, DisjointWritersOnOnePageCommitIndependently) {
  Run([&] {
    FileId f = store_->CreateFile();
    // Base content.
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));

    // Two writers, disjoint records, same physical page (Figure 4b).
    store_->Write(f, Proc(2), 0, Bytes("AAAA"));
    store_->Write(f, Proc(3), 10, Bytes("BBBB"));
    EXPECT_EQ(Text(store_->Read(f, {0, 14})), "AAAA......BBBB");

    // Commit writer 2 only: its bytes become durable, writer 3's do not.
    store_->CommitWriter(f, Proc(2));
    EXPECT_GE(stats_.Get("fs.commit.diffed_pages"), 1);
    const DiskInode* inode = volume_->PeekInode(f.ino);
    const PageData& stable = volume_->disk().PeekStable(inode->pages[0]);
    // Writer 2's records are durable; writer 3's uncommitted bytes are not.
    EXPECT_EQ(std::string(stable.begin(), stable.begin() + 14), "AAAA..........");

    // The working view still shows both.
    EXPECT_EQ(Text(store_->Read(f, {0, 14})), "AAAA......BBBB");

    // Now commit writer 3; both become durable.
    store_->CommitWriter(f, Proc(3));
    const DiskInode* inode2 = volume_->PeekInode(f.ino);
    const PageData& stable2 = volume_->disk().PeekStable(inode2->pages[0]);
    EXPECT_EQ(std::string(stable2.begin(), stable2.begin() + 14), "AAAA......BBBB");
  });
}

TEST_F(FileStoreTest, AbortWithConflictingModificationsRevertsOnlyOwnRecords) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));

    store_->Write(f, Proc(2), 0, Bytes("AAAA"));
    store_->Write(f, Proc(3), 10, Bytes("BBBB"));
    store_->AbortWriter(f, Proc(2));
    // Writer 2's records reverted; writer 3's still pending.
    EXPECT_EQ(Text(store_->Read(f, {0, 14})), "..........BBBB");
    store_->CommitWriter(f, Proc(3));
    EXPECT_EQ(Text(store_->Read(f, {0, 14})), "..........BBBB");
  });
}

TEST_F(FileStoreTest, DifferencingInsensitiveToRecordCount) {
  // Section 6.3: results are relatively insensitive to the number of
  // overlapping records on the page.
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));
    store_->Write(f, Proc(9), 60, Bytes("zz"));  // Other writer on the page.
    // Writer 2 modifies many small records.
    for (int i = 0; i < 10; ++i) {
      store_->Write(f, Proc(2), i * 5, Bytes("r"));
    }
    SimTime before = sim_.Now();
    store_->CommitWriter(f, Proc(2));
    SimTime elapsed = sim_.Now() - before;
    // Service cost should be within ~25% of the single-record diff commit.
    EXPECT_LT(elapsed, Milliseconds(60));
  });
}

TEST_F(FileStoreTest, PrepareThenInstallEqualsCommit) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Txn(1).txn.valid() ? Txn(1) : Txn(1), 0, Bytes("two phase data"));
    auto intentions = store_->PrepareWriter(f, Txn(1));
    ASSERT_TRUE(intentions.has_value());
    EXPECT_EQ(store_->CommittedSize(f), 0);  // Prepare does not install.
    store_->InstallIntentions(*intentions);
    store_->FinishWriterCommit(f, Txn(1));
    EXPECT_EQ(store_->CommittedSize(f), 14);
    EXPECT_EQ(Text(store_->Read(f, {0, 14})), "two phase data");
  });
}

TEST_F(FileStoreTest, InstallIsIdempotent) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Txn(1), 0, Bytes("hello"));
    auto intentions = store_->PrepareWriter(f, Txn(1));
    store_->InstallIntentions(*intentions);
    int32_t free_after_first = volume_->free_page_count();
    uint64_t version = volume_->PeekInode(f.ino)->version;
    // Duplicate commit message (section 4.4): must be harmless.
    store_->InstallIntentions(*intentions);
    EXPECT_EQ(volume_->free_page_count(), free_after_first);
    EXPECT_EQ(Text(store_->Read(f, {0, 5})), "hello");
    (void)version;
  });
}

TEST_F(FileStoreTest, ConcurrentPreparesOnSamePageBothSurvive) {
  // Two transactions prepare disjoint records on the same page before either
  // installs; installation must re-difference so neither update is lost.
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));

    store_->Write(f, Txn(1), 0, Bytes("AAAA"));
    store_->Write(f, Txn(2), 10, Bytes("BBBB"));
    auto i1 = store_->PrepareWriter(f, Txn(1));
    auto i2 = store_->PrepareWriter(f, Txn(2));
    ASSERT_TRUE(i1 && i2);

    store_->InstallIntentions(*i1);
    store_->FinishWriterCommit(f, Txn(1));
    store_->InstallIntentions(*i2);
    store_->FinishWriterCommit(f, Txn(2));
    EXPECT_GE(stats_.Get("fs.commit.remerged_pages"), 1);

    const DiskInode* inode = volume_->PeekInode(f.ino);
    const PageData& stable = volume_->disk().PeekStable(inode->pages[0]);
    EXPECT_EQ(std::string(stable.begin(), stable.begin() + 14), "AAAA......BBBB");
  });
}

TEST_F(FileStoreTest, DiscardIntentionsFreesShadowPages) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Txn(1), 0, Bytes("doomed"));
    auto intentions = store_->PrepareWriter(f, Txn(1));
    ASSERT_TRUE(intentions.has_value());
    // Simulate post-crash abort: writer state gone, only intentions remain.
    store_->OnCrash();
    pool_->Clear();
    volume_->OnCrash();
    volume_->RecoverAllocation(FileStore::PagesNamedBy(*intentions));
    int32_t free_before = volume_->free_page_count();
    store_->DiscardIntentions(*intentions);
    EXPECT_EQ(volume_->free_page_count(), free_before + 1);
    EXPECT_EQ(store_->CommittedSize(f), 0);
  });
}

TEST_F(FileStoreTest, AdoptDirtyRangesTransfersOwnership) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("dirty-uncommitted"));
    // A transaction locks (and adopts) the first 5 bytes (rule 2).
    auto adopted = store_->AdoptDirtyRanges(f, {0, 5}, Txn(1));
    ASSERT_EQ(adopted.size(), 1u);
    EXPECT_EQ(adopted[0], (ByteRange{0, 5}));
    EXPECT_TRUE(store_->HasUncommitted(f, Txn(1)));
    EXPECT_TRUE(store_->HasUncommitted(f, Proc(1)));  // Rest still the proc's.

    // Transaction commit makes the adopted bytes durable.
    store_->CommitWriter(f, Txn(1));
    const DiskInode* inode = volume_->PeekInode(f.ino);
    const PageData& stable = volume_->disk().PeekStable(inode->pages[0]);
    EXPECT_EQ(std::string(stable.begin(), stable.begin() + 5), "dirty");
    // The process's remaining bytes are still uncommitted.
    EXPECT_EQ(stable[6], 0);
  });
}

TEST_F(FileStoreTest, AdoptEverythingRemovesDonor) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("all of it"));
    store_->AdoptDirtyRanges(f, {0, 9}, Txn(1));
    EXPECT_FALSE(store_->HasUncommitted(f, Proc(1)));
    EXPECT_TRUE(store_->HasUncommitted(f, Txn(1)));
    // Aborting the transaction rolls back the donor's writes too.
    store_->AbortWriter(f, Txn(1));
    EXPECT_EQ(store_->WorkingSize(f), 0);
  });
}

TEST_F(FileStoreTest, FilesWithUncommittedLists) {
  Run([&] {
    FileId f1 = store_->CreateFile();
    FileId f2 = store_->CreateFile();
    store_->Write(f1, Txn(1), 0, Bytes("a"));
    store_->Write(f2, Txn(1), 0, Bytes("b"));
    store_->Write(f2, Txn(2), 10, Bytes("c"));
    EXPECT_EQ(store_->FilesWithUncommitted(Txn(1)).size(), 2u);
    EXPECT_EQ(store_->FilesWithUncommitted(Txn(2)).size(), 1u);
  });
}

TEST_F(FileStoreTest, CommitChargesExpectedIo) {
  Run([&] {
    FileId f = store_->CreateFile();
    stats_.Reset();
    store_->Write(f, Proc(1), 0, Bytes("data"));
    store_->CommitWriter(f, Proc(1));
    // One data-page flush + one inode write.
    EXPECT_EQ(stats_.Get("io.writes.data"), 1);
    EXPECT_EQ(stats_.Get("io.writes.inode"), 1);
  });
}

TEST_F(FileStoreTest, RemoveFileFreesEverything) {
  Run([&] {
    int32_t free_at_start = volume_->free_page_count();
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kPageSize * 2, 'x'));
    store_->CommitWriter(f, Proc(1));
    store_->Write(f, Proc(2), 0, Bytes("pending"));  // Leaves a shadow page.
    store_->RemoveFile(f);
    EXPECT_FALSE(store_->Exists(f));
    EXPECT_EQ(volume_->free_page_count(), free_at_start);
  });
}

// Randomized property: interleaved writers on random ranges; after each
// writer commits or aborts, the working view matches a reference model.
TEST_F(FileStoreTest, RandomizedCommitAbortMatchesModel) {
  Run([&] {
    Rng rng(1234);
    FileId f = store_->CreateFile();
    constexpr int kFileBytes = 256;
    std::vector<uint8_t> committed(kFileBytes, 0);
    std::vector<uint8_t> working(kFileBytes, 0);
    store_->Write(f, Proc(99), 0, committed);
    store_->CommitWriter(f, Proc(99));

    for (int round = 0; round < 30; ++round) {
      // Two writers touch disjoint halves of the file to respect locking.
      struct W {
        LockOwner owner;
        int64_t base;
        std::vector<std::pair<int64_t, uint8_t>> writes;
      };
      W w1{Proc(1), 0, {}};
      W w2{Proc(2), kFileBytes / 2, {}};
      for (W* w : {&w1, &w2}) {
        int n = static_cast<int>(rng.Range(1, 4));
        for (int i = 0; i < n; ++i) {
          int64_t off = w->base + rng.Range(0, kFileBytes / 2 - 8);
          uint8_t val = static_cast<uint8_t>(rng.Range(1, 255));
          std::vector<uint8_t> data(static_cast<size_t>(rng.Range(1, 8)), val);
          store_->Write(f, w->owner, off, data);
          for (size_t k = 0; k < data.size(); ++k) {
            working[off + k] = val;
            w->writes.push_back({off + static_cast<int64_t>(k), val});
          }
        }
      }
      // Randomly commit or abort each writer.
      for (W* w : {&w1, &w2}) {
        if (rng.Chance(0.5)) {
          store_->CommitWriter(f, w->owner);
          for (auto& [off, val] : w->writes) {
            committed[off] = val;
          }
        } else {
          store_->AbortWriter(f, w->owner);
          for (auto& [off, val] : w->writes) {
            working[off] = committed[off];
          }
        }
      }
      // After both resolve, working == committed in the model.
      working = committed;
      auto view = store_->Read(f, {0, kFileBytes});
      ASSERT_EQ(view, committed) << "round " << round;
    }
  });
}

}  // namespace
}  // namespace locus
