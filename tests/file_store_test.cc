// FileStore tests: shadow-page writes, the single-file commit mechanism, the
// page-differencing commit and abort paths (Figure 4), rule-2 adoption, and
// the two-phase prepare/install split with its crash idempotency.

#include "src/fs/file_store.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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

// A group advances the replication ordinal once, so its pages reach the
// replicas as one propagation: the group's leader is told every slot the
// group installed, and its other members nothing.
TEST_F(FileStoreTest, GroupLeaderReportsEveryPageTheGroupInstalled) {
  FileId f;
  Run([&] {
    f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(2 * kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));
  });
  // The first install leads alone; the two queued behind it, on different
  // pages, form the next group.
  const int64_t offsets[] = {0, kPageSize, 8};
  std::vector<IntentionsList> prepared;
  Run([&] {
    for (uint64_t t = 1; t <= 3; ++t) {
      store_->Write(f, Txn(t), offsets[t - 1], Bytes("rec"));
    }
    for (uint64_t t = 1; t <= 3; ++t) {
      prepared.push_back(*store_->PrepareWriter(f, Txn(t)));
    }
  });
  std::vector<std::vector<int32_t>> reported(3);
  for (uint64_t t = 1; t <= 3; ++t) {
    sim_.Spawn("install", [&, t] {
      std::vector<PageUpdate> pages;
      store_->InstallIntentions(prepared[t - 1], &pages);
      store_->FinishWriterCommit(f, Txn(t));
      for (const PageUpdate& u : pages) {
        reported[t - 1].push_back(u.page_index);
      }
    });
  }
  sim_.Run();
  EXPECT_EQ(stats_.Get("fs.install.groups"), 1);
  EXPECT_EQ(reported[0], std::vector<int32_t>{0});
  // Whichever of the group's members led it reports both pages.
  EXPECT_EQ(reported[1].empty() ? reported[2] : reported[1], (std::vector<int32_t>{0, 1}));
  EXPECT_TRUE(reported[1].empty() != reported[2].empty());
}

// Section 6.3's common case: an install leaves the page it publishes in the
// buffer pool, even while another writer still has uncommitted records on
// it, so the next commit on the page finds its previous version buffered.
TEST_F(FileStoreTest, InstallBuffersThePageItPublishes) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));

    store_->Write(f, Txn(1), 0, Bytes("AAAA"));
    store_->Write(f, Txn(2), 10, Bytes("BBBB"));  // Still live after txn 1.
    auto intentions = store_->PrepareWriter(f, Txn(1));
    ASSERT_TRUE(intentions.has_value());
    store_->InstallIntentions(*intentions);
    store_->FinishWriterCommit(f, Txn(1));

    const PageId published = volume_->PeekInode(f.ino)->pages[0];
    PageRef pooled = pool_->Lookup(BufferPool::Key{f, 0});
    ASSERT_NE(pooled, nullptr);
    EXPECT_EQ(*pooled, volume_->disk().PeekStable(published));
    stats_.Reset();
    PageRef committed = store_->CommittedPageImage(f, 0);
    EXPECT_EQ(stats_.Get("io.reads.data"), 0);
    EXPECT_EQ(std::string(committed->begin(), committed->begin() + 14), "AAAA..........");
  });
}

// Txn 2's first page is shared with txn 1 (Figure 4b): its intentions carry
// its bytes, so that page never reads anything back. Its second page is its
// own (Figure 4a) but goes stale once txn 1 installs: the re-merge takes the
// writer's bytes from the image its prepare flushed, and only redo after a
// crash, which has no writer, reads that shadow page back.
TEST_F(FileStoreTest, RemergeReadsTheShadowBackOnlyAfterACrash) {
  for (bool crash : {false, true}) {
    Run([&] {
      FileId f = store_->CreateFile();
      store_->Write(f, Proc(1), 0, std::vector<uint8_t>(2 * kPageSize, '.'));
      store_->CommitWriter(f, Proc(1));

      store_->Write(f, Txn(1), 0, Bytes("AAAA"));
      store_->Write(f, Txn(2), 10, Bytes("BBBB"));
      store_->Write(f, Txn(2), kPageSize + 10, Bytes("CCCC"));
      auto i1 = store_->PrepareWriter(f, Txn(1));
      auto i2 = store_->PrepareWriter(f, Txn(2));
      ASSERT_TRUE(i1 && i2);
      store_->InstallIntentions(*i1);
      store_->FinishWriterCommit(f, Txn(1));
      if (crash) {
        // Writer state and buffers are volatile; the prepare log keeps i2.
        store_->OnCrash();
        pool_->Clear();
      }
      stats_.Reset();
      store_->InstallIntentions(*i2);
      store_->FinishWriterCommit(f, Txn(2));
      EXPECT_EQ(stats_.Get("fs.commit.remerged_pages"), 2);
      EXPECT_EQ(stats_.Get("io.reads.reread"), crash ? 1 : 0);

      const DiskInode* inode = volume_->PeekInode(f.ino);
      const PageData& first = volume_->disk().PeekStable(inode->pages[0]);
      const PageData& second = volume_->disk().PeekStable(inode->pages[1]);
      EXPECT_EQ(std::string(first.begin(), first.begin() + 14), "AAAA......BBBB");
      EXPECT_EQ(std::string(second.begin(), second.begin() + 14), "..........CCCC");
    });
  }
}

// A page slot shared with another writer's uncommitted records (Figure 4b)
// is prepared without a shadow write: the intentions carry the writer's
// bytes, and the install merges them onto the current image and writes the
// page once. Redo after a crash before the install, after its page write, or
// after its descriptor write restores the committed bytes from the
// intentions alone and reads nothing back.
TEST_F(FileStoreTest, DifferencedSlotRedoNeedsOnlyTheIntentions) {
  enum Crash { kBeforeInstall, kAfterPageWrite, kAfterDescriptorWrite };
  for (Crash crash : {kBeforeInstall, kAfterPageWrite, kAfterDescriptorWrite}) {
    SCOPED_TRACE(crash);
    FileId f;
    std::optional<IntentionsList> prepared;
    Run([&] {
      f = store_->CreateFile();
      store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kPageSize, '.'));
      store_->CommitWriter(f, Proc(1));
      store_->Write(f, Txn(1), 0, Bytes("AAAA"));
      store_->Write(f, Txn(2), 10, Bytes("BBBB"));  // Never commits.
      stats_.Reset();
      prepared = store_->PrepareWriter(f, Txn(1));
    });
    ASSERT_TRUE(prepared.has_value());
    ASSERT_EQ(prepared->updates.size(), 1u);
    EXPECT_NE(prepared->updates[0].records, nullptr);
    EXPECT_EQ(stats_.Get("io.writes.data"), 0);
    EXPECT_EQ(CarriedRecordBytes(*prepared, kPageSize), 4);
    const PageId old_page = volume_->PeekInode(f.ino)->pages[0];
    const PageId shadow = prepared->updates[0].new_page;

    if (crash != kBeforeInstall) {
      ProcessHandle installer =
          sim_.Spawn("install", [&] { store_->InstallIntentions(*prepared); });
      if (crash == kAfterPageWrite) {
        // The merged page takes one 10 ms disk write, the descriptor the next.
        sim_.RunFor(Milliseconds(15));
        const PageData& written = volume_->disk().PeekStable(shadow);
        EXPECT_EQ(std::string(written.begin(), written.begin() + 14), "AAAA..........");
        EXPECT_EQ(volume_->PeekInode(f.ino)->pages[0], old_page);
        sim_.Kill(installer);
      }
      sim_.Run();
      if (crash == kAfterDescriptorWrite) {
        EXPECT_EQ(volume_->PeekInode(f.ino)->pages[0], shadow);
      }
    }
    // Writer state, buffers and unforced I/O are volatile; the prepare
    // record keeps the intentions.
    store_->OnCrash();
    pool_->Clear();
    volume_->OnCrash();
    volume_->RecoverAllocation(FileStore::PagesNamedBy(*prepared));
    stats_.Reset();
    Run([&] {
      store_->HoldIntentions(*prepared);
      store_->InstallIntentions(*prepared);
      store_->ReleaseIntentions(*prepared);
    });
    EXPECT_EQ(stats_.Get("io.reads.reread"), 0);
    const DiskInode* inode = volume_->PeekInode(f.ino);
    EXPECT_EQ(inode->pages[0], shadow);
    const PageData& stable = volume_->disk().PeekStable(inode->pages[0]);
    EXPECT_EQ(std::string(stable.begin(), stable.begin() + 14), "AAAA..........");
    EXPECT_FALSE(volume_->IsAllocated(old_page));
    EXPECT_EQ(volume_->double_frees(), 0);
  }
}

// A group raises the file's version when it starts and replaces each slot's
// page pointer later. A pool-miss fetch of a slot that starts inside the
// group and completes after the group published that slot must not buffer
// the image it read, which that publish superseded.
TEST_F(FileStoreTest, PoolMissNeverBuffersASupersededImage) {
  FileId f;
  std::optional<IntentionsList> prepared;
  Run([&] {
    f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(3 * kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));
    store_->Write(f, Txn(1), 0, Bytes("AAAA"));
    store_->Write(f, Txn(1), kPageSize, Bytes("CCCC"));
    prepared = store_->PrepareWriter(f, Txn(1));
    // Another writer keeps slot 1's working page after txn 1 resolves, and a
    // commit on slot 2 makes txn 1's base stale, so its install writes both
    // of its slots: slot 0 in [0, 10) ms, slot 1 in [10, 20) ms.
    store_->Write(f, Proc(3), kPageSize + 10, Bytes("dddd"));
    store_->Write(f, Proc(2), 2 * kPageSize, Bytes("zz"));
    store_->CommitWriter(f, Proc(2));
  });
  ASSERT_TRUE(prepared.has_value());
  sim_.Spawn("install", [&] {
    store_->InstallIntentions(*prepared);
    store_->FinishWriterCommit(f, Txn(1));
  });
  sim_.Spawn("fetch", [&] {
    // Misses at 12 ms, inside the group; its read queues behind the slot 1
    // write and completes after the group has published slot 1.
    sim_.Sleep(Milliseconds(12));
    pool_->Erase(BufferPool::Key{f, 1});
    store_->CommittedPageImage(f, 1);
  });
  sim_.Run();
  const PageData& published = volume_->disk().PeekStable(volume_->PeekInode(f.ino)->pages[1]);
  EXPECT_EQ(std::string(published.begin(), published.begin() + 14), "CCCC..........");
  PageRef pooled = pool_->Lookup(BufferPool::Key{f, 1});
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(*pooled, published);
  Run([&] {
    PageRef committed = store_->CommittedPageImage(f, 1);
    EXPECT_EQ(std::string(committed->begin(), committed->begin() + 14), "CCCC..........");
  });
}

// An install frees the pages it replaces only once its descriptor write has
// completed: until then a crash leaves the old descriptor, which still names
// them. Here a group writes four slots; a writer of another file that starts
// after the first slot is published takes the lowest free page and writes
// it. The site crashes once that write is on disk and before the group's
// descriptor write: the durable descriptor must still name the committed
// bytes, and redo installs the intentions onto them.
TEST_F(FileStoreTest, ReplacedPagesAreFreedOnlyOnceTheDescriptorIsOnDisk) {
  constexpr int kSlots = 4;
  FileId f;
  FileId g;
  std::optional<IntentionsList> prepared;
  Run([&] {
    f = store_->CreateFile();
    g = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(kSlots * kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));
    for (int slot = 0; slot < kSlots; ++slot) {
      store_->Write(f, Txn(1), slot * kPageSize, Bytes("AAAA"));
    }
    prepared = store_->PrepareWriter(f, Txn(1));
    // A commit that extends the file makes txn 1's base stale, so its
    // install writes every slot, and replaces no page itself.
    store_->Write(f, Proc(2), kSlots * kPageSize, Bytes("zz"));
    store_->CommitWriter(f, Proc(2));
  });
  ASSERT_TRUE(prepared.has_value());
  const PageId old_page = volume_->PeekInode(f.ino)->pages[0];
  // Take every free page below the one slot 0's install replaces, so that
  // page is the lowest free one once it is freed.
  std::vector<PageId> taken;
  for (PageId p = volume_->AllocPage(); p < old_page; p = volume_->AllocPage()) {
    taken.push_back(p);
  }
  ProcessHandle installer = sim_.Spawn("install", [&] {
    store_->InstallIntentions(*prepared);
    store_->FinishWriterCommit(f, Txn(1));
  });
  ProcessHandle writer = sim_.Spawn("writer", [&] {
    sim_.Sleep(Milliseconds(12));  // Slot 0 was published at 10 ms.
    store_->Write(g, Proc(5), 0, std::vector<uint8_t>(kPageSize, 'X'));
    store_->CommitWriter(g, Proc(5));
  });
  bool crashed = false;
  std::function<void()> poll = [&] {
    bool x_on_disk = false;
    for (PageId p = 0; p < volume_->disk().num_pages(); ++p) {
      x_on_disk = x_on_disk || volume_->disk().PeekStable(p)[0] == 'X';
    }
    if (!x_on_disk) {
      sim_.Schedule(Milliseconds(1), [&poll] { poll(); });
      return;
    }
    EXPECT_EQ(volume_->PeekInode(f.ino)->pages[0], old_page);  // Not yet replaced.
    crashed = true;
    sim_.Kill(installer);
    sim_.Kill(writer);
    store_->OnCrash();
    pool_->Clear();
    volume_->OnCrash();
  };
  sim_.Schedule(0, [&poll] { poll(); });
  sim_.Run();
  ASSERT_TRUE(crashed);
  volume_->RecoverAllocation(FileStore::PagesNamedBy(*prepared));
  const DiskInode* durable = volume_->PeekInode(f.ino);
  ASSERT_EQ(durable->pages[0], old_page);
  const PageData& before_redo = volume_->disk().PeekStable(old_page);
  EXPECT_EQ(std::string(before_redo.begin(), before_redo.end()), std::string(kPageSize, '.'));
  Run([&] {
    store_->HoldIntentions(*prepared);
    store_->InstallIntentions(*prepared);
    store_->ReleaseIntentions(*prepared);
    std::string expected;
    for (int slot = 0; slot < kSlots; ++slot) {
      expected += "AAAA" + std::string(kPageSize - 4, '.');
    }
    EXPECT_EQ(Text(store_->Read(f, {0, kSlots * kPageSize})), expected);
  });
  for (int slot = 0; slot < kSlots; ++slot) {
    const PageData& page = volume_->disk().PeekStable(volume_->PeekInode(f.ino)->pages[slot]);
    EXPECT_EQ(std::string(page.begin(), page.begin() + 8), "AAAA....") << "slot " << slot;
  }
  EXPECT_EQ(volume_->double_frees(), 0);
}

// A reintegration fetch ships the whole committed image with its ordinal.
// A group raises the ordinal when it starts and publishes its slots one by
// one, so a fetch that starts inside a group waits for it to end instead of
// shipping old pages under the group's ordinal.
TEST_F(FileStoreTest, CommittedImageNeverTearsAGroup) {
  FileId f;
  std::optional<IntentionsList> prepared;
  Run([&] {
    f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, std::vector<uint8_t>(3 * kPageSize, '.'));
    store_->CommitWriter(f, Proc(1));
    store_->Write(f, Txn(1), 0, Bytes("AAAA"));
    store_->Write(f, Txn(1), kPageSize, Bytes("CCCC"));
    prepared = store_->PrepareWriter(f, Txn(1));
    // A commit on slot 2 makes txn 1's base stale, so its install writes
    // both of its slots, in [0, 10) and [10, 20) ms.
    store_->Write(f, Proc(2), 2 * kPageSize, Bytes("zz"));
    store_->CommitWriter(f, Proc(2));
  });
  ASSERT_TRUE(prepared.has_value());
  const uint64_t before = store_->CommitVersion(f);
  sim_.Spawn("install", [&] { store_->InstallIntentions(*prepared); });
  uint64_t ordinal = 0;
  int64_t size = 0;
  std::vector<std::pair<int32_t, PageRef>> pages;
  sim_.Spawn("fetch", [&] {
    sim_.Sleep(Milliseconds(5));
    EXPECT_EQ(store_->CommitVersion(f), before + 1);  // Raised by the group.
    ordinal = store_->CommittedImage(f, &size, &pages);
  });
  sim_.Run();
  EXPECT_EQ(ordinal, before + 1);
  EXPECT_EQ(size, 3 * kPageSize);
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(std::string(pages[0].second->begin(), pages[0].second->begin() + 6), "AAAA..");
  EXPECT_EQ(std::string(pages[1].second->begin(), pages[1].second->begin() + 6), "CCCC..");
  EXPECT_EQ(std::string(pages[2].second->begin(), pages[2].second->begin() + 6), "zz....");
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
    // Aborting the transaction hands the donor's writes back as they were
    // (section 3.4: an abort undoes only the transaction's changes).
    store_->Write(f, Txn(1), 0, Bytes("TXN"));
    store_->AbortWriter(f, Txn(1));
    EXPECT_TRUE(store_->HasUncommitted(f, Proc(1)));
    EXPECT_EQ(store_->WorkingSize(f), 9);
    EXPECT_EQ(Text(store_->Read(f, {0, 9})), "all of it");
    // They commit with the donor again.
    store_->CommitWriter(f, Proc(1));
    EXPECT_FALSE(store_->HasUncommitted(f, Proc(1)));
    EXPECT_EQ(store_->CommittedSize(f), 9);
  });
}

TEST_F(FileStoreTest, AdoptionsStayWithTheTransactionOnceTheDonorResolves) {
  Run([&] {
    FileId f = store_->CreateFile();
    store_->Write(f, Proc(1), 0, Bytes("all of it"));
    store_->AdoptDirtyRanges(f, {0, 9}, Txn(1));
    // The donor's exit must reach the adoption it left behind.
    EXPECT_EQ(store_->FilesWithUncommitted(Proc(1)), std::vector<FileId>{f});
    // The donor resolves first: the adopted bytes are the transaction's
    // alone from now on, and its abort leaves no writer behind.
    store_->AbortWriter(f, Proc(1));
    EXPECT_TRUE(store_->FilesWithUncommitted(Proc(1)).empty());
    store_->AbortWriter(f, Txn(1));
    EXPECT_FALSE(store_->HasAnyWriters(f));
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
