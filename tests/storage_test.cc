// Disk and Volume tests: FIFO latency model, I/O accounting, crash semantics
// (in-flight requests lost, stable pages kept), inode-table atomicity, the
// per-volume log with its single/double-write append modes (footnote 9) and
// its group-commit staging, and allocation rebuild during recovery
// (section 4.4).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/storage/disk.h"
#include "src/storage/volume.h"

namespace locus {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() : disk_(&sim_, &stats_, "d0", 64, 64, Milliseconds(20)) {}

  void Run(std::function<void()> body) {
    sim_.Spawn("test", std::move(body));
    sim_.Run();
  }

  Simulation sim_;
  StatRegistry stats_;
  Disk disk_;
};

TEST_F(DiskTest, WriteThenReadRoundTrip) {
  Run([&] {
    PageRef data = MakePage(PageData(64, 0xAB));
    disk_.Write(3, data, "data");
    EXPECT_EQ(*disk_.Read(3, "data"), *data);
  });
  EXPECT_EQ(stats_.Get("io.writes.data"), 1);
  EXPECT_EQ(stats_.Get("io.reads.data"), 1);
}

TEST_F(DiskTest, AccessLatencyCharged) {
  Run([&] {
    SimTime t0 = sim_.Now();
    disk_.Write(0, MakePage(PageData(64, 1)), "data");
    EXPECT_EQ(sim_.Now() - t0, Milliseconds(20));
  });
}

TEST_F(DiskTest, FifoQueueSerializesRequests) {
  // Two processes submit at the same instant; the second completes at 2x the
  // access latency because the disk serves one request at a time.
  SimTime done_a = 0;
  SimTime done_b = 0;
  sim_.Spawn("a", [&] {
    disk_.Write(0, MakePage(PageData(64, 1)), "data");
    done_a = sim_.Now();
  });
  sim_.Spawn("b", [&] {
    disk_.Write(1, MakePage(PageData(64, 2)), "data");
    done_b = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(done_a, Milliseconds(20));
  EXPECT_EQ(done_b, Milliseconds(40));
}

TEST_F(DiskTest, AsyncSubmitCompletes) {
  bool read_done = false;
  bool write_done = false;
  disk_.SubmitWrite(5, MakePage(PageData(64, 9)), "data", [&] { write_done = true; });
  disk_.SubmitRead(5, "data", [&](PageRef d) {
    read_done = true;
    EXPECT_EQ((*d)[0], 9);  // FIFO: the write completed first.
  });
  sim_.Run();
  EXPECT_TRUE(write_done);
  EXPECT_TRUE(read_done);
}

TEST_F(DiskTest, CrashDropsInFlightWrites) {
  disk_.SubmitWrite(7, MakePage(PageData(64, 0xCC)), "data", [] {});
  // Crash before the 20 ms access completes.
  sim_.Schedule(Milliseconds(5), [&] { disk_.DropPendingRequests(); });
  sim_.Run();
  EXPECT_EQ(disk_.PeekStable(7)[0], 0);  // Never reached stable storage.
}

TEST_F(DiskTest, CompletedWritesSurviveCrash) {
  sim_.Spawn("w", [&] {
    disk_.Write(7, MakePage(PageData(64, 0xDD)), "data");
    disk_.DropPendingRequests();  // Crash after completion.
  });
  sim_.Run();
  EXPECT_EQ(disk_.PeekStable(7)[0], 0xDD);
}

class VolumeTest : public ::testing::Test {
 protected:
  VolumeTest() {
    auto disk = std::make_unique<Disk>(&sim_, &stats_, "d0", 64, 64, Milliseconds(5));
    volume_ = std::make_unique<Volume>(7, "v7", std::move(disk));
  }

  void Run(std::function<void()> body) {
    sim_.Spawn("test", std::move(body));
    sim_.Run();
  }

  Simulation sim_;
  StatRegistry stats_;
  std::unique_ptr<Volume> volume_;
};

TEST_F(VolumeTest, PageAllocationIsExclusive) {
  PageId a = volume_->AllocPage();
  PageId b = volume_->AllocPage();
  EXPECT_NE(a, b);
  EXPECT_GE(a, 2);  // Reserved metadata pages are never handed out.
  EXPECT_TRUE(volume_->IsAllocated(a));
  volume_->FreePage(a);
  EXPECT_FALSE(volume_->IsAllocated(a));
  PageId c = volume_->AllocPage();
  EXPECT_EQ(c, a);  // First-fit reuse.
}

// First fit: an allocation takes the lowest free page, however the pages
// below it were freed, and a rebuilt allocation map starts over from the
// bottom.
TEST_F(VolumeTest, AllocationTakesTheLowestFreePage) {
  std::vector<PageId> pages;
  for (int i = 0; i < 10; ++i) {
    pages.push_back(volume_->AllocPage());
  }
  EXPECT_EQ(pages.front(), 2);
  EXPECT_EQ(pages.back(), 11);
  volume_->FreePage(9);
  volume_->FreePage(4);
  EXPECT_EQ(volume_->AllocPage(), 4);
  EXPECT_EQ(volume_->AllocPage(), 9);
  EXPECT_EQ(volume_->AllocPage(), 12);
  volume_->RecoverAllocation({3, 5});
  EXPECT_EQ(volume_->AllocPage(), 2);
  EXPECT_EQ(volume_->AllocPage(), 4);
  EXPECT_EQ(volume_->AllocPage(), 6);
}

using VolumeDeathTest = VolumeTest;

// A full volume has no page to give: the run stops with a message in every
// build rather than handing out kNoPage.
TEST_F(VolumeDeathTest, ExhaustionAbortsWithAMessage) {
  for (int i = 2; i < 64; ++i) {
    ASSERT_NE(volume_->AllocPage(), kNoPage);
  }
  EXPECT_EQ(volume_->free_page_count(), 0);
  EXPECT_DEATH(volume_->AllocPage(), "volume v7: out of pages \\(all 64 allocated\\)");
}

TEST_F(VolumeTest, InodeWriteReadRoundTrip) {
  Run([&] {
    Ino ino = volume_->AllocInode();
    DiskInode inode;
    inode.ino = ino;
    inode.size = 100;
    inode.pages = {5, 9};
    volume_->WriteInode(inode);
    auto back = volume_->ReadInode(ino);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->size, 100);
    EXPECT_EQ(back->pages, (std::vector<PageId>{5, 9}));
    EXPECT_FALSE(volume_->ReadInode(999).has_value());
  });
  EXPECT_EQ(stats_.Get("io.writes.inode"), 1);
  EXPECT_EQ(stats_.Get("io.reads.inode"), 2);
}

// Log records as the transaction layer writes them (section 4.2).
CoordinatorLogRecord Coordinator(uint64_t serial, TxnStatus status) {
  return CoordinatorLogRecord{TxnId{0, 1, serial}, status, {}};
}

PrepareLogRecord Prepare(uint64_t serial) {
  return PrepareLogRecord{TxnId{1, 1, serial}, /*coordinator=*/0, {}};
}

TEST_F(VolumeTest, LogAppendSingleVsDoubleWrite) {
  Run([&] {
    volume_->AppendLog(Prepare(1), "prepare_log");
    EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 1);
    EXPECT_EQ(stats_.Get("io.writes.log_inode"), 0);

    // Footnote 9: the 1985 implementation needed two writes per append.
    volume_->set_log_append_mode(Volume::LogAppendMode::kDoubleWrite);
    volume_->AppendLog(Prepare(2), "prepare_log");
    EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 2);
    EXPECT_EQ(stats_.Get("io.writes.log_inode"), 1);
  });
}

TEST_F(VolumeTest, LogUpdateAndErase) {
  Run([&] {
    uint64_t id = volume_->AppendLog(Coordinator(1, TxnStatus::kUnknown), "coordinator_log");
    volume_->UpdateLog(id, Coordinator(1, TxnStatus::kCommitted), "commit_mark");
    ASSERT_EQ(volume_->stable_log().size(), 1u);
    EXPECT_EQ(std::get<CoordinatorLogRecord>(volume_->stable_log().at(id).payload).status,
              TxnStatus::kCommitted);
    volume_->EraseLog(id);
    EXPECT_TRUE(volume_->stable_log().empty());
  });
  EXPECT_EQ(stats_.Get("io.writes.commit_mark"), 1);
}

TEST_F(VolumeTest, CrashRebuildsVolatileCounters) {
  Run([&] {
    Ino i1 = volume_->AllocInode();
    DiskInode inode;
    inode.ino = i1;
    volume_->WriteInode(inode);
    volume_->AppendLog(Prepare(1), "prepare_log");
    volume_->OnCrash();
    // Fresh ids must not collide with stable ones.
    EXPECT_GT(volume_->AllocInode(), i1);
    uint64_t id2 = 0;
    id2 = volume_->AppendLog(Prepare(2), "prepare_log");
    EXPECT_EQ(volume_->stable_log().count(id2), 1u);
    EXPECT_EQ(volume_->stable_log().size(), 2u);
  });
}

// Group commit: records staged by concurrent callers share one log force.
class GroupCommitLogTest : public VolumeTest {
 protected:
  GroupCommitLogTest() {
    volume_->BindStats(&stats_);
    volume_->EnableGroupCommit(&sim_);
  }
};

// A lazy record is not stable until a later forced one's write covers it.
TEST_F(GroupCommitLogTest, LazyAppendWaitsForACoveringForce) {
  Run([&] {
    uint64_t lazy = volume_->AppendLog(Coordinator(1, TxnStatus::kUnknown),
                                       "coordinator_log", Volume::LogForce::kLazy);
    EXPECT_TRUE(volume_->stable_log().empty());
    EXPECT_EQ(stats_.Get("io.writes.coordinator_log"), 0);
    EXPECT_EQ(stats_.Get("form.log_forces"), 0);

    uint64_t forced = volume_->AppendLog(Prepare(1), "prepare_log");
    ASSERT_EQ(volume_->stable_log().size(), 2u);
    EXPECT_TRUE(std::holds_alternative<CoordinatorLogRecord>(
        volume_->stable_log().at(lazy).payload));
    EXPECT_TRUE(std::holds_alternative<PrepareLogRecord>(
        volume_->stable_log().at(forced).payload));
  });
  EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 1);
  EXPECT_EQ(stats_.Get("form.log_forces"), 1);
  EXPECT_EQ(stats_.Get("form.group_commit_records"), 2);
}

// Appends staged while a force is in flight wait for it, then share the next.
TEST_F(GroupCommitLogTest, AppendsDuringAForceShareTheNextOne) {
  std::vector<SimTime> done_at(3, SimTime{-1});
  sim_.Spawn("leader", [&] {
    volume_->AppendLog(Prepare(1), "prepare_log");
    done_at[0] = sim_.Now();
    // Only the leader's record was staged when its write started.
    EXPECT_EQ(volume_->stable_log().size(), 1u);
  });
  for (int i = 1; i <= 2; ++i) {
    sim_.Spawn("follower", [&, i] {
      sim_.Sleep(Milliseconds(1));  // The leader's 5 ms write is in flight.
      volume_->AppendLog(Prepare(1 + i), "prepare_log");
      done_at[i] = sim_.Now();
    });
  }
  sim_.Run();
  EXPECT_EQ(done_at[0], Milliseconds(5));
  EXPECT_EQ(done_at[1], Milliseconds(10));
  EXPECT_EQ(done_at[2], Milliseconds(10));
  EXPECT_EQ(volume_->stable_log().size(), 3u);
  EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 2);
  EXPECT_EQ(stats_.Get("form.log_forces"), 2);
  // The first force covered one record; the second covered two.
  EXPECT_EQ(stats_.Get("form.group_commit_records"), 2);
}

// An update of a record still staged lazily replaces its payload before the
// covering force publishes it.
TEST_F(GroupCommitLogTest, UpdateOfAStagedRecordPublishesTheNewPayload) {
  Run([&] {
    uint64_t id = volume_->AppendLog(Coordinator(1, TxnStatus::kUnknown), "coordinator_log",
                                     Volume::LogForce::kLazy);
    volume_->UpdateLog(id, Coordinator(1, TxnStatus::kCommitted), "commit_mark");
    ASSERT_EQ(volume_->stable_log().size(), 1u);
    EXPECT_EQ(std::get<CoordinatorLogRecord>(volume_->stable_log().at(id).payload).status,
              TxnStatus::kCommitted);
  });
  EXPECT_EQ(stats_.Get("io.writes.commit_mark"), 1);
  EXPECT_EQ(stats_.Get("form.log_forces"), 1);
}

// A crash loses records still staged, and keeps those an earlier force
// published.
TEST_F(GroupCommitLogTest, CrashLosesStagedRecordsAndKeepsForcedOnes) {
  Run([&] {
    uint64_t forced = volume_->AppendLog(Prepare(1), "prepare_log");
    uint64_t lazy = volume_->AppendLog(Coordinator(1, TxnStatus::kUnknown), "coordinator_log",
                                       Volume::LogForce::kLazy);
    volume_->OnCrash();
    ASSERT_EQ(volume_->stable_log().size(), 1u);
    EXPECT_EQ(volume_->stable_log().count(forced), 1u);
    EXPECT_EQ(volume_->stable_log().count(lazy), 0u);
    // Nothing staged survives to ride a later force.
    uint64_t after = volume_->AppendLog(Prepare(2), "prepare_log");
    ASSERT_EQ(volume_->stable_log().size(), 2u);
    EXPECT_TRUE(std::holds_alternative<PrepareLogRecord>(
        volume_->stable_log().at(after).payload));
  });
  EXPECT_EQ(stats_.Get("form.log_forces"), 2);
  EXPECT_EQ(stats_.Get("form.group_commit_records"), 0);
}

TEST_F(VolumeTest, RecoverAllocationFromInodesAndLogPages) {
  Run([&] {
    PageId inode_page = volume_->AllocPage();
    PageId log_page = volume_->AllocPage();
    PageId orphan = volume_->AllocPage();  // Allocated but referenced nowhere.
    DiskInode inode;
    inode.ino = volume_->AllocInode();
    inode.pages = {inode_page};
    volume_->WriteInode(inode);

    volume_->OnCrash();
    volume_->RecoverAllocation({log_page});
    EXPECT_TRUE(volume_->IsAllocated(inode_page));   // Named by an inode.
    EXPECT_TRUE(volume_->IsAllocated(log_page));     // Named by a log record.
    EXPECT_FALSE(volume_->IsAllocated(orphan));      // Reclaimed.
  });
}

}  // namespace
}  // namespace locus
