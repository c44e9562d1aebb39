// Disk and Volume tests: FIFO latency model, I/O accounting, crash semantics
// (in-flight requests lost, stable pages kept), inode-table atomicity, the
// per-volume log with its single/double-write append modes (footnote 9) and
// its group-commit staging, and allocation rebuild during recovery
// (section 4.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/sim/random.h"
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
  SimTime write_done = 0;
  SimTime read_done = 0;
  sim_.Spawn("w", [&] {
    disk_.Write(5, MakePage(PageData(64, 9)), "data");
    write_done = sim_.Now();
  });
  // Submitted while the write is in flight: it queues behind it.
  sim_.Schedule(Milliseconds(1), [&] {
    disk_.SubmitRead(5, "data", [&](PageRef d) {
      read_done = sim_.Now();
      EXPECT_EQ((*d)[0], 9);  // FIFO: the write completed first.
    });
  });
  sim_.Run();
  EXPECT_EQ(write_done, Milliseconds(20));
  EXPECT_EQ(read_done, Milliseconds(40));
}

TEST_F(DiskTest, CrashDropsInFlightWrites) {
  bool returned = false;
  sim_.Spawn("w", [&] {
    disk_.Write(7, MakePage(PageData(64, 0xCC)), "data");
    returned = true;
  });
  // Crash before the 20 ms access completes.
  sim_.Schedule(Milliseconds(5), [&] { disk_.DropPendingRequests(); });
  sim_.Run();
  EXPECT_TRUE(returned);
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

// The word-at-a-time allocator against a bit-by-bit first-fit reference:
// random allocations, frees and allocation rebuilds on a volume whose page
// count is not a multiple of the 64-page bitmap word.
TEST(VolumeAllocation, MatchesABitByBitFirstFitReference) {
  constexpr int32_t kPages = 200;
  constexpr PageId kReserved = 2;
  Simulation sim;
  StatRegistry stats;
  Volume volume(1, "v1", std::make_unique<Disk>(&sim, &stats, "d1", kPages, 64));
  std::vector<bool> ref(kPages, false);
  ref[0] = ref[1] = true;
  auto ref_first_fit = [&]() -> PageId {
    for (PageId p = kReserved; p < kPages; ++p) {
      if (!ref[p]) {
        return p;
      }
    }
    return kNoPage;
  };
  Rng rng(12345);
  for (int step = 0; step < 20000; ++step) {
    uint64_t op = rng.Below(100);
    if (op < 55) {
      PageId expected = ref_first_fit();
      if (expected == kNoPage) {
        continue;  // Full: exhaustion is the death test's business.
      }
      ASSERT_EQ(volume.AllocPage(), expected) << "step " << step;
      ref[expected] = true;
    } else if (op < 98) {
      PageId p = static_cast<PageId>(kReserved + rng.Below(kPages - kReserved));
      if (ref[p]) {
        volume.FreePage(p);
        ref[p] = false;
      }
    } else {
      std::vector<PageId> live;
      std::fill(ref.begin() + kReserved, ref.end(), false);
      for (int i = 0; i < 20; ++i) {
        PageId p = static_cast<PageId>(kReserved + rng.Below(kPages - kReserved));
        live.push_back(p);
        ref[p] = true;
      }
      volume.RecoverAllocation(live);
    }
    int32_t free_pages = 0;
    for (PageId p = 0; p < kPages; ++p) {
      ASSERT_EQ(volume.IsAllocated(p), ref[p]) << "page " << p << " at step " << step;
      free_pages += ref[p] ? 0 : 1;
    }
    ASSERT_EQ(volume.free_page_count(), free_pages);
  }
  EXPECT_EQ(volume.double_frees(), 0);
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

// The descriptor block written is the caller's inode as it read at the
// call: a change the caller makes while the write is in flight (another
// install's pointers, say) is not published with it.
TEST_F(VolumeTest, InodeWritePublishesTheDescriptorAsOfTheCall) {
  Ino ino = volume_->AllocInode();
  DiskInode inode;
  inode.ino = ino;
  inode.size = 64;
  inode.pages = {5};
  sim_.Spawn("writer", [&] { volume_->WriteInode(inode); });
  sim_.Spawn("mutator", [&] {
    sim_.Sleep(Milliseconds(1));  // Mid-write.
    EXPECT_EQ(volume_->PeekInode(ino), nullptr);
    inode.size = 128;
    inode.pages = {5, 9};
  });
  sim_.Run();
  const DiskInode* stable = volume_->PeekInode(ino);
  ASSERT_NE(stable, nullptr);
  EXPECT_EQ(stable->size, 64);
  EXPECT_EQ(stable->pages, (std::vector<PageId>{5}));
  // The next write publishes the change.
  Run([&] { volume_->WriteInode(inode); });
  EXPECT_EQ(volume_->PeekInode(ino)->pages, (std::vector<PageId>{5, 9}));
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

// A prepare record whose one intentions list carries `bytes` bytes of
// Figure-4(b) records from offset 0, one update per 64-byte page they touch.
PrepareLogRecord PrepareCarrying(uint64_t serial, int64_t bytes) {
  IntentionsList il;
  il.ranges.push_back(ByteRange{0, bytes});
  for (int32_t slot = 0; slot * 64 < bytes; ++slot) {
    il.updates.push_back(PageUpdate{slot, kNoPage, MakePage(PageData(64, 0))});
  }
  return PrepareLogRecord{TxnId{1, 1, serial}, /*coordinator=*/0, {std::move(il)}};
}

// Logged record bytes never cost fewer writes than the shadow pages they
// replace: a force writes a log page per page of them, and at least one.
TEST_F(VolumeTest, LogForceWritesAPagePerPageOfRecordBytes) {
  Run([&] {
    volume_->AppendLog(PrepareCarrying(1, 64), "prepare_log");
    EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 1);
    volume_->AppendLog(PrepareCarrying(2, 100), "prepare_log");
    EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 3);
    volume_->AppendLog(Prepare(3), "prepare_log");
    EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 4);
  });
}

TEST_F(VolumeTest, LogUpdateAndErase) {
  Run([&] {
    uint64_t id = volume_->AppendLog(Coordinator(1, TxnStatus::kUnknown), "coordinator_log");
    volume_->MarkLog(id, TxnStatus::kCommitted, "commit_mark");
    ASSERT_EQ(volume_->stable_log().size(), 1u);
    EXPECT_EQ(std::get<CoordinatorLogRecord>(volume_->stable_log().at(id)->payload).status,
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
        volume_->stable_log().at(lazy)->payload));
    EXPECT_TRUE(std::holds_alternative<PrepareLogRecord>(
        volume_->stable_log().at(forced)->payload));
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

// A shared force writes a log page per page of the record bytes of every
// record it covers.
TEST_F(GroupCommitLogTest, SharedForceWritesThePagesOfEveryRecord) {
  sim_.Spawn("leader", [&] { volume_->AppendLog(PrepareCarrying(1, 8), "prepare_log"); });
  for (int i = 1; i <= 2; ++i) {
    sim_.Spawn("follower", [&, i] {
      sim_.Sleep(Milliseconds(1));  // The leader's 5 ms write is in flight.
      volume_->AppendLog(PrepareCarrying(1 + i, 40), "prepare_log");
    });
  }
  sim_.Run();
  EXPECT_EQ(volume_->stable_log().size(), 3u);
  EXPECT_EQ(stats_.Get("form.log_forces"), 2);
  // One page for the leader's 8 bytes, two for the followers' 80.
  EXPECT_EQ(stats_.Get("io.writes.prepare_log"), 3);
}

// A status mark on a record still staged lazily applies once the covering
// force publishes the record, and keeps the record's file list.
TEST_F(GroupCommitLogTest, UpdateOfAStagedRecordPublishesTheNewPayload) {
  const UsedFile used{FileId{0, 7}, /*storage_site=*/2};
  Run([&] {
    CoordinatorLogRecord begin = Coordinator(1, TxnStatus::kUnknown);
    begin.files.push_back(used);
    uint64_t id = volume_->AppendLog(std::move(begin), "coordinator_log",
                                     Volume::LogForce::kLazy);
    volume_->MarkLog(id, TxnStatus::kCommitted, "commit_mark");
    ASSERT_EQ(volume_->stable_log().size(), 1u);
    const auto& record = std::get<CoordinatorLogRecord>(volume_->stable_log().at(id)->payload);
    EXPECT_EQ(record.status, TxnStatus::kCommitted);
    EXPECT_EQ(record.files, std::vector<UsedFile>{used});
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
        volume_->stable_log().at(after)->payload));
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
