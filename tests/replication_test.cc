// Replication tests (section 5.2): multi-replica files, reads served by the
// closest replica, primary-update-site designation and service migration on
// open-for-update, and update propagation to replicas after commit.

#include <gtest/gtest.h>

#include <string>

#include "src/locus/system.h"

namespace locus {
namespace {

std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : system_(3) {}
  System system_;
};

TEST_F(ReplicationTest, CreateReplicatedPlacesInodesOnAllSites) {
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/r", /*replication=*/3), Err::kOk);
  });
  system_.RunFor(Seconds(5));
  const CatalogEntry* entry = system_.catalog().Lookup("/r");
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->replicas.size(), 3u);
  for (const Replica& r : entry->replicas) {
    Kernel& k = system_.kernel(r.site);
    EXPECT_TRUE(k.StoreFor(r.file.volume)->Exists(r.file));
  }
}

TEST_F(ReplicationTest, ReadsServedByLocalReplicaWithoutNetwork) {
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/r", 3), Err::kOk);
    auto fd = sys.Open("/r", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "replicated content"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system_.RunFor(Seconds(10));  // Close-commit + propagation complete.
  EXPECT_GE(system_.stats().Get("fs.replica_propagations"), 2);

  // A reader at site 2 must be served by its own replica: latency well under
  // a network round trip.
  SimTime elapsed = 0;
  std::string content;
  system_.Spawn(2, "rd", [&](Syscalls& sys) {
    auto fd = sys.Open("/r", {});
    ASSERT_TRUE(fd.ok());
    SimTime t0 = sys.system().sim().Now();
    auto data = sys.Read(fd.value, 18);
    elapsed = sys.system().sim().Now() - t0;
    ASSERT_TRUE(data.ok());
    content = Text(data.value);
    sys.Close(fd.value);
  });
  system_.RunFor(Seconds(5));
  EXPECT_EQ(content, "replicated content");
  EXPECT_LT(elapsed, Milliseconds(10));
}

TEST_F(ReplicationTest, OpenForUpdateMigratesServiceToPrimary) {
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/r", 3), Err::kOk);
    auto fd = sys.Open("/r", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "v1v1v1v1v1"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system_.RunFor(Seconds(10));

  // A reader at site 2 opens its channel BEFORE any update open: served by
  // its local replica. When a writer at site 1 later opens for update, the
  // reader's service migrates to the primary (footnote 8) and it sees the
  // writer's uncommitted-but-visible bytes.
  std::string before_update;
  std::string after_update;
  system_.Spawn(2, "reader", [&](Syscalls& sys) {
    auto rfd = sys.Open("/r", {});
    ASSERT_TRUE(rfd.ok());
    auto first = sys.Read(rfd.value, 10);
    ASSERT_TRUE(first.ok());
    before_update = Text(first.value);
    sys.Compute(Milliseconds(500));  // The writer acts during this window.
    sys.Seek(rfd.value, 0);
    auto second = sys.Read(rfd.value, 10);
    ASSERT_TRUE(second.ok());
    after_update = Text(second.value);
    sys.Close(rfd.value);
  });
  system_.Spawn(1, "writer", [&](Syscalls& sys) {
    sys.Compute(Milliseconds(100));
    auto fd = sys.Open("/r", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "v2"), Err::kOk);  // Uncommitted.
    sys.Compute(Milliseconds(600));  // Keep the update open active.
    sys.Close(fd.value);
  });
  system_.RunFor(Seconds(10));
  EXPECT_EQ(before_update, "v1v1v1v1v1");
  EXPECT_EQ(after_update, "v2v1v1v1v1");
  EXPECT_GE(system_.stats().Get("fs.service_migrations"), 1);
}

TEST_F(ReplicationTest, CommitPropagatesToAllReplicas) {
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/r", 3), Err::kOk);
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/r", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "transactional-update"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  system_.RunFor(Seconds(15));
  // Every replica's committed stable content holds the update.
  const CatalogEntry* entry = system_.catalog().Lookup("/r");
  ASSERT_NE(entry, nullptr);
  for (const Replica& r : entry->replicas) {
    FileStore* store = system_.kernel(r.site).StoreFor(r.file.volume);
    EXPECT_EQ(store->CommittedSize(r.file), 20)
        << "replica at site " << r.site << " not propagated";
  }
}

// Transactions at two sites commit records on both pages of a replicated
// file at about the same time, so installs at the primary queue behind the
// one in flight and form groups. A group advances the replication ordinal
// once; its propagation must carry every page its members installed.
TEST_F(ReplicationTest, GroupedInstallsPropagateEveryMembersPages) {
  constexpr int64_t kPage = 1024;
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/m", 3), Err::kOk);
    auto fd = sys.Open("/m", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, std::string(2 * kPage, '.')), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system_.RunFor(Seconds(10));
  const std::string records = "ABCDEFGH";
  std::string model(2 * kPage, '.');
  int committed = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    // Alternate pages, so members of one group write different pages.
    const int64_t offset = static_cast<int64_t>(i % 2) * kPage + static_cast<int64_t>(8 * i);
    model.replace(offset, 8, std::string(8, records[i]));
    system_.Spawn(i % 2 == 0 ? 0 : 2, "txn", [&committed, offset, c = records[i]](Syscalls& sys) {
      ASSERT_EQ(sys.BeginTrans(), Err::kOk);
      auto fd = sys.Open("/m", {.read = true, .write = true});
      ASSERT_TRUE(fd.ok());
      sys.Seek(fd.value, offset);
      ASSERT_EQ(sys.WriteString(fd.value, std::string(8, c)), Err::kOk);
      sys.Close(fd.value);
      ASSERT_EQ(sys.EndTrans(), Err::kOk);
      ++committed;
    });
  }
  system_.RunFor(Seconds(30));
  ASSERT_EQ(committed, static_cast<int>(records.size()));
  EXPECT_GT(system_.stats().Get("fs.install.groups"), 0);
  // Each propagation queues behind the one still installing at a replica
  // instead of reading as a gap.
  EXPECT_EQ(system_.stats().Get("recon.gap_quarantines"), 0);
  const CatalogEntry* entry = system_.catalog().Lookup("/m");
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->replicas.size(), 3u);
  for (const Replica& r : entry->replicas) {
    Volume* volume = system_.kernel(r.site).FindVolume(r.file.volume);
    const DiskInode* inode = volume->PeekInode(r.file.ino);
    ASSERT_NE(inode, nullptr);
    std::string stable;
    for (PageId page : inode->pages) {
      const PageData& image = volume->disk().PeekStable(page);
      stable.append(image.begin(), image.end());
    }
    EXPECT_EQ(stable, model) << "replica at site " << r.site;
  }
}

// A propagation carries committed bytes only. A transaction at site 0 writes
// a record of a replicated page and waits; one at site 2 writes another
// record of the page and commits; then the first aborts. No replica may keep
// the aborted record.
TEST_F(ReplicationTest, PropagationCarriesNoUncommittedNeighbour) {
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/n", 3), Err::kOk);
    auto fd = sys.Open("/n", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, std::string(64, '.')), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system_.RunFor(Seconds(10));
  bool neighbour_committed = false;
  bool aborted = false;
  system_.Spawn(0, "dirty", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/n", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "AAAAAAAA"), Err::kOk);
    while (!neighbour_committed) {
      sys.Compute(Milliseconds(50));
    }
    sys.Compute(Seconds(1));  // The neighbour's install has propagated.
    sys.Close(fd.value);
    ASSERT_EQ(sys.AbortTrans(), Err::kOk);
    aborted = true;
  });
  system_.Spawn(2, "neighbour", [&](Syscalls& sys) {
    sys.Compute(Milliseconds(500));  // The dirty record is written by now.
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/n", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    sys.Seek(fd.value, 16);
    ASSERT_EQ(sys.WriteString(fd.value, "BBBBBBBB"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    neighbour_committed = true;
  });
  system_.RunFor(Seconds(30));
  ASSERT_TRUE(aborted);
  std::string model(64, '.');
  model.replace(16, 8, "BBBBBBBB");
  const CatalogEntry* entry = system_.catalog().Lookup("/n");
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->replicas.size(), 3u);
  for (const Replica& r : entry->replicas) {
    Volume* volume = system_.kernel(r.site).FindVolume(r.file.volume);
    const DiskInode* inode = volume->PeekInode(r.file.ino);
    ASSERT_NE(inode, nullptr);
    ASSERT_EQ(inode->size, 64) << "replica at site " << r.site;
    const PageData& image = volume->disk().PeekStable(inode->pages[0]);
    EXPECT_EQ(std::string(image.begin(), image.begin() + 64), model)
        << "replica at site " << r.site;
  }
}

TEST_F(ReplicationTest, ReplicaSurvivesPrimarySiteCrash) {
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/r", 2), Err::kOk);  // Replicas at sites 0 and 1.
    auto fd = sys.Open("/r", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "durable everywhere"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system_.RunFor(Seconds(10));
  system_.CrashSite(0);
  system_.RunFor(Seconds(2));

  std::string content;
  system_.Spawn(1, "rd", [&](Syscalls& sys) {
    auto fd = sys.Open("/r", {});
    ASSERT_TRUE(fd.ok());
    auto data = sys.Read(fd.value, 18);
    ASSERT_TRUE(data.ok());
    content = Text(data.value);
    sys.Close(fd.value);
  });
  system_.RunFor(Seconds(5));
  EXPECT_EQ(content, "durable everywhere");
}


TEST_F(ReplicationTest, RetainedLocksPinThePrimaryAcrossCloses) {
  // A transaction writes a replicated file and closes it; its retained locks
  // and uncommitted records must pin the primary designation so a second
  // update opener cannot move the lock list to a different site.
  system_.Spawn(1, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/pinned", 3), Err::kOk);
    {
      auto fd = sys.Open("/pinned", {.read = true, .write = true});
      sys.WriteString(fd.value, "base");
      sys.Close(fd.value);
    }
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/pinned", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "txn-bytes"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);  // Update open count drops to 0.
    // While the transaction is unresolved the primary stays at site 1.
    const CatalogEntry* entry = system_.catalog().Lookup("/pinned");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->update_site, 1);
    // A new update opener lands on the SAME primary (no lock-list split).
    sys.Fork(2, [&](Syscalls& other) {
      auto ofd = other.Open("/pinned", {.read = true, .write = true});
      ASSERT_TRUE(ofd.ok());
      const CatalogEntry* e = other.system().catalog().Lookup("/pinned");
      EXPECT_EQ(e->update_site, 1);
      other.Close(ofd.value);
    });
    sys.WaitChildren();
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    sys.Compute(Seconds(2));  // Phase two releases locks; primary unpins.
    const CatalogEntry* after = system_.catalog().Lookup("/pinned");
    EXPECT_EQ(after->update_site, kNoSite);
  });
  system_.RunFor(Seconds(60));
  EXPECT_EQ(system_.sim().blocked_process_count(), 0);
}

TEST_F(ReplicationTest, LockPrefetchWarmsTheBufferPool) {
  SystemOptions options;
  options.lock_prefetch = true;
  options.pool_pages = 64;
  System prefetching(1, options);

  int64_t prefetches = -1;
  prefetching.Spawn(0, "p", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/big"), Err::kOk);
    auto fd = sys.Open("/big", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(8 * 1024, 'x'));
    sys.Close(fd.value);
    // Evict by clearing the pool (simulates a cold cache).
    sys.system().kernel(0).buffer_pool().Clear();
    auto fd2 = sys.Open("/big", {.read = true, .write = true});
    sys.Seek(fd2.value, 0);
    ASSERT_EQ(sys.Lock(fd2.value, 4096, LockOp::kShared).err, Err::kOk);
    sys.Compute(Milliseconds(200));  // Let the async prefetch land.
    prefetches = sys.system().stats().Get("fs.prefetches");
    // Reads of the locked range now hit the pool: no further disk reads.
    int64_t reads_before = sys.system().stats().Get("io.reads.data");
    auto data = sys.Read(fd2.value, 4096);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(sys.system().stats().Get("io.reads.data"), reads_before);
    sys.Close(fd2.value);
  });
  prefetching.RunFor(Seconds(30));
  EXPECT_GE(prefetches, 4);  // 4 KB range over 1 KB pages.
}

}  // namespace
}  // namespace locus
