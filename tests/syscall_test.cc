// End-to-end syscall tests on a single- and multi-site cluster: namespace
// operations, file I/O, the record-locking interface of section 3.2, enforced
// locks, and the base single-file commit at close.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/locus/system.h"

namespace locus {
namespace {

std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class SyscallTest : public ::testing::Test {
 protected:
  SyscallTest() : system_(3) {}

  void RunAll() {
    system_.Run();
    EXPECT_EQ(system_.sim().blocked_process_count(), 0) << "workload deadlocked";
  }

  System system_;
};

TEST_F(SyscallTest, MkdirCreatOpenWriteReadRoundTrip) {
  bool done = false;
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Mkdir("/data"), Err::kOk);
    ASSERT_EQ(sys.Creat("/data/file"), Err::kOk);
    auto fd = sys.Open("/data/file", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "hello locus"), Err::kOk);
    ASSERT_TRUE(sys.Seek(fd.value, 0).ok());
    auto data = sys.Read(fd.value, 11);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(Text(data.value), "hello locus");
    EXPECT_EQ(sys.Close(fd.value), Err::kOk);
    done = true;
  });
  RunAll();
  EXPECT_TRUE(done);
}

TEST_F(SyscallTest, NamespaceErrors) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    EXPECT_EQ(sys.Creat("/nodir/file"), Err::kExists);  // Parent missing.
    EXPECT_EQ(sys.Mkdir("/d"), Err::kOk);
    EXPECT_EQ(sys.Mkdir("/d"), Err::kExists);
    EXPECT_EQ(sys.Creat("/d/f"), Err::kOk);
    EXPECT_EQ(sys.Creat("/d/f"), Err::kExists);
    EXPECT_EQ(sys.Open("/d/missing", {}).err, Err::kNoEnt);
    EXPECT_EQ(sys.Unlink("/d/f"), Err::kOk);
    EXPECT_EQ(sys.Unlink("/d/f"), Err::kNoEnt);
    EXPECT_EQ(sys.Open("/d/f", {}).err, Err::kNoEnt);
  });
  RunAll();
}

TEST_F(SyscallTest, BadFdAndFlagChecks) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    EXPECT_EQ(sys.Read(42, 10).err, Err::kBadFd);
    EXPECT_EQ(sys.Close(42), Err::kBadFd);
    ASSERT_EQ(sys.Creat("/f"), Err::kOk);
    auto ro = sys.Open("/f", {.read = true, .write = false});
    ASSERT_TRUE(ro.ok());
    EXPECT_EQ(sys.WriteString(ro.value, "nope"), Err::kAccess);
    // Section 3.1 policy: locking requires write access.
    EXPECT_EQ(sys.Lock(ro.value, 10, LockOp::kShared).err, Err::kAccess);
  });
  RunAll();
}

TEST_F(SyscallTest, NonTransactionCommitAtClose) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/f"), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "committed at close"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  RunAll();
  // The storage site's stable state holds the data.
  Kernel& k = system_.kernel(0);
  FileStore* store = k.StoreFor(k.volumes()[0]->id());
  const CatalogEntry* entry = system_.catalog().Lookup("/f");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(store->CommittedSize(entry->replicas[0].file), 18);
}

TEST_F(SyscallTest, RemoteFileAccessIsTransparent) {
  std::string read_back;
  // Writer at site 0 creates the file at its own site; reader runs at site 2.
  system_.Spawn(0, "writer", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/shared"), Err::kOk);
    auto fd = sys.Open("/shared", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "from site zero"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    // Now read it from another site.
    auto child = sys.Fork(2, [&](Syscalls& remote) {
      auto rfd = remote.Open("/shared", {});
      ASSERT_TRUE(rfd.ok());
      auto data = remote.Read(rfd.value, 14);
      ASSERT_TRUE(data.ok());
      read_back = Text(data.value);
      remote.Close(rfd.value);
    });
    ASSERT_TRUE(child.ok());
    sys.WaitChildren();
  });
  RunAll();
  EXPECT_EQ(read_back, "from site zero");
}

TEST_F(SyscallTest, RemoteAccessCostsNetworkLatency) {
  SimTime local_elapsed = 0;
  SimTime remote_elapsed = 0;
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/timing"), Err::kOk);
    auto fd = sys.Open("/timing", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(128, 'x'));
    sys.Close(fd.value);

    auto lfd = sys.Open("/timing", {});
    SimTime t0 = sys.system().sim().Now();
    sys.Read(lfd.value, 64);
    local_elapsed = sys.system().sim().Now() - t0;
    sys.Close(lfd.value);

    auto child = sys.Fork(1, [&](Syscalls& remote) {
      auto rfd = remote.Open("/timing", {});
      SimTime t1 = remote.system().sim().Now();
      remote.Read(rfd.value, 64);
      remote_elapsed = remote.system().sim().Now() - t1;
      remote.Close(rfd.value);
    });
    ASSERT_TRUE(child.ok());
    sys.WaitChildren();
  });
  RunAll();
  // A remote read pays at least a round trip (~16 ms); a local one does not.
  EXPECT_LT(local_elapsed, Milliseconds(8));
  EXPECT_GT(remote_elapsed, Milliseconds(14));
}

TEST_F(SyscallTest, EnforcedLocksDenyConflictingAccess) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/locked"), Err::kOk);
    auto fd = sys.Open("/locked", {.read = true, .write = true});
    sys.WriteString(fd.value, "0123456789");
    sys.Close(fd.value);

    auto holder = sys.Open("/locked", {.read = true, .write = true});
    sys.Seek(holder.value, 0);
    ASSERT_EQ(sys.Lock(holder.value, 5, LockOp::kExclusive).err, Err::kOk);

    auto child = sys.Fork(0, [&](Syscalls& other) {
      auto ofd = other.Open("/locked", {.read = true, .write = true});
      // Reads/writes under the exclusive lock are denied (Figure 1).
      EXPECT_EQ(other.Read(ofd.value, 5).err, Err::kAccess);
      other.Seek(ofd.value, 0);
      EXPECT_EQ(other.WriteString(ofd.value, "XX"), Err::kAccess);
      // Outside the locked range, conventional Unix sharing applies.
      other.Seek(ofd.value, 5);
      EXPECT_TRUE(other.Read(ofd.value, 5).ok());
      // A conflicting lock request with wait=false fails immediately.
      other.Seek(ofd.value, 0);
      EXPECT_EQ(other.Lock(ofd.value, 5, LockOp::kExclusive, {.wait = false}).err,
                Err::kConflict);
      other.Close(ofd.value);
    });
    ASSERT_TRUE(child.ok());
    sys.WaitChildren();
    sys.Close(holder.value);
  });
  RunAll();
}

TEST_F(SyscallTest, SharedLocksAllowConcurrentReaders) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/shared-read"), Err::kOk);
    auto fd = sys.Open("/shared-read", {.read = true, .write = true});
    sys.WriteString(fd.value, "shared data");
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.Lock(fd.value, 11, LockOp::kShared).err, Err::kOk);

    auto child = sys.Fork(1, [&](Syscalls& other) {
      auto ofd = other.Open("/shared-read", {.read = true, .write = true});
      EXPECT_EQ(other.Lock(ofd.value, 11, LockOp::kShared).err, Err::kOk);
      EXPECT_TRUE(other.Read(ofd.value, 11).ok());
      // But writing is impossible while another shared lock exists.
      other.Seek(ofd.value, 0);
      EXPECT_EQ(other.WriteString(ofd.value, "X"), Err::kAccess);
      other.Close(ofd.value);
    });
    ASSERT_TRUE(child.ok());
    sys.WaitChildren();
    sys.Close(fd.value);
  });
  RunAll();
}

TEST_F(SyscallTest, QueuedLockGrantedOnRelease) {
  SimTime granted_at = 0;
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/queue"), Err::kOk);
    auto fd = sys.Open("/queue", {.read = true, .write = true});
    sys.WriteString(fd.value, "payload");
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.Lock(fd.value, 7, LockOp::kExclusive).err, Err::kOk);

    auto child = sys.Fork(0, [&](Syscalls& waiter) {
      auto wfd = waiter.Open("/queue", {.read = true, .write = true});
      // Queue until the holder unlocks.
      EXPECT_EQ(waiter.Lock(wfd.value, 7, LockOp::kExclusive, {.wait = true}).err, Err::kOk);
      granted_at = waiter.system().sim().Now();
      waiter.Close(wfd.value);
    });
    ASSERT_TRUE(child.ok());
    sys.Compute(Milliseconds(100));  // Hold the lock a while.
    sys.Seek(fd.value, 0);
    ASSERT_EQ(sys.Lock(fd.value, 7, LockOp::kUnlock).err, Err::kOk);
    sys.WaitChildren();
    sys.Close(fd.value);
  });
  RunAll();
  EXPECT_GT(granted_at, Milliseconds(100));
}

TEST_F(SyscallTest, AppendModeLockAndExtend) {
  // Section 3.2: concurrent processes at every site extend a shared log
  // without livelock; each append-mode lock lands at the then-current end of
  // file, and each record lands in the slot its lock was granted.
  auto record = [](int64_t slot) {
    std::string rec = "REC" + std::to_string(slot) + "  \n";
    rec.resize(8, ' ');
    return rec;
  };
  std::set<int64_t> granted;
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/log"), Err::kOk);
    for (int i = 0; i < 3; ++i) {
      sys.Fork(i, [&](Syscalls& appender) {
        auto fd = appender.Open("/log", {.read = true, .write = true, .append = true});
        ASSERT_TRUE(fd.ok());
        for (int j = 0; j < 4; ++j) {
          auto range = appender.Lock(fd.value, 8, LockOp::kExclusive);
          ASSERT_EQ(range.err, Err::kOk);
          granted.insert(range.value.start);
          ASSERT_EQ(appender.WriteString(fd.value, record(range.value.start / 8)), Err::kOk);
          appender.Seek(fd.value, range.value.start);
          ASSERT_EQ(appender.Lock(fd.value, 8, LockOp::kUnlock).err, Err::kOk);
        }
        appender.Close(fd.value);
      });
    }
    sys.WaitChildren();
    auto fd = sys.Open("/log", {});
    auto size = sys.FileSize(fd.value);
    EXPECT_EQ(size.value, 96);  // 12 records x 8 bytes, no overlap, no holes.
    auto data = sys.Read(fd.value, 96);
    ASSERT_TRUE(data.ok());
    std::string log = Text(data.value);
    ASSERT_EQ(log.size(), 96u);
    // No torn or overwritten record: slot i holds the record granted at 8*i.
    for (int64_t slot = 0; slot < 12; ++slot) {
      EXPECT_EQ(log.substr(slot * 8, 8), record(slot)) << "slot " << slot;
    }
    sys.Close(fd.value);
  });
  RunAll();
  std::set<int64_t> every_slot;
  for (int64_t slot = 0; slot < 12; ++slot) {
    every_slot.insert(slot * 8);
  }
  EXPECT_EQ(granted, every_slot);
}

TEST_F(SyscallTest, ForkSharesChannelOffsets) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/inherit"), Err::kOk);
    auto fd = sys.Open("/inherit", {.read = true, .write = true});
    sys.WriteString(fd.value, "parent");
    auto child = sys.Fork(0, [fd = fd.value](Syscalls& c) {
      // The child sees the parent's offset (Unix file-table inheritance).
      ASSERT_EQ(c.WriteString(fd, "+child"), Err::kOk);
    });
    ASSERT_TRUE(child.ok());
    sys.WaitChildren();
    sys.Seek(fd.value, 0);
    auto data = sys.Read(fd.value, 12);
    EXPECT_EQ(Text(data.value), "parent+child");
    sys.Close(fd.value);
  });
  RunAll();
}

TEST_F(SyscallTest, MigrationMovesProcessBetweenSites) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    EXPECT_EQ(sys.CurrentSite(), 0);
    ASSERT_EQ(sys.Migrate(2), Err::kOk);
    EXPECT_EQ(sys.CurrentSite(), 2);
    // Syscalls keep working from the new site.
    EXPECT_EQ(sys.Creat("/after-move"), Err::kOk);
    auto fd = sys.Open("/after-move", {.read = true, .write = true});
    EXPECT_TRUE(fd.ok());
    EXPECT_EQ(sys.WriteString(fd.value, "hi"), Err::kOk);
    sys.Close(fd.value);
  });
  RunAll();
  // The file was created at the process's post-migration site.
  const CatalogEntry* entry = system_.catalog().Lookup("/after-move");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->replicas[0].site, 2);
}

TEST_F(SyscallTest, LockRequiresChannelOffsetDiscipline) {
  // Locking interprets the range from the current offset (the paper's
  // Lock(file, length, mode) interface).
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/offsets"), Err::kOk);
    auto fd = sys.Open("/offsets", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(100, 'x'));
    sys.Seek(fd.value, 25);
    auto r = sys.Lock(fd.value, 10, LockOp::kExclusive);
    ASSERT_EQ(r.err, Err::kOk);
    EXPECT_EQ(r.value, (ByteRange{25, 10}));
    sys.Close(fd.value);
  });
  RunAll();
}


TEST_F(SyscallTest, TruncateShrinksDurably) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/trunc"), Err::kOk);
    auto fd = sys.Open("/trunc", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(3000, 'x'));  // 3 pages.
    ASSERT_EQ(sys.CommitFile(fd.value), Err::kOk);
    ASSERT_EQ(sys.Truncate(fd.value, 1000), Err::kOk);
    EXPECT_EQ(sys.FileSize(fd.value).value, 1000);
    // Reads beyond the new size return nothing.
    sys.Seek(fd.value, 1000);
    EXPECT_TRUE(sys.Read(fd.value, 100).value.empty());
    // Growing or negative sizes are rejected; so is truncation with
    // uncommitted records on the file.
    EXPECT_EQ(sys.Truncate(fd.value, 5000), Err::kBusy);
    EXPECT_EQ(sys.Truncate(fd.value, -1), Err::kAccess);
    sys.Seek(fd.value, 0);
    sys.WriteString(fd.value, "dirty");
    EXPECT_EQ(sys.Truncate(fd.value, 500), Err::kBusy);
    sys.Close(fd.value);
  });
  RunAll();
}

TEST_F(SyscallTest, TruncateRejectedInsideTransaction) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/t2"), Err::kOk);
    auto fd = sys.Open("/t2", {.read = true, .write = true});
    sys.WriteString(fd.value, "data");
    sys.CommitFile(fd.value);
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    EXPECT_EQ(sys.Truncate(fd.value, 0), Err::kInvalid);
    sys.EndTrans();
    sys.Close(fd.value);
  });
  RunAll();
}

TEST_F(SyscallTest, TruncateFreesPages) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    Volume* volume = sys.system().kernel(0).volumes()[0];
    int32_t free_before = volume->free_page_count();
    ASSERT_EQ(sys.Creat("/t3"), Err::kOk);
    auto fd = sys.Open("/t3", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(4096, 'y'));
    ASSERT_EQ(sys.CommitFile(fd.value), Err::kOk);
    EXPECT_EQ(volume->free_page_count(), free_before - 4);
    ASSERT_EQ(sys.Truncate(fd.value, 1024), Err::kOk);
    EXPECT_EQ(volume->free_page_count(), free_before - 1);
    sys.Close(fd.value);
  });
  RunAll();
}

TEST_F(SyscallTest, TruncateWorksRemotely) {
  system_.Spawn(0, "mk", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/remote-trunc"), Err::kOk);
    auto fd = sys.Open("/remote-trunc", {.read = true, .write = true});
    sys.WriteString(fd.value, std::string(2048, 'z'));
    sys.Close(fd.value);
    sys.Fork(2, [](Syscalls& remote) {
      auto rfd = remote.Open("/remote-trunc", {.read = true, .write = true});
      ASSERT_TRUE(rfd.ok());
      EXPECT_EQ(remote.Truncate(rfd.value, 100), Err::kOk);
      EXPECT_EQ(remote.FileSize(rfd.value).value, 100);
      // The storage site refuses growth, and truncation under the writer's
      // uncommitted records, exactly as it does for a local caller.
      EXPECT_EQ(remote.Truncate(rfd.value, 5000), Err::kBusy);
      remote.Seek(rfd.value, 0);
      remote.WriteString(rfd.value, "dirty");
      EXPECT_EQ(remote.Truncate(rfd.value, 50), Err::kBusy);
      remote.Close(rfd.value);
    });
    sys.WaitChildren();
  });
  RunAll();
}

TEST_F(SyscallTest, ReadDirListsChildren) {
  system_.Spawn(0, "prog", [&](Syscalls& sys) {
    ASSERT_EQ(sys.Mkdir("/dir"), Err::kOk);
    ASSERT_EQ(sys.Creat("/dir/a"), Err::kOk);
    ASSERT_EQ(sys.Creat("/dir/b"), Err::kOk);
    ASSERT_EQ(sys.Mkdir("/dir/sub"), Err::kOk);
    ASSERT_EQ(sys.Creat("/dir/sub/deep"), Err::kOk);
    auto listing = sys.ReadDir("/dir");
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing.value.size(), 3u);  // a, b, sub — not deep.
    EXPECT_EQ(sys.ReadDir("/missing").err, Err::kNoEnt);
    EXPECT_EQ(sys.ReadDir("/dir/a").err, Err::kNotDir);
    // Root listing sees /dir.
    auto root = sys.ReadDir("/");
    ASSERT_TRUE(root.ok());
    bool found = false;
    for (const auto& name : root.value) {
      found = found || name == "/dir";
    }
    EXPECT_TRUE(found);
  });
  RunAll();
}

}  // namespace
}  // namespace locus
