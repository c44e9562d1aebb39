// Replica reconciliation tests (src/locus/kernel_recon.cc): a replica that misses committed
// propagations while its site is crashed or partitioned away is quarantined
// by the staleness gate, catches up automatically on reboot / partition heal,
// and only then serves reads locally again — with the latest committed bytes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/locus/system.h"

namespace locus {
namespace {

std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class ReintegrationTest : public ::testing::Test {
 protected:
  ReintegrationTest() : system_(3) {}

  // Creates `path` with three replicas (first at site 0) and commits
  // "version-1-bytes" through the close-commit path.
  void CreateReplicated(const std::string& path) {
    system_.Spawn(0, "mk", [this, path](Syscalls& sys) {
      ASSERT_EQ(sys.Creat(path, /*replication=*/3), Err::kOk);
      auto fd = sys.Open(path, {.read = true, .write = true});
      ASSERT_TRUE(fd.ok());
      ASSERT_EQ(sys.WriteString(fd.value, "version-1-bytes"), Err::kOk);
      ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    });
    system_.RunFor(Seconds(10));
  }

  // Overwrites the file at site 0 with "version-<n>-bytes", committing at
  // close (one propagation round per call).
  void CommitVersion(const std::string& path, int n) {
    system_.Spawn(0, "wr", [path, n](Syscalls& sys) {
      auto fd = sys.Open(path, {.read = true, .write = true});
      ASSERT_TRUE(fd.ok());
      ASSERT_EQ(sys.WriteString(fd.value, "version-" + std::to_string(n) + "-bytes"),
                Err::kOk);
      ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    });
    system_.RunFor(Seconds(10));
  }

  // Reads a replica's full committed image; FileStore::Read models CPU/disk
  // time, so it must run inside a simulated process.
  std::vector<uint8_t> CommittedBytes(const Replica& r) {
    std::vector<uint8_t> out;
    system_.Spawn(r.site, "peek", [&out, r](Syscalls& sys) {
      FileStore* store = sys.system().kernel(r.site).StoreFor(r.file.volume);
      out = store->Read(r.file, ByteRange{0, store->CommittedSize(r.file)});
    });
    system_.RunFor(Seconds(5));
    return out;
  }

  System system_;
};

// The acceptance scenario: a replica site crashes, misses three commits,
// reboots, reintegrates automatically, and a subsequent local read at that
// site returns the latest committed data with zero stale bytes.
TEST_F(ReintegrationTest, CrashedReplicaCatchesUpOnReboot) {
  CreateReplicated("/f");
  system_.CrashSite(2);
  system_.RunFor(Seconds(1));
  CommitVersion("/f", 2);
  CommitVersion("/f", 3);
  CommitVersion("/f", 4);

  // The primary could not ship those commits to site 2: its replica is
  // quarantined, and ReplicaStatus (from a live site) reports it behind.
  const CatalogEntry* entry = system_.catalog().Lookup("/f");
  ASSERT_NE(entry, nullptr);
  const Replica* crashed = system_.catalog().ReplicaAt("/f", 2);
  ASSERT_NE(crashed, nullptr);
  EXPECT_TRUE(crashed->stale);
  EXPECT_GE(system_.stats().Get("recon.stale_marks"), 1);
  system_.Spawn(0, "status", [](Syscalls& sys) {
    auto status = sys.ReplicaStatus("/f");
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status.value.size(), 3u);
    for (const ReplicaStatusEntry& row : status.value) {
      if (row.site == 2) {
        EXPECT_TRUE(row.stale);
        EXPECT_FALSE(row.reachable);
        EXPECT_FALSE(row.current);
      } else {
        EXPECT_TRUE(row.current);
      }
    }
  });
  system_.RunFor(Seconds(5));

  system_.RebootSite(2);
  system_.RunFor(Seconds(10));  // Recovery + reintegration.

  EXPECT_GE(system_.stats().Get("recon.reintegrations"), 1);
  EXPECT_GE(system_.stats().Get("recon.catchup_pages"), 1);
  const Replica* healed = system_.catalog().ReplicaAt("/f", 2);
  ASSERT_NE(healed, nullptr);
  EXPECT_FALSE(healed->stale);

  // Zero stale bytes: every replica's committed image is identical.
  const Replica* primary = system_.catalog().ReplicaAt("/f", 0);
  ASSERT_NE(primary, nullptr);
  std::vector<uint8_t> expect = CommittedBytes(*primary);
  EXPECT_EQ(Text(expect), "version-4-bytes");
  for (const Replica& r : system_.catalog().Lookup("/f")->replicas) {
    EXPECT_EQ(CommittedBytes(r), expect) << "replica at site " << r.site;
    FileStore* store = system_.kernel(r.site).StoreFor(r.file.volume);
    EXPECT_EQ(store->CommitVersion(r.file),
              system_.kernel(0).StoreFor(primary->file.volume)->CommitVersion(primary->file))
        << "replica at site " << r.site;
  }

  // A reader at the rebooted site is served by its own replica again: local
  // latency, latest committed content.
  SimTime elapsed = 0;
  std::string content;
  system_.Spawn(2, "rd", [&](Syscalls& sys) {
    auto fd = sys.Open("/f", {});
    ASSERT_TRUE(fd.ok());
    SimTime t0 = sys.system().sim().Now();
    auto data = sys.Read(fd.value, 15);
    elapsed = sys.system().sim().Now() - t0;
    ASSERT_TRUE(data.ok());
    content = Text(data.value);
    sys.Close(fd.value);
  });
  system_.RunFor(Seconds(5));
  EXPECT_EQ(content, "version-4-bytes");
  EXPECT_LT(elapsed, Milliseconds(10));

  // All-current from the syscall surface too.
  system_.Spawn(1, "status2", [](Syscalls& sys) {
    auto status = sys.ReplicaStatus("/f");
    ASSERT_TRUE(status.ok());
    for (const ReplicaStatusEntry& row : status.value) {
      EXPECT_TRUE(row.current) << "site " << row.site;
      EXPECT_FALSE(row.stale) << "site " << row.site;
    }
  });
  system_.RunFor(Seconds(5));
  EXPECT_EQ(system_.sim().blocked_process_count(), 0);
}

// Partition variant: while partitioned away, the behind replica is
// quarantined — a co-located reader is NOT served the old image — and the
// heal notification triggers catch-up without a reboot.
TEST_F(ReintegrationTest, PartitionedReplicaQuarantinedUntilHeal) {
  CreateReplicated("/f");
  system_.Partition({{0, 1}, {2}});
  system_.RunFor(Seconds(1));
  CommitVersion("/f", 2);
  CommitVersion("/f", 3);

  const Replica* minority = system_.catalog().ReplicaAt("/f", 2);
  ASSERT_NE(minority, nullptr);
  EXPECT_TRUE(minority->stale);

  // A reader inside the minority partition must not see version-1 bytes: the
  // gate routes it to a current replica, which is unreachable — the open
  // fails rather than serving stale data.
  Err open_err = Err::kOk;
  system_.Spawn(2, "stale-rd", [&](Syscalls& sys) {
    auto fd = sys.Open("/f", {});
    open_err = fd.err;
    if (fd.ok()) {
      sys.Close(fd.value);
    }
  });
  system_.RunFor(Seconds(10));
  EXPECT_NE(open_err, Err::kOk);
  EXPECT_GE(system_.stats().Get("recon.stale_reads_blocked"), 1);

  system_.HealPartitions();
  system_.RunFor(Seconds(10));  // Topology notification + catch-up.

  const Replica* healed = system_.catalog().ReplicaAt("/f", 2);
  ASSERT_NE(healed, nullptr);
  EXPECT_FALSE(healed->stale);
  std::string content;
  SimTime elapsed = 0;
  system_.Spawn(2, "rd", [&](Syscalls& sys) {
    auto fd = sys.Open("/f", {});
    ASSERT_TRUE(fd.ok());
    SimTime t0 = sys.system().sim().Now();
    auto data = sys.Read(fd.value, 15);
    elapsed = sys.system().sim().Now() - t0;
    ASSERT_TRUE(data.ok());
    content = Text(data.value);
    sys.Close(fd.value);
  });
  system_.RunFor(Seconds(5));
  EXPECT_EQ(content, "version-3-bytes");
  EXPECT_LT(elapsed, Milliseconds(10));
  EXPECT_GE(system_.stats().Get("recon.reintegrations"), 1);
  EXPECT_EQ(system_.sim().blocked_process_count(), 0);
}

// Idempotence: the same catch-up image applied twice installs once; the same
// propagation delivered twice installs once.
TEST_F(ReintegrationTest, DuplicateCatchupDeliveryIsIdempotent) {
  CreateReplicated("/f");
  system_.Partition({{0, 1}, {2}});
  system_.RunFor(Seconds(1));
  CommitVersion("/f", 2);

  const Replica* primary = system_.catalog().ReplicaAt("/f", 0);
  const Replica* behind = system_.catalog().ReplicaAt("/f", 2);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(behind, nullptr);
  ASSERT_TRUE(behind->stale);
  FileId primary_file = primary->file;
  FileId behind_file = behind->file;

  // Deliver the same fetched image twice (a retried catch-up message). The
  // first applies; the second is dropped by the version gate.
  system_.Spawn(2, "dup-catchup", [&, primary_file, behind_file](Syscalls& sys) {
    System& sys_ref = sys.system();
    ReplicaFetchReply image =
        sys_ref.kernel(0).Serve(ReplicaFetchRequest{primary_file});
    ASSERT_EQ(image.err, Err::kOk);
    FileStore* store = sys_ref.kernel(2).StoreFor(behind_file.volume);
    uint64_t before = store->CommitVersion(behind_file);
    ASSERT_EQ(sys_ref.kernel(2).ApplyCatchup(behind_file, image), Err::kOk);
    uint64_t after_first = store->CommitVersion(behind_file);
    EXPECT_GT(after_first, before);
    int64_t installs = sys_ref.stats().Get("fs.commits_installed");
    ASSERT_EQ(sys_ref.kernel(2).ApplyCatchup(behind_file, image), Err::kOk);
    EXPECT_EQ(store->CommitVersion(behind_file), after_first);
    EXPECT_EQ(sys_ref.stats().Get("fs.commits_installed"), installs);
    EXPECT_GE(sys_ref.stats().Get("recon.duplicate_propagations_dropped"), 1);
  });
  system_.RunFor(Seconds(10));

  // Bytes match the primary exactly after the double delivery.
  EXPECT_EQ(CommittedBytes(*system_.catalog().ReplicaAt("/f", 2)),
            CommittedBytes(*system_.catalog().ReplicaAt("/f", 0)));

  // A replayed propagation of the already-applied commit is also dropped.
  int64_t drops_before = system_.stats().Get("recon.duplicate_propagations_dropped");
  system_.Spawn(2, "dup-propagate", [&, primary_file, behind_file](Syscalls& sys) {
    System& sys_ref = sys.system();
    FileStore* pstore = sys_ref.kernel(0).StoreFor(primary_file.volume);
    ReplicaPropagateMsg msg;
    msg.replica_file = behind_file;
    msg.new_size = pstore->CommittedSize(primary_file);
    msg.commit_version = pstore->CommitVersion(primary_file);
    msg.pages.push_back({0, pstore->CommittedPageImage(primary_file, 0)});
    sys_ref.kernel(2).ApplyPropagation(msg);
  });
  system_.RunFor(Seconds(5));
  EXPECT_GT(system_.stats().Get("recon.duplicate_propagations_dropped"), drops_before);

  system_.HealPartitions();
  system_.RunFor(Seconds(10));
  EXPECT_FALSE(system_.catalog().ReplicaAt("/f", 2)->stale);
  EXPECT_EQ(system_.sim().blocked_process_count(), 0);
}

// A propagation gap detected by a live replica (not a crash): versions jump
// past next-in-sequence, the replica quarantines itself and catches up.
TEST_F(ReintegrationTest, PropagationGapTriggersSelfQuarantineAndCatchup) {
  CreateReplicated("/f");
  const Replica* primary = system_.catalog().ReplicaAt("/f", 0);
  const Replica* target = system_.catalog().ReplicaAt("/f", 2);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(target, nullptr);
  FileId primary_file = primary->file;
  FileId target_file = target->file;

  // Forge a propagation two ordinals ahead (as if one message was lost).
  system_.Spawn(2, "gap", [primary_file, target_file](Syscalls& sys) {
    System& sys_ref = sys.system();
    FileStore* pstore = sys_ref.kernel(0).StoreFor(primary_file.volume);
    ReplicaPropagateMsg msg;
    msg.replica_file = target_file;
    msg.new_size = pstore->CommittedSize(primary_file);
    msg.commit_version = pstore->CommitVersion(primary_file) + 2;
    msg.pages.push_back({0, pstore->CommittedPageImage(primary_file, 0)});
    sys_ref.kernel(2).ApplyPropagation(msg);
  });
  system_.RunFor(Seconds(10));

  EXPECT_GE(system_.stats().Get("recon.gap_quarantines"), 1);
  // The spawned reconcile found the peers at the real (lower) ordinal with a
  // current witness, so the quarantine lifted without inventing data.
  EXPECT_FALSE(system_.catalog().ReplicaAt("/f", 2)->stale);
  EXPECT_EQ(system_.sim().blocked_process_count(), 0);
}

}  // namespace
}  // namespace locus
