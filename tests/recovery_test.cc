// Failure and recovery tests (sections 4.3-4.4): site crashes before and
// after the commit point, participant crashes, network partitions, topology-
// change aborts, duplicate commit messages, and shadow-page reclamation.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "src/locus/system.h"

namespace locus {
namespace {

std::string Text(const std::vector<uint8_t>& b) { return {b.begin(), b.end()}; }

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : system_(3) {
    // Any process still blocked once the event queue fully drains is a lost
    // wake-up — fail hard rather than time out.
    system_.sim().set_drain_watchdog(DrainWatchdog::kFatal);
  }

  void MakeFileAt(SiteId site, const std::string& path, const std::string& content) {
    system_.Spawn(site, "mk", [path, content](Syscalls& sys) {
      ASSERT_EQ(sys.Creat(path), Err::kOk);
      auto fd = sys.Open(path, {.read = true, .write = true});
      ASSERT_TRUE(fd.ok());
      ASSERT_EQ(sys.WriteString(fd.value, content), Err::kOk);
      ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    });
    system_.RunFor(Seconds(5));
  }

  std::string ReadFileAt(SiteId site, const std::string& path, int64_t n) {
    std::string out = "<failed>";
    system_.Spawn(site, "rd", [&, path, n](Syscalls& sys) {
      for (int attempt = 0; attempt < 20; ++attempt) {
        auto fd = sys.Open(path, {});
        if (!fd.ok()) {
          sys.Compute(Milliseconds(100));
          continue;
        }
        auto data = sys.Read(fd.value, n);
        sys.Close(fd.value);
        if (data.ok()) {
          out = Text(data.value);
          return;
        }
        sys.Compute(Milliseconds(100));
      }
    });
    system_.RunFor(Seconds(10));
    return out;
  }

  System system_;
};

TEST_F(RecoveryTest, StorageSiteCrashAbortsUncommittedNonTransactionData) {
  MakeFileAt(0, "/f", "stable data");
  // A writer modifies the file but crashes before close/commit.
  system_.Spawn(0, "writer", [&](Syscalls& sys) {
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "uncommitted"), Err::kOk);
    sys.Compute(Seconds(60));  // Crash hits before this finishes.
  });
  system_.RunFor(Milliseconds(500));
  system_.CrashSite(0);
  system_.RunFor(Milliseconds(500));
  system_.RebootSite(0);
  system_.RunFor(Seconds(2));
  EXPECT_EQ(ReadFileAt(0, "/f", 11), "stable data");
}

TEST_F(RecoveryTest, CoordinatorCrashBeforeCommitPointAborts) {
  MakeFileAt(1, "/remote", "original!!");
  // Transaction at site 0 writes the file stored at site 1, then site 0
  // crashes mid-transaction (before EndTrans).
  system_.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/remote", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "phantom!!!"), Err::kOk);
    sys.Compute(Seconds(60));  // Crash hits here.
  });
  system_.RunFor(Milliseconds(800));
  system_.CrashSite(0);
  // Site 1 learns of the topology change and aborts the foreign transaction.
  system_.RunFor(Seconds(3));
  EXPECT_EQ(ReadFileAt(1, "/remote", 10), "original!!");
  EXPECT_GE(system_.stats().Get("net.topology_changes_seen"), 1);
}

TEST_F(RecoveryTest, CoordinatorCrashAfterCommitPointRecoversAndCommits) {
  MakeFileAt(1, "/money", "0000000000");
  // Run a transaction but crash the coordinator the instant EndTrans returns
  // (commit point reached, phase two not yet run).
  bool committed = false;
  system_.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/money", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "1111111111"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    committed = true;
    // Crash the coordinator right now, from inside the simulation.
    sys.system().CrashSite(0);
  });
  system_.RunFor(Seconds(2));
  ASSERT_TRUE(committed);
  // Phase two died with the coordinator. Reboot: recovery finds the
  // committed coordinator log and re-drives the second phase.
  system_.RebootSite(0);
  system_.RunFor(Seconds(5));
  EXPECT_EQ(ReadFileAt(2, "/money", 10), "1111111111");
  EXPECT_GE(system_.stats().Get("recovery.completed"), 1);
}

TEST_F(RecoveryTest, ParticipantCrashAfterPrepareStillCommits) {
  MakeFileAt(1, "/part", "##########");
  bool committed = false;
  system_.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/part", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "prepared!!"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);  // Commit point reached.
    committed = true;
    // Participant (site 1) crashes before phase two reaches it.
    sys.system().CrashSite(1);
  });
  system_.RunFor(Seconds(2));
  ASSERT_TRUE(committed);
  system_.RunFor(Seconds(30));  // Coordinator keeps retrying phase two.
  system_.RebootSite(1);
  // Participant recovery + coordinator retry install the intentions from the
  // prepare log.
  system_.RunFor(Seconds(30));
  EXPECT_EQ(ReadFileAt(1, "/part", 10), "prepared!!");
}

TEST_F(RecoveryTest, ParticipantRecoveryAsksCoordinatorPresumedAbort) {
  MakeFileAt(1, "/ask", "original!!");
  // Crash the participant after prepare but abort the transaction while the
  // participant is down; on reboot it must learn the outcome and roll back.
  system_.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/ask", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "maybe?????"), Err::kOk);
    sys.Close(fd.value);
    // Crash the participant right before commit; prepare will fail and the
    // transaction aborts.
    sys.system().CrashSite(1);
    EXPECT_EQ(sys.EndTrans(), Err::kAborted);
  });
  system_.RunFor(Seconds(10));
  system_.RebootSite(1);
  system_.RunFor(Seconds(10));
  EXPECT_EQ(ReadFileAt(1, "/ask", 10), "original!!");
}

TEST_F(RecoveryTest, PartitionAbortsSpanningTransaction) {
  MakeFileAt(2, "/span", "qqqqqqqqqq");
  Err end_result = Err::kOk;
  system_.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/span", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "cutoff!!!!"), Err::kOk);
    // Partition site 2 (the storage site) away mid-transaction.
    sys.system().Partition({{0, 1}, {2}});
    sys.Compute(Milliseconds(500));
    end_result = sys.EndTrans();
  });
  system_.RunFor(Seconds(10));
  EXPECT_EQ(end_result, Err::kAborted);
  system_.HealPartitions();
  system_.RunFor(Seconds(5));
  EXPECT_EQ(ReadFileAt(2, "/span", 10), "qqqqqqqqqq");
}

TEST_F(RecoveryTest, ShadowPagesReclaimedAfterCrash) {
  MakeFileAt(0, "/leak", std::string(64, 'x'));
  Kernel& k = system_.kernel(0);
  Volume* volume = k.volumes()[0];
  int32_t free_before = volume->free_page_count();

  // Uncommitted writes allocate shadow pages, then the site crashes.
  system_.Spawn(0, "writer", [&](Syscalls& sys) {
    auto fd = sys.Open("/leak", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, std::string(64, 'y')), Err::kOk);
    sys.Compute(Seconds(60));
  });
  system_.RunFor(Milliseconds(500));
  EXPECT_LT(volume->free_page_count(), free_before);  // Shadow pages held.
  system_.CrashSite(0);
  system_.RebootSite(0);
  system_.RunFor(Seconds(2));
  // Recovery rebuilt the allocation bitmap; orphan shadow pages reclaimed.
  EXPECT_EQ(volume->free_page_count(), free_before);
}

TEST_F(RecoveryTest, DuplicateCommitMessagesAreIdempotent) {
  MakeFileAt(1, "/dup", "aaaaaaaaaa");
  TxnId txn;
  system_.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    txn = sys.CurrentTxn();
    auto fd = sys.Open("/dup", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "bbbbbbbbbb"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  system_.RunFor(Seconds(5));
  ASSERT_EQ(ReadFileAt(2, "/dup", 10), "bbbbbbbbbb");
  int64_t installs = system_.stats().Get("fs.commits_installed");
  // Replay the commit message (recovery can send duplicates, section 4.4).
  system_.Spawn(0, "dup", [&](Syscalls& sys) {
    (void)sys;
    // Direct kernel-level duplicate: deliver another commit for txn.
  });
  Kernel& participant = system_.kernel(1);
  system_.sim().Spawn("dup-commit", [&] {
    participant.txn_manager();  // No-op touch; the real call:
  });
  // Send the duplicate through the public path: the kernel's Serve is private,
  // so replay through the network.
  system_.net().Send(0, 1, MakeMsg<kCommitTxnReq>(CommitTxnRequest{txn}, 64));
  system_.RunFor(Seconds(2));
  EXPECT_EQ(system_.stats().Get("fs.commits_installed"), installs);  // No re-install.
  EXPECT_EQ(ReadFileAt(2, "/dup", 10), "bbbbbbbbbb");
}

TEST_F(RecoveryTest, CrashedReaderSiteDoesNotAffectStorage) {
  MakeFileAt(0, "/solid", "solid data");
  system_.Spawn(2, "reader", [&](Syscalls& sys) {
    auto fd = sys.Open("/solid", {});
    sys.Read(fd.value, 5);
    sys.Compute(Seconds(60));
  });
  system_.RunFor(Milliseconds(500));
  system_.CrashSite(2);
  system_.RunFor(Seconds(2));
  EXPECT_EQ(ReadFileAt(1, "/solid", 10), "solid data");
}

TEST_F(RecoveryTest, TransactionIdsUniqueAcrossReboots) {
  TxnId before, after;
  system_.Spawn(0, "t1", [&](Syscalls& sys) {
    sys.BeginTrans();
    before = sys.CurrentTxn();
    sys.EndTrans();
  });
  system_.RunFor(Seconds(1));
  system_.CrashSite(0);
  system_.RebootSite(0);
  system_.RunFor(Seconds(1));
  system_.Spawn(0, "t2", [&](Syscalls& sys) {
    sys.BeginTrans();
    after = sys.CurrentTxn();
    sys.EndTrans();
  });
  system_.RunFor(Seconds(1));
  EXPECT_TRUE(before.valid());
  EXPECT_TRUE(after.valid());
  EXPECT_NE(before, after);
  EXPECT_GT(after.epoch, before.epoch);  // Boot epoch guarantees uniqueness.
}


TEST_F(RecoveryTest, RedoProtectedByRecoveredLocks) {
  // Regression for a lost-update window: a transaction commits (commit point
  // reached), the participant crashes before installing, and a NEW
  // transaction touches the record right as the participant reboots. The
  // recovery must re-acquire the committed transaction's locks from the
  // prepare log (section 4.2 stores "intentions lists and lock lists"), so
  // the new transaction can only see the post-commit value.
  MakeFileAt(1, "/redo", "0000000000");
  system_.Spawn(0, "writer", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/redo", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "1111111111"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);   // Commit point.
    sys.system().CrashSite(1);             // Participant dies pre-install.
  });
  system_.RunFor(Seconds(1));
  system_.RebootSite(1);
  // A rival transaction reads and rewrites the record immediately.
  std::string observed;
  system_.Spawn(2, "rival", [&](Syscalls& sys) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      if (sys.BeginTrans() != Err::kOk) {
        continue;
      }
      auto fd = sys.Open("/redo", {.read = true, .write = true});
      bool ok = fd.ok();
      if (ok) {
        auto r = sys.Lock(fd.value, 10, LockOp::kExclusive, {.wait = true});
        ok = r.err == Err::kOk;
      }
      if (ok) {
        auto data = sys.Read(fd.value, 10);
        ok = data.ok();
        if (ok) {
          observed.assign(data.value.begin(), data.value.end());
        }
      }
      if (fd.ok()) {
        sys.Close(fd.value);
      }
      if (ok && sys.EndTrans() == Err::kOk) {
        return;
      }
      if (sys.InTransaction()) {
        sys.AbortTrans();
      }
      sys.Compute(Milliseconds(100));
    }
  });
  system_.RunFor(Seconds(60));
  // Never the pre-commit value: the redo's recovered lock serializes us
  // after the installation.
  EXPECT_EQ(observed, "1111111111");
}

TEST_F(RecoveryTest, WorkingPagePatchedWhenRedoRacesNewWriter) {
  // Regression: while a crashed participant redoes a committed install, a
  // NEW writer of a DIFFERENT record on the same page snapshots the page
  // into a working page; the install must patch the working page so the
  // committed bytes are not frozen out.
  MakeFileAt(1, "/page", std::string(64, '0'));  // Two records, one page.
  system_.Spawn(0, "committer", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/page", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "AAAAAAAA"), Err::kOk);  // Record 0.
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    sys.system().CrashSite(1);
  });
  system_.RunFor(Seconds(1));
  system_.RebootSite(1);
  // Immediately, a writer updates record 1 (bytes 32..40) — different range,
  // not blocked by the recovered locks — creating a working page.
  system_.Spawn(2, "other-writer", [&](Syscalls& sys) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      auto fd = sys.Open("/page", {.read = true, .write = true});
      if (!fd.ok()) {
        sys.Compute(Milliseconds(50));
        continue;
      }
      sys.Seek(fd.value, 32);
      Err err = sys.WriteString(fd.value, "BBBBBBBB");
      sys.Close(fd.value);
      if (err == Err::kOk) {
        return;
      }
      sys.Compute(Milliseconds(50));
    }
  });
  system_.RunFor(Seconds(60));
  // Both the redone record AND the new write must be present.
  std::string content = ReadFileAt(2, "/page", 40);
  ASSERT_GE(content.size(), 40u);
  EXPECT_EQ(content.substr(0, 8), "AAAAAAAA");
  EXPECT_EQ(content.substr(32, 8), "BBBBBBBB");
}

// Crashes `site` at the `nth` install a commit message starts there.
class CrashAtNthInstall : public SchedulePolicy {
 public:
  CrashAtNthInstall(SiteId site, int nth) : site_(site), left_(nth) {}
  bool CrashAt(int32_t point, int32_t site) override {
    return point == kBeforeCommitInstall && site == site_ && --left_ == 0;
  }

 private:
  SiteId site_;
  int left_;
};

// Two transactions at sites 0 and 2 write different records of one page
// stored at site 1, and each a record of a page of its own, and prepare
// before either installs. The shared page is differenced at install time
// from the bytes each intentions list carries, so it never reads anything
// back. The second install re-merges its own page onto the first one's
// install (a stale base): the re-merge takes the writer's bytes from the
// image its prepare flushed and reads nothing back. The crash lands as the
// second commit message arrives, after the first install's write of the
// shared page and before its descriptor write; redo installs both, has no
// writer, and reads the second one's own shadow page back, once.
TEST(RemergeTest, ReadsTheShadowBackOnlyInRedo) {
  constexpr int64_t kPage = 1024;
  for (bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "crash before the second install" : "no crash");
    System system(3);
    system.sim().set_drain_watchdog(DrainWatchdog::kFatal);
    system.Spawn(1, "mk", [](Syscalls& sys) {
      ASSERT_EQ(sys.Creat("/pair"), Err::kOk);
      auto fd = sys.Open("/pair", {.read = true, .write = true});
      ASSERT_TRUE(fd.ok());
      ASSERT_EQ(sys.WriteString(fd.value, std::string(3 * kPage, '0')), Err::kOk);
      ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    });
    system.RunFor(Seconds(5));
    CrashAtNthInstall policy(1, 2);
    if (crash) {
      system.sim().set_schedule_policy(&policy);
    }
    int committed = 0;
    for (auto [site, offset, own, text] :
         {std::tuple{SiteId{0}, 0, kPage, "AAAAAAAA"},
          std::tuple{SiteId{2}, 32, 2 * kPage, "BBBBBBBB"}}) {
      system.Spawn(site, "txn", [&committed, offset, own, text](Syscalls& sys) {
        ASSERT_EQ(sys.BeginTrans(), Err::kOk);
        auto fd = sys.Open("/pair", {.read = true, .write = true});
        ASSERT_TRUE(fd.ok());
        sys.Seek(fd.value, offset);
        ASSERT_EQ(sys.WriteString(fd.value, text), Err::kOk);
        sys.Seek(fd.value, own);
        ASSERT_EQ(sys.WriteString(fd.value, text), Err::kOk);
        sys.Close(fd.value);
        ASSERT_EQ(sys.EndTrans(), Err::kOk);
        ++committed;
      });
    }
    system.RunFor(Seconds(5));
    ASSERT_EQ(committed, 2);
    if (crash) {
      system.sim().set_schedule_policy(nullptr);
      ASSERT_FALSE(system.net().IsAlive(1));
      system.RebootSite(1);
      system.RunFor(Seconds(30));
    }
    // Each install writes the shared page (the first twice with the crash);
    // the second also re-merges its own page.
    EXPECT_EQ(system.stats().Get("fs.commit.remerged_pages"), crash ? 4 : 3);
    EXPECT_EQ(system.stats().Get("io.reads.reread"), crash ? 1 : 0);
    std::string content;
    system.Spawn(1, "rd", [&content](Syscalls& sys) {
      auto fd = sys.Open("/pair", {});
      ASSERT_TRUE(fd.ok());
      auto data = sys.Read(fd.value, 3 * kPage);
      ASSERT_TRUE(data.ok());
      content = Text(data.value);
    });
    system.RunFor(Seconds(5));
    ASSERT_EQ(content.size(), static_cast<size_t>(3 * kPage));
    EXPECT_EQ(content.substr(0, 8), "AAAAAAAA");
    EXPECT_EQ(content.substr(32, 8), "BBBBBBBB");
    EXPECT_EQ(content.substr(kPage, 8), "AAAAAAAA");
    EXPECT_EQ(content.substr(2 * kPage, 8), "BBBBBBBB");
  }
}

// Crashes `site` before each commit message its phase-two driver would send,
// and at no other crash point.
class CrashAtCommitSend : public SchedulePolicy {
 public:
  explicit CrashAtCommitSend(SiteId site) : site_(site) {}
  bool CrashAt(int32_t point, int32_t site) override {
    return point == kBeforeCommitSend && site == site_;
  }

 private:
  SiteId site_;
};

// The committed-answer branch of the participant's outcome inquiry (section
// 4.4), with no coordinator re-drive to mask it: the participant reboots
// prepared while the coordinator holds a committed record and no phase-two
// driver, and the re-drive the reboot's topology change starts crashes the
// coordinator before its first commit message. Only the participant's own
// inquiry can commit it.
TEST(ParticipantInquiryTest, CommittedAnswerCommitsThePreparedParticipant) {
  SystemOptions options;
  // Recovery's volume scan plus the inquiry's round trip end before the
  // coordinator learns of the reboot (Network::kFailureDetectDelay).
  options.disk_latency = Milliseconds(10);
  System system(2, options);
  system.sim().set_drain_watchdog(DrainWatchdog::kFatal);
  auto log_records = [&system](SiteId site, const TxnId& txn) {
    std::vector<LogPayload> out;
    for (const auto& [id, rec] : system.kernel(site).volumes()[0]->stable_log()) {
      if (std::visit([&txn](const auto& r) { return r.txn == txn; }, rec->payload)) {
        out.push_back(rec->payload);
      }
    }
    return out;
  };

  system.Spawn(1, "mk", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/inq"), Err::kOk);
    auto fd = sys.Open("/inq", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "##########"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system.RunFor(Seconds(5));
  TxnId txn;
  system.Spawn(0, "txn", [&txn](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    txn = sys.CurrentTxn();
    auto fd = sys.Open("/inq", {.read = true, .write = true});
    ASSERT_EQ(sys.WriteString(fd.value, "inquired!!"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);  // Commit point reached.
    sys.system().CrashSite(1);            // Before phase two reaches it.
  });
  // Phase two retries the dead participant every 300 ms, then gives up.
  system.RunFor(Seconds(120));
  ASSERT_EQ(system.stats().Get("txn.phase2_completed"), 0);
  std::vector<LogPayload> coordinator = log_records(0, txn);
  ASSERT_EQ(coordinator.size(), 1u);
  ASSERT_EQ(std::get<CoordinatorLogRecord>(coordinator[0]).status, TxnStatus::kCommitted);
  std::vector<LogPayload> participant = log_records(1, txn);
  ASSERT_EQ(participant.size(), 1u);
  ASSERT_TRUE(std::holds_alternative<PrepareLogRecord>(participant[0]));

  CrashAtCommitSend policy(0);
  system.sim().set_schedule_policy(&policy);
  system.RebootSite(1);
  system.RunFor(Seconds(10));
  system.sim().set_schedule_policy(nullptr);
  EXPECT_FALSE(system.net().IsAlive(0));  // The re-drive sent nothing.
  ASSERT_TRUE(log_records(1, txn).empty());
  std::string content;
  system.Spawn(1, "rd", [&content](Syscalls& sys) {
    auto fd = sys.Open("/inq", {});
    ASSERT_TRUE(fd.ok());
    auto data = sys.Read(fd.value, 10);
    ASSERT_TRUE(data.ok());
    content = Text(data.value);
  });
  system.RunFor(Seconds(5));
  EXPECT_EQ(content, "inquired!!");
}

// Hooks for the group-crash tests: OnInstall and OnPoolInsert at the storage
// site, handed to the test's callbacks.
class InstallWatch : public ProtocolObserver {
 public:
  InstallWatch() : ProtocolObserver(true) {}
  void OnInstall(const std::string& site, const IntentionsList& intentions) override {
    (void)site;
    on_install(intentions);
  }
  void OnPoolInsert(const FileId& file, int32_t page_index, const PageData* data) override {
    (void)page_index;
    on_pool_insert(file, *data);
  }
  std::function<void(const IntentionsList&)> on_install = [](const IntentionsList&) {};
  std::function<void(const FileId&, const PageData&)> on_pool_insert =
      [](const FileId&, const PageData&) {};
};

// Six transactions at sites 0 and 2 each write one record of /g and one of
// /h, both stored at site 1, and commit at about the same time, so installs
// of /g queue behind the one in flight and form a group, which writes one
// merged page to its last member's shadow page. Site 1 crashes
// inside that group: after its page write but before its descriptor write,
// or after the descriptor write but before the members' prepare records are
// erased (each member still has /h to install). Up to the crash, every page
// a prepare record names stays allocated, so nothing can overwrite one; after
// redo every member's records are present.
class GroupCrashTest : public ::testing::TestWithParam<bool> {};

TEST_P(GroupCrashTest, RedoKeepsEveryMembersRecords) {
  const bool after_inode_write = GetParam();
  System system(3);
  system.sim().set_drain_watchdog(DrainWatchdog::kFatal);
  for (const char* path : {"/g", "/h"}) {
    system.Spawn(1, "mk", [path](Syscalls& sys) {
      ASSERT_EQ(sys.Creat(path), Err::kOk);
      auto fd = sys.Open(path, {.read = true, .write = true});
      ASSERT_TRUE(fd.ok());
      ASSERT_EQ(sys.WriteString(fd.value, std::string(64, '.')), Err::kOk);
      ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    });
  }
  system.RunFor(Seconds(5));
  const FileId g = system.catalog().Find("/g")->replicas[0].file;
  Volume* volume = system.kernel(1).FindVolume(g.volume);
  const std::string records = "ABCDEF";

  bool crashed = false;
  PageData published;  // The first image a group of two or more publishes.
  auto crash = [&] {
    const PageId slot_page = volume->PeekInode(g.ino)->pages[0];
    const PageData& stable = volume->disk().PeekStable(slot_page);
    EXPECT_EQ(stable == published, after_inode_write);
    int prepared = 0;
    int superseded = 0;  // Durable records whose /g shadow page the slot does not name.
    for (const auto& [id, rec] : volume->stable_log()) {
      if (const auto* prep = std::get_if<PrepareLogRecord>(&rec->payload)) {
        ++prepared;
        for (const IntentionsList& il : prep->intentions) {
          const int64_t offset = il.ranges.front().start;
          for (const PageUpdate& u : il.updates) {
            EXPECT_TRUE(volume->IsAllocated(u.new_page)) << "page " << u.new_page;
            superseded += il.file == g && u.new_page != slot_page &&
                          stable[offset] == records[offset / 8];
          }
        }
      }
    }
    EXPECT_GE(prepared, 2);
    if (after_inode_write) {
      EXPECT_GT(superseded, 0);  // Redo must keep these pages' records.
    }
    system.CrashSite(1);
  };
  InstallWatch watch;
  // A group publishes its merged page once the page write has completed, and
  // then writes the descriptor. Each transaction adds one record to /g, so an
  // image buffered with two or more records more than the last one is a
  // group's merged page.
  size_t buffered_records = 0;
  watch.on_pool_insert = [&](const FileId& file, const PageData& image) {
    if (file != g) {
      return;
    }
    size_t present = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      present += image[8 * i] == records[i];
    }
    if (published.empty() && present >= buffered_records + 2) {
      published = image;
      if (!after_inode_write) {
        crashed = true;
        system.sim().Schedule(0, crash);
      }
    }
    buffered_records = present;
  };
  // After the group's descriptor write its leader goes on to install /h,
  // before any member's prepare record is erased.
  watch.on_install = [&](const IntentionsList&) {
    if (after_inode_write && !crashed && system.stats().Get("fs.install.groups") > 0) {
      crashed = true;
      system.sim().Schedule(0, crash);
    }
  };
  system.observers().Register(&watch);

  int committed = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    system.Spawn(i % 2 == 0 ? 0 : 2, "txn", [&committed, i, &records](Syscalls& sys) {
      ASSERT_EQ(sys.BeginTrans(), Err::kOk);
      for (const char* path : {"/g", "/h"}) {
        auto fd = sys.Open(path, {.read = true, .write = true});
        ASSERT_TRUE(fd.ok());
        sys.Seek(fd.value, static_cast<int64_t>(8 * i));
        ASSERT_EQ(sys.WriteString(fd.value, std::string(8, records[i])), Err::kOk);
        sys.Close(fd.value);
      }
      ASSERT_EQ(sys.EndTrans(), Err::kOk);
      ++committed;
    });
  }
  system.RunFor(Seconds(5));
  ASSERT_TRUE(crashed);
  ASSERT_FALSE(system.net().IsAlive(1));
  EXPECT_EQ(committed, static_cast<int>(records.size()));
  system.RebootSite(1);
  system.RunFor(Seconds(30));
  for (const char* path : {"/g", "/h"}) {
    std::string content;
    system.Spawn(2, "rd", [&content, path](Syscalls& sys) {
      auto fd = sys.Open(path, {});
      ASSERT_TRUE(fd.ok());
      auto data = sys.Read(fd.value, 64);
      ASSERT_TRUE(data.ok());
      content = Text(data.value);
    });
    system.RunFor(Seconds(5));
    ASSERT_EQ(content.size(), 64u) << path;
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(content.substr(8 * i, 8), std::string(8, records[i])) << path;
    }
  }
  EXPECT_EQ(volume->double_frees(), 0);
}

INSTANTIATE_TEST_SUITE_P(CrashPoint, GroupCrashTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "AfterInodeWrite" : "BeforeInodeWrite";
                         });

}  // namespace
}  // namespace locus
