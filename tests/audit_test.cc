// Protocol auditor tests: each seeded violation class is detected, and clean
// runs over the existing integration-style scenarios (debit/credit workload,
// crash recovery, replication with partitions) produce zero violations.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/observer.h"
#include "src/locus/system.h"
#include "src/workload/debit_credit.h"

namespace locus {
namespace {

SystemOptions AuditOn() {
  SystemOptions options;
  options.audit = true;
  return options;
}

// A transaction id that never went through BeginTrans: the auditor has no
// record of it beginning, holding locks, or reaching any commit decision.
TxnId FabricatedTxn() { return TxnId{0, 1, 9999}; }

// ---------------------------------------------------------------------------
// Seeded violation class 1: transactional write without a covering lock.

TEST(AuditSeededTest, DetectsUnlockedTransactionalWrite) {
  System system(1, AuditOn());
  ASSERT_TRUE(system.audit().enabled());
  system.Spawn(0, "rogue", [](Syscalls& sys) {
    // Drive the storage layer directly, bypassing the kernel's lock
    // enforcement — exactly the class of internal bug the auditor exists to
    // catch.
    FileStore* store = sys.system().kernel(0).StoreFor(0);
    FileId file = store->CreateFile();
    LockOwner rogue{sys.pid(), FabricatedTxn()};
    store->Write(file, rogue, 0, std::vector<uint8_t>(16, 0xAB));
  });
  system.Run();
  EXPECT_GE(system.audit().CountKind(AuditKind::kUnlockedWrite), 1);
  EXPECT_GE(system.stats().Get("audit.violations"), 1);
  // The report carries the transaction, a site, and the offending range.
  bool found = false;
  for (const AuditReport& r : system.audit().violations()) {
    if (r.kind == AuditKind::kUnlockedWrite) {
      found = true;
      EXPECT_EQ(r.txn, FabricatedTxn());
      EXPECT_FALSE(r.site.empty());
      EXPECT_EQ(r.range.length, 16);
      EXPECT_FALSE(r.ToString().empty());
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Seeded violation class 2: lock acquired after the transaction resolved
// (strict two-phase locking).

TEST(AuditSeededTest, DetectsLockAcquiredAfterRelease) {
  System system(1, AuditOn());
  ProtocolAuditor& audit = system.audit();
  TxnId txn{0, 1, 1};
  LockOwner owner{42, txn};
  FileId file{0, 1};

  audit.OnTxnBegin(txn);
  audit.OnLockAccepted("site0", file, ByteRange{0, 8}, owner, LockMode::kExclusive);
  EXPECT_EQ(audit.violation_count(), 0);

  // The transaction commits (its first release), then acquires again.
  audit.OnCommitPoint("site0", txn, {}, 1);
  audit.OnLockAccepted("site0", file, ByteRange{8, 8}, owner, LockMode::kExclusive);
  EXPECT_EQ(audit.CountKind(AuditKind::kAcquireAfterRelease), 1);

  // Same discipline after an abort decision.
  TxnId txn2{0, 1, 2};
  audit.OnTxnBegin(txn2);
  audit.OnAbortDecision("site0", txn2);
  audit.OnLockAccepted("site0", file, ByteRange{0, 4}, LockOwner{43, txn2},
                       LockMode::kShared);
  EXPECT_EQ(audit.CountKind(AuditKind::kAcquireAfterRelease), 2);
}

// ---------------------------------------------------------------------------
// Seeded violation class 3: prepared shadow pages installed before the
// intentions list committed.

TEST(AuditSeededTest, DetectsPreCommitShadowPageInstall) {
  System system(1, AuditOn());
  system.Spawn(0, "rogue", [](Syscalls& sys) {
    FileStore* store = sys.system().kernel(0).StoreFor(0);
    FileId file = store->CreateFile();
    LockOwner writer{sys.pid(), FabricatedTxn()};
    store->Write(file, writer, 0, std::vector<uint8_t>(32, 0x5A));
    auto intentions = store->PrepareWriter(file, writer);
    ASSERT_TRUE(intentions.has_value());
    // Phase two before any commit decision: the shadow pages must not be
    // installed at the home location yet.
    store->InstallIntentions(*intentions);
  });
  system.Run();
  EXPECT_GE(system.audit().CountKind(AuditKind::kPrematureInstall), 1);
}

// ---------------------------------------------------------------------------
// Seeded violation class 4: out-of-order two-phase-commit message — a commit
// message served at a participant with no commit decision in existence.

TEST(AuditSeededTest, DetectsOutOfOrderCommitMessage) {
  System system(2, AuditOn());
  system.RunFor(Seconds(1));  // Let the sites boot.
  system.net().Send(0, 1, MakeMsg<kCommitTxnReq>(CommitTxnRequest{FabricatedTxn()}));
  system.Run();
  EXPECT_GE(system.audit().CountKind(AuditKind::kCommitBeforeDecision), 1);
}

// ---------------------------------------------------------------------------
// Clean runs: the real protocol, observed end to end, must audit clean —
// zero violations while the checks counter shows real coverage.

void ExpectClean(System& system) {
  EXPECT_EQ(system.audit().violation_count(), 0) << system.audit().Summary();
  EXPECT_GT(system.audit().check_count(), 0);
  EXPECT_EQ(system.stats().Get("audit.violations"), 0);
  EXPECT_EQ(system.stats().Get("audit.checks"), system.audit().check_count());
}

TEST(AuditCleanTest, DebitCreditWorkloadAuditsClean) {
  SystemOptions options = AuditOn();
  options.seed = 7;
  System system(3, options);
  DebitCreditConfig config;
  config.branches = 3;
  config.tellers = 4;
  config.transfers_per_teller = 8;
  config.seed = 7;
  DebitCreditResults results = DebitCreditWorkload(&system, config).Execute();
  EXPECT_TRUE(results.conserved());
  EXPECT_GT(results.committed, 0);
  ExpectClean(system);
}

TEST(AuditCleanTest, CrashRecoveryAuditsClean) {
  System system(3, AuditOn());
  system.Spawn(1, "mk", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/money"), Err::kOk);
    auto fd = sys.Open("/money", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "0000000000"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system.RunFor(Seconds(5));

  // Commit a cross-site transaction, then crash the coordinator at the
  // commit point; recovery re-drives phase two.
  bool committed = false;
  system.Spawn(0, "txn", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/money", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "1111111111"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
    committed = true;
    sys.system().CrashSite(0);
  });
  system.RunFor(Seconds(2));
  ASSERT_TRUE(committed);
  system.RebootSite(0);
  system.RunFor(Seconds(5));

  // A mid-transaction coordinator crash aborts cleanly too.
  system.Spawn(0, "doomed", [&](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/money", {.read = true, .write = true});
    if (fd.ok()) {
      sys.WriteString(fd.value, "2222222222");
    }
    sys.Compute(Seconds(60));  // Crash hits before EndTrans.
  });
  system.RunFor(Milliseconds(800));
  system.CrashSite(0);
  system.RunFor(Seconds(3));
  system.RebootSite(0);
  system.RunFor(Seconds(5));

  std::string content;
  system.Spawn(2, "rd", [&](Syscalls& sys) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      auto fd = sys.Open("/money", {});
      if (fd.ok()) {
        auto data = sys.Read(fd.value, 10);
        sys.Close(fd.value);
        if (data.ok()) {
          content = std::string(data.value.begin(), data.value.end());
          return;
        }
      }
      sys.Compute(Milliseconds(100));
    }
  });
  system.RunFor(Seconds(10));
  EXPECT_EQ(content, "1111111111");
  ExpectClean(system);
}

TEST(AuditCleanTest, ReplicationWithPartitionAuditsClean) {
  System system(3, AuditOn());
  system.Spawn(0, "mk", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/r", 3), Err::kOk);
    auto fd = sys.Open("/r", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "version 1!"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system.RunFor(Seconds(5));

  system.Partition({{0, 1}, {2}});
  system.RunFor(Seconds(1));
  system.Spawn(0, "wr", [](Syscalls& sys) {
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/r", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "version 2!"), Err::kOk);
    sys.Close(fd.value);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  system.RunFor(Seconds(5));
  system.HealPartitions();
  system.RunFor(Seconds(10));  // Reintegration catch-up.

  std::string content;
  system.Spawn(2, "rd", [&](Syscalls& sys) {
    auto fd = sys.Open("/r", {});
    ASSERT_TRUE(fd.ok());
    auto data = sys.Read(fd.value, 10);
    ASSERT_TRUE(data.ok());
    content = std::string(data.value.begin(), data.value.end());
    sys.Close(fd.value);
  });
  system.RunFor(Seconds(5));
  EXPECT_EQ(content, "version 2!");
  ExpectClean(system);
}

// The auditor must never perturb the simulation: the same seed produces
// bit-identical virtual results with the auditor on and off.

TEST(AuditCleanTest, AuditorDoesNotPerturbVirtualResults) {
  DebitCreditConfig config;
  config.branches = 2;
  config.tellers = 3;
  config.transfers_per_teller = 6;
  config.seed = 11;

  SystemOptions plain;
  plain.seed = 11;
  System baseline(2, plain);
  DebitCreditResults without = DebitCreditWorkload(&baseline, config).Execute();

  SystemOptions audited = AuditOn();
  audited.seed = 11;
  System observed(2, audited);
  DebitCreditResults with = DebitCreditWorkload(&observed, config).Execute();

  EXPECT_EQ(without.committed, with.committed);
  EXPECT_EQ(without.aborted_attempts, with.aborted_attempts);
  EXPECT_EQ(without.makespan, with.makespan);
  EXPECT_EQ(without.audited_total, with.audited_total);
  EXPECT_EQ(observed.audit().violation_count(), 0) << observed.audit().Summary();
}

// Disabled by default: a default-options System reports the counters at zero
// and performs no checks.

TEST(AuditCleanTest, DisabledByDefaultCostsNothing) {
  System system(1);
  EXPECT_FALSE(system.audit().enabled());
  system.Spawn(0, "w", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/f"), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "hello"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system.Run();
  EXPECT_EQ(system.audit().check_count(), 0);
  auto counters = system.stats().counters();
  ASSERT_TRUE(counters.count("audit.checks"));
  ASSERT_TRUE(counters.count("audit.violations"));
  EXPECT_EQ(counters.at("audit.checks"), 0);
  EXPECT_EQ(counters.at("audit.violations"), 0);
}

// ---------------------------------------------------------------------------
// The observer hub: every LOCUS_OBSERVER_HOOKS row reaches each registered
// enabled observer, in registration order, and no disabled one.

// Logs "<tag>:<hook>" for every hook it receives.
class HookLog : public ProtocolObserver {
 public:
  HookLog(std::string tag, bool enabled, std::vector<std::string>* log)
      : ProtocolObserver(enabled), tag_(std::move(tag)), log_(log) {}

#define LOCUS_HOOK_LOG(name, params, args) \
  void name params override {              \
    Ignore args;                           \
    log_->push_back(tag_ + ":" #name);     \
  }
  LOCUS_OBSERVER_HOOKS(LOCUS_HOOK_LOG)
#undef LOCUS_HOOK_LOG

 private:
  std::string tag_;
  std::vector<std::string>* log_;
};

// Fires `hook` on the hub with value-initialized arguments.
template <typename... Params>
void Fire(ObserverHub& hub, void (ProtocolObserver::*hook)(Params...)) {
  (hub.*hook)(std::remove_cvref_t<Params>{}...);
}

TEST(ObserverHubTest, EveryHookReachesEachEnabledObserverInOrder) {
  std::vector<std::string> log;
  HookLog first("first", true, &log);
  HookLog off("off", false, &log);
  HookLog second("second", true, &log);
  ObserverHub hub;
  hub.Register(&first);
  hub.Register(&off);
  hub.Register(&second);
  EXPECT_TRUE(hub.enabled());
  std::vector<std::string> expected;
#define LOCUS_FIRE_HOOK(name, params, args) \
  Fire(hub, &ProtocolObserver::name);       \
  expected.push_back("first:" #name);       \
  expected.push_back("second:" #name);
  LOCUS_OBSERVER_HOOKS(LOCUS_FIRE_HOOK)
#undef LOCUS_FIRE_HOOK
  EXPECT_EQ(log, expected);
}

TEST(ObserverHubTest, OnlyDisabledObserversLeaveTheGateOff) {
  std::vector<std::string> log;
  HookLog off("off", false, &log);
  ObserverHub hub;
  EXPECT_FALSE(hub.enabled());
  hub.Register(&off);
  EXPECT_FALSE(hub.enabled());
  Fire(hub, &ProtocolObserver::OnTxnBegin);
  EXPECT_TRUE(log.empty());
}

// An observer registered after the System is built (as a benchmark tracer
// is) turns the subsystems' gate on and hears the run.
TEST(ObserverHubTest, RegisteringAfterConstructionTurnsTheGateOn) {
  System system(1);
  ASSERT_FALSE(system.observers().enabled());
  std::vector<std::string> log;
  HookLog late("late", true, &log);
  system.observers().Register(&late);
  EXPECT_TRUE(system.observers().enabled());
  system.Spawn(0, "txn", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/late"), Err::kOk);
    ASSERT_EQ(sys.BeginTrans(), Err::kOk);
    auto fd = sys.Open("/late", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "heard"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
    ASSERT_EQ(sys.EndTrans(), Err::kOk);
  });
  system.Run();
  for (const char* hook : {"late:OnTxnBegin", "late:OnLockGranted", "late:OnStoreWrite",
                           "late:OnCommitPoint", "late:OnInstall"}) {
    EXPECT_NE(std::find(log.begin(), log.end(), hook), log.end()) << hook;
  }
}

}  // namespace
}  // namespace locus
