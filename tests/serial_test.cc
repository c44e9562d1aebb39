// Serializability certifier tests (src/serial): each seeded outcome-violation
// class is detected with a structured, replayable report; clean runs over the
// existing integration-style scenarios certify violation-free; and the
// certifier never perturbs virtual-time results (certifier-on/off runs are
// bit-identical).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/locus/system.h"
#include "src/serial/certifier.h"
#include "src/workload/debit_credit.h"

namespace locus {
namespace {

SystemOptions SerialOn() {
  SystemOptions options;
  options.serial = true;
  return options;
}

// Transaction ids that never went through BeginTrans: the certifier learns of
// them only through the hooks each test drives.
TxnId TxnA() { return TxnId{0, 1, 101}; }
TxnId TxnB() { return TxnId{1, 1, 102}; }

// ---------------------------------------------------------------------------
// Seeded violation class 1: write skew through a lock bypass. Two
// transactions each read the range the other writes (the writes driven
// straight into the FileStore, bypassing the kernel's lock enforcement, so
// 2PL never orders them), then both commit. The resulting rw/rw cycle is
// invisible to any step-level check — both histories are locally clean — and
// only the serialization graph catches it.

TEST(SerialSeededTest, DetectsWriteSkewCycleFromLockBypass) {
  System system(1, SerialOn());
  ASSERT_TRUE(system.serial().enabled());
  SerializabilityCertifier& cert = system.serial();
  FileId file_a, file_b;
  system.Spawn(0, "rogue", [&](Syscalls& sys) {
    FileStore* store = sys.system().kernel(0).StoreFor(0);
    file_a = store->CreateFile();
    file_b = store->CreateFile();
    // Cross reads first (clean: nothing written yet), then the bypassing
    // writes. The OnStoreWrite capture comes from the real storage path.
    cert.OnTxnBegin(TxnA());
    cert.OnTxnBegin(TxnB());
    cert.OnServeRead("site0", file_b, ByteRange{0, 8}, LockOwner{1, TxnA()}, {});
    cert.OnServeRead("site0", file_a, ByteRange{0, 8}, LockOwner{2, TxnB()}, {});
    store->Write(file_a, LockOwner{1, TxnA()}, 0, std::vector<uint8_t>(8, 0xA1));
    store->Write(file_b, LockOwner{2, TxnB()}, 0, std::vector<uint8_t>(8, 0xB2));
  });
  system.Run();
  EXPECT_EQ(cert.violation_count(), 0);

  // Installing A puts the rw edge B -> A in place; installing B closes the
  // cycle A -> B -> A at B's commit point.
  cert.OnCommitPoint("site0", TxnA(), {}, 1);
  EXPECT_EQ(cert.CountKind(SerialKind::kCycle), 0);
  cert.OnCommitPoint("site0", TxnB(), {}, 1);
  EXPECT_EQ(cert.CountKind(SerialKind::kCycle), 1);
  EXPECT_GE(system.stats().Get("serial.violations"), 1);
  EXPECT_GE(system.stats().Get("serial.cycles"), 1);

  // The report names both transactions, closes the trail (first == last),
  // and carries the recent-event trail for replay triage.
  bool found = false;
  for (const SerialReport& r : cert.violations()) {
    if (r.kind != SerialKind::kCycle) {
      continue;
    }
    found = true;
    ASSERT_GE(r.txns.size(), 3u);
    EXPECT_EQ(r.txns.front(), r.txns.back());
    int has_a = 0, has_b = 0;
    for (const TxnId& t : r.txns) {
      has_a += t == TxnA();
      has_b += t == TxnB();
    }
    EXPECT_GE(has_a, 1);
    EXPECT_GE(has_b, 1);
    EXPECT_FALSE(r.trail.empty());
    EXPECT_NE(r.ToString().find("serialization-cycle"), std::string::npos);
  }
  EXPECT_TRUE(found);
  // The terminal sweep reports the same cycle once, not twice.
  cert.Certify();
  EXPECT_EQ(cert.CountKind(SerialKind::kCycle), 1);
}

// ---------------------------------------------------------------------------
// Seeded violation class 2: unrecoverable commit. A reader is served bytes
// another transaction has written but not committed (the storage layer
// reports them in dirty_of_others), then the reader commits while the writer
// is still unresolved — and the writer's later abort makes the committed
// read of never-existing data permanent.

TEST(SerialSeededTest, DetectsDirtyReadCommit) {
  System system(1, SerialOn());
  SerializabilityCertifier& cert = system.serial();
  FileId file{0, 7};
  ByteRange range{0, 16};

  cert.OnTxnBegin(TxnA());
  cert.OnStoreWrite("site0", file, range, LockOwner{1, TxnA()});
  cert.OnTxnBegin(TxnB());
  // The read overlaps A's uncommitted bytes; a lock-discipline bug (or a
  // guard-off cache path) let it through.
  cert.OnServeRead("site0", file, range, LockOwner{2, TxnB()},
                   {{TxnA(), range}});
  EXPECT_EQ(cert.violation_count(), 0);

  cert.OnCommitPoint("site0", TxnB(), {}, 1);
  ASSERT_EQ(cert.CountKind(SerialKind::kRecoverability), 1);
  const SerialReport& r = cert.violations()[0];
  ASSERT_EQ(r.txns.size(), 2u);
  EXPECT_EQ(r.txns[0], TxnB());  // The committed reader...
  EXPECT_EQ(r.txns[1], TxnA());  // ...and its unresolved dirty dependency.
  EXPECT_NE(r.ToString().find("unrecoverable-commit"), std::string::npos);

  // The writer aborting afterwards does not double-report.
  cert.OnAbortDecision("site0", TxnA());
  EXPECT_EQ(cert.CountKind(SerialKind::kRecoverability), 1);
}

// ---------------------------------------------------------------------------
// Seeded violation class 3: external-consistency break via a reordered
// commit observation. Site 0's transaction A reaches its commit point and
// the commit becomes visible at site 1 through a real network message; a
// transaction B that site 1 starts *afterwards* is then served a read that
// predates A's install (a stale version), so the graph orders B before A —
// a serialization order contradicting what the cluster already observed.

TEST(SerialSeededTest, DetectsReorderedCommitObservation) {
  System system(2, SerialOn());
  system.RunFor(Seconds(1));  // Boot both sites.
  SerializabilityCertifier& cert = system.serial();
  FileId file{0, 9};
  ByteRange range{0, 8};

  cert.OnTxnBegin(TxnA());
  cert.OnStoreWrite("site0", file, range, LockOwner{1, TxnA()});

  // The commit's visibility escapes to site 1 (any message carries the
  // vector clock; the certifier only consumes the causality).
  system.net().Send(0, 1, MakeMsg<kCommitTxnReq>(CommitTxnRequest{TxnA()}));
  system.Run();

  // B begins at site 1 with A's commit in its causal past, yet its read is
  // served from state missing A's write — recorded before A's install.
  cert.OnTxnBegin(TxnB());
  cert.OnServeRead("site1", file, range, LockOwner{2, TxnB()}, {});
  EXPECT_EQ(cert.violation_count(), 0);

  // A's install now orders B before A: external consistency is violated at
  // the moment the rw edge lands.
  cert.OnCommitPoint("site0", TxnA(), {}, 1);
  ASSERT_EQ(cert.CountKind(SerialKind::kExternalConsistency), 1);
  const SerialReport& r = cert.violations()[0];
  ASSERT_EQ(r.txns.size(), 2u);
  EXPECT_EQ(r.txns[0], TxnB());  // Serialized before...
  EXPECT_EQ(r.txns[1], TxnA());  // ...the commit it observably began after.
  EXPECT_NE(r.ToString().find("external-consistency"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Seeded violation class 4: cross-site happens-before race on
// non-transactional kernel shared state — two sites write the same key with
// no message chain ordering the accesses.

TEST(SerialSeededTest, DetectsSharedStateRace) {
  System system(2, SerialOn());
  SerializabilityCertifier& cert = system.serial();
  system.net().StampLocalEvent(0);
  cert.OnSharedAccess("site0", "catalog.entry/shared", true);
  system.net().StampLocalEvent(1);
  cert.OnSharedAccess("site1", "catalog.entry/shared", true);
  ASSERT_EQ(cert.CountKind(SerialKind::kRace), 1);
  const SerialReport& r = cert.violations()[0];
  EXPECT_NE(r.detail.find("catalog.entry/shared"), std::string::npos);
  EXPECT_NE(r.ToString().find("shared-state-race"), std::string::npos);

  // A message chain between the accesses establishes the order: no race.
  SerializabilityCertifier& cert2 = cert;  // Same instance, new key.
  system.net().StampLocalEvent(0);
  cert2.OnSharedAccess("site0", "catalog.entry/ordered", true);
  system.net().Send(0, 1, MakeMsg<kCommitTxnReq>(CommitTxnRequest{TxnA()}, 32));
  system.Run();
  system.net().StampLocalEvent(1);
  cert2.OnSharedAccess("site1", "catalog.entry/ordered", true);
  EXPECT_EQ(cert2.CountKind(SerialKind::kRace), 1);  // Still just the first.
}

// ---------------------------------------------------------------------------
// Clean runs: the real protocol, certified end to end, must come back
// violation-free with real certification coverage.

void ExpectCleanSerial(System& system) {
  EXPECT_EQ(system.serial().Certify(), 0) << system.serial().Summary();
  EXPECT_GT(system.serial().txns_certified(), 0);
  EXPECT_EQ(system.stats().Get("serial.violations"), 0);
  EXPECT_EQ(system.stats().Get("serial.txns_certified"),
            system.serial().txns_certified());
}

TEST(SerialCleanTest, DebitCreditWorkloadCertifiesClean) {
  SystemOptions options = SerialOn();
  options.audit = true;  // Both observers share the hook fan-out.
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
  EXPECT_EQ(system.audit().violation_count(), 0) << system.audit().Summary();
  ExpectCleanSerial(system);
  EXPECT_GT(system.serial().edge_count(), 0);  // Real conflicts were graphed.
}

TEST(SerialCleanTest, CrashRecoveryCertifiesClean) {
  System system(3, SerialOn());
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
  ExpectCleanSerial(system);
}

TEST(SerialCleanTest, PartitionReintegrationCertifiesClean) {
  System system(3, SerialOn());
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
  ExpectCleanSerial(system);
}

// ---------------------------------------------------------------------------
// The certifier must never perturb the simulation: the same seed produces
// bit-identical virtual results with the certifier (and its vector-clock
// piggyback) on and off.

TEST(SerialCleanTest, CertifierDoesNotPerturbVirtualResults) {
  DebitCreditConfig config;
  config.branches = 2;
  config.tellers = 3;
  config.transfers_per_teller = 6;
  config.seed = 11;

  SystemOptions plain;
  plain.seed = 11;
  System baseline(2, plain);
  DebitCreditResults without = DebitCreditWorkload(&baseline, config).Execute();

  SystemOptions certified = SerialOn();
  certified.seed = 11;
  System observed(2, certified);
  DebitCreditResults with = DebitCreditWorkload(&observed, config).Execute();

  EXPECT_EQ(without.committed, with.committed);
  EXPECT_EQ(without.aborted_attempts, with.aborted_attempts);
  EXPECT_EQ(without.makespan, with.makespan);
  EXPECT_EQ(without.audited_total, with.audited_total);
  EXPECT_EQ(observed.serial().Certify(), 0) << observed.serial().Summary();
}

// Disabled by default: a default-options System interns the counters at zero
// and performs no certification work.

TEST(SerialCleanTest, DisabledByDefaultCostsNothing) {
  System system(1);
  EXPECT_FALSE(system.serial().enabled());
  system.Spawn(0, "w", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/f"), Err::kOk);
    auto fd = sys.Open("/f", {.read = true, .write = true});
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(sys.WriteString(fd.value, "hello"), Err::kOk);
    ASSERT_EQ(sys.Close(fd.value), Err::kOk);
  });
  system.Run();
  EXPECT_EQ(system.serial().txns_certified(), 0);
  auto counters = system.stats().counters();
  ASSERT_TRUE(counters.count("serial.txns_certified"));
  ASSERT_TRUE(counters.count("serial.violations"));
  EXPECT_EQ(counters.at("serial.txns_certified"), 0);
  EXPECT_EQ(counters.at("serial.violations"), 0);
}

}  // namespace
}  // namespace locus
