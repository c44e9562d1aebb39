// Reliability table (extension): the paper's abstract promises transactions
// that "behave reasonably in the face of failures". This bench runs the
// debit/credit workload under escalating fault scenarios and reports whether
// the correctness invariants held:
//   conservation — committed money is never created or destroyed;
//   liveness     — no process remains wedged after the faults clear;
//   currency     — with replicated branch files, every replica converges to
//                  the latest committed image after crashes/partitions heal
//                  (kernel_recon.cc reintegration).
//
// With --json=<path> the per-scenario rows are also written for the
// regression harness; main() exits nonzero if a replicated scenario violates
// its invariants. With --seeds=N it prints no table: it runs each replicated
// scenario over seeds 1..N, reports the failing seeds per scenario, and exits
// nonzero if any seed failed.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_common.h"
#include "src/workload/debit_credit.h"

namespace locus {
namespace bench {
namespace {

// --audit runs every scenario with the runtime protocol auditor observing
// (src/audit); any protocol violation fails the whole run.
bool g_audit = false;
// --serial additionally runs the outcome-level serializability certifier
// (src/serial); any serializability/recoverability/external-consistency/race
// violation fails the whole run.
bool g_serial = false;

struct ScenarioResult {
  DebitCreditResults workload;
  int blocked = 0;
  int64_t audit_checks = 0;
  int64_t audit_violations = 0;
  std::string audit_summary;
  int64_t serial_violations = 0;
  std::string serial_summary;
  // Replicated scenarios only: post-fault replica currency and byte equality.
  bool checked_replicas = false;
  bool replicas_current = true;
  bool replicas_equal = true;
};

// Post-run replica audit: every replica of every branch file must report
// current (non-stale, at the maximum commit ordinal) through the syscall
// surface, and the committed images must be byte-identical across sites.
void CheckReplicas(System& system, const DebitCreditConfig& config,
                   ScenarioResult* out) {
  bool current = true;
  system.Spawn(0, "replica-audit", [&current, &config](Syscalls& sys) {
    for (int b = 0; b < config.branches; ++b) {
      auto status = sys.ReplicaStatus(DebitCreditWorkload::BranchPath(b));
      if (!status.ok()) {
        current = false;
        continue;
      }
      for (const ReplicaStatusEntry& row : status.value) {
        current = current && row.reachable && !row.stale && row.current;
      }
    }
  });
  system.RunFor(Seconds(30));
  out->replicas_current = current;

  bool equal = true;
  for (int b = 0; b < config.branches; ++b) {
    const CatalogEntry* entry =
        system.catalog().Lookup(DebitCreditWorkload::BranchPath(b));
    if (entry == nullptr) {
      equal = false;
      continue;
    }
    std::vector<std::vector<uint8_t>> images;
    for (const Replica& r : entry->replicas) {
      std::vector<uint8_t> bytes;
      system.Spawn(r.site, "peek", [&bytes, r](Syscalls& sys) {
        FileStore* store = sys.system().kernel(r.site).StoreFor(r.file.volume);
        bytes = store->Read(r.file, ByteRange{0, store->CommittedSize(r.file)});
      });
      system.RunFor(Seconds(10));
      images.push_back(std::move(bytes));
    }
    for (size_t i = 1; i < images.size(); ++i) {
      equal = equal && images[i] == images[0];
    }
  }
  out->replicas_equal = equal;
}

// Runs the workload at 3 sites while `faults` injects trouble from a
// separate driver process. With replication > 1 the branch files are
// replicated and the post-run replica audit is performed.
ScenarioResult RunScenario(uint64_t seed, std::function<void(Syscalls&)> faults,
                           int replication = 1) {
  System system(3, SystemOptions{.seed = seed, .audit = g_audit, .serial = g_serial});
  if (faults) {
    system.Spawn(2, "fault-injector", std::move(faults));
  }
  DebitCreditConfig config;
  config.branches = 2;  // Branch files at sites 0 and 1; tellers everywhere.
  config.replication = replication;
  config.accounts_per_branch = 6;
  config.tellers = 4;
  config.transfers_per_teller = 8;
  config.seed = seed;
  DebitCreditWorkload workload(&system, config);
  ScenarioResult result;
  result.workload = workload.Execute();
  result.blocked = system.sim().blocked_process_count();
  if (replication > 1) {
    result.checked_replicas = true;
    CheckReplicas(system, config, &result);
  }
  result.audit_checks = system.audit().check_count();
  result.audit_violations = system.audit().violation_count();
  if (result.audit_violations > 0) {
    result.audit_summary = system.audit().Summary();
  }
  if (g_serial) {
    result.serial_violations = system.serial().Certify();
    if (result.serial_violations > 0) {
      result.serial_summary = system.serial().Summary();
    }
  }
  return result;
}

// The invariants a scenario broke, comma-separated; empty when the audit
// completed with money conserved, nothing stayed wedged, (if replicated)
// every replica ended current and equal, and (under --audit/--serial) no
// violation was seen.
std::string Violated(const ScenarioResult& r) {
  std::string out;
  auto add = [&out](bool broken, const char* what) {
    if (broken) {
      out += out.empty() ? what : std::string(", ") + what;
    }
  };
  add(!r.workload.audit_complete, "audit incomplete");
  add(r.workload.audit_complete && !r.workload.conserved(), "not conserved");
  add(r.blocked != 0, "blocked");
  add(!r.replicas_current, "not current");
  add(!r.replicas_equal, "not equal");
  add(r.audit_violations + r.serial_violations != 0, "protocol");
  return out;
}

bool Healthy(const ScenarioResult& r) { return Violated(r).empty(); }

// The replicated scenarios (kernel_recon.cc): a replica site dies or is
// partitioned away while commits keep landing at the surviving primary;
// after the reboot/heal, reintegration must bring every replica back to the
// latest committed image — checked through ReplicaStatus and raw byte
// comparison. The table runs each at one seed; --seeds=N sweeps them.
struct ReplicatedScenario {
  const char* name;
  uint64_t table_seed;
  int replication;
  void (*faults)(Syscalls&);
};

constexpr ReplicatedScenario kReplicatedScenarios[] = {
    {"replica crash + reboot (repl=2)", 7, 2,
     [](Syscalls& sys) {
       sys.Compute(Milliseconds(600));
       sys.system().CrashSite(1);
       sys.Compute(Seconds(2));
       sys.system().RebootSite(1);
     }},
    {"partition + heal (repl=3)", 8, 3,
     [](Syscalls& sys) {
       sys.Compute(Milliseconds(500));
       sys.system().Partition({{0, 2}, {1}});
       sys.Compute(Seconds(2));
       sys.system().HealPartitions();
     }},
};

// Runs every replicated scenario at seeds 1..n and prints, per scenario,
// how many seeds failed and which invariants each broke. Returns true if
// none failed.
bool RunSeedSweep(int n) {
  int failed_total = 0;
  for (const ReplicatedScenario& scenario : kReplicatedScenarios) {
    std::string failures;
    int failed = 0;
    for (int seed = 1; seed <= n; ++seed) {
      std::string broken = Violated(RunScenario(static_cast<uint64_t>(seed), scenario.faults,
                                                scenario.replication));
      if (!broken.empty()) {
        ++failed;
        failures += "  seed " + std::to_string(seed) + ": " + broken + "\n";
      }
    }
    printf("%-36s %d of %d seeds failed\n%s", scenario.name, failed, n, failures.c_str());
    failed_total += failed;
  }
  return failed_total == 0;
}

// Total protocol violations across every printed scenario (only meaningful
// under --audit; always zero otherwise).
int64_t g_violations_seen = 0;

void PrintRow(const char* name, const ScenarioResult& r, JsonReport* report) {
  g_violations_seen += r.audit_violations + r.serial_violations;
  if (!r.audit_summary.empty()) {
    fprintf(stderr, "--- protocol violations in '%s' ---\n%s", name,
            r.audit_summary.c_str());
  }
  if (!r.serial_summary.empty()) {
    fprintf(stderr, "--- serializability violations in '%s' ---\n%s", name,
            r.serial_summary.c_str());
  }
  // "conserved" is only meaningful when every branch was readable by audit
  // time; permanently in-doubt records (the classic 2PC blocking window,
  // when a coordinator dies for good) make the audit incomplete instead.
  const char* conserved = !r.workload.audit_complete ? "n/a"
                          : r.workload.conserved()   ? "yes"
                                                     : "NO";
  const char* replicas = !r.checked_replicas ? "n/a"
                         : (r.replicas_current && r.replicas_equal) ? "yes"
                                                                    : "NO";
  const char* protocol = (!g_audit && !g_serial)
                             ? "n/a"
                             : (r.audit_violations + r.serial_violations) == 0 ? "yes"
                                                                               : "NO";
  printf("%-36s %8d %9s %7s %5s %8s %8s\n", name, r.workload.committed,
         conserved, r.workload.audit_complete ? "yes" : "NO",
         r.blocked == 0 ? "yes" : "NO", replicas, protocol);
  report->Add("chaos_reliability", name, r.workload.throughput_tps(),
              ToMilliseconds(r.workload.makespan));
}

bool RunTables(JsonReport* report) {
  PrintHeader("Reliability under faults (extension)",
              "the abstract's claim: 'behave reasonably in the face of failures'");
  printf("%-36s %8s %9s %7s %5s %8s %8s\n", "scenario", "commits", "conserved",
         "audited", "live", "replicas", "protocol");
  printf("-------------------------------------------------------------------------------------\n");

  PrintRow("no faults", RunScenario(1, nullptr), report);

  PrintRow("teller-site crash + reboot", RunScenario(2, [](Syscalls& sys) {
             // The injector runs at site 2 and takes its own site down; a
             // timer event brings the site back while nobody is home. (The
             // event must not capture the injector's stack: it dies in the
             // crash.)
             System* cluster = &sys.system();
             cluster->sim().Schedule(Seconds(3), [cluster] { cluster->RebootSite(2); });
             sys.Compute(Milliseconds(600));
             cluster->CrashSite(2);
           }),
           report);

  PrintRow("storage-site crash + reboot", RunScenario(3, [](Syscalls& sys) {
             sys.Compute(Milliseconds(600));
             sys.system().CrashSite(1);
             sys.Compute(Seconds(2));
             sys.system().RebootSite(1);
           }),
           report);

  PrintRow("transient partition", RunScenario(4, [](Syscalls& sys) {
             sys.Compute(Milliseconds(500));
             sys.system().Partition({{0, 2}, {1}});
             sys.Compute(Seconds(2));
             sys.system().HealPartitions();
           }),
           report);

  PrintRow("repeated crash storm", RunScenario(5, [](Syscalls& sys) {
             for (int i = 0; i < 3; ++i) {
               sys.Compute(Milliseconds(700));
               sys.system().CrashSite(1);
               sys.Compute(Milliseconds(700));
               sys.system().RebootSite(1);
             }
           }),
           report);

  PrintRow("partition + crash combined", RunScenario(6, [](Syscalls& sys) {
             sys.Compute(Milliseconds(400));
             sys.system().Partition({{0}, {1, 2}});
             sys.Compute(Seconds(1));
             sys.system().HealPartitions();
             sys.Compute(Milliseconds(400));
             sys.system().CrashSite(1);
             sys.Compute(Seconds(1));
             sys.system().RebootSite(1);
           }),
           report);

  bool replicated_ok = true;
  for (const ReplicatedScenario& scenario : kReplicatedScenarios) {
    ScenarioResult r = RunScenario(scenario.table_seed, scenario.faults, scenario.replication);
    PrintRow(scenario.name, r, report);
    replicated_ok = replicated_ok && Healthy(r);
  }

  printf("-------------------------------------------------------------------------------------\n");
  printf("expected: 'conserved' and 'live' are yes in every row, 'replicas' is\n");
  printf("yes in the replicated rows; the commit count drops as faults abort\n");
  printf("in-flight transactions (atomically).\n");

  bool ok = replicated_ok;
  if (!ok) {
    fprintf(stderr, "chaos_reliability: replicated-scenario invariants VIOLATED\n");
  }
  if ((g_audit || g_serial) && g_violations_seen > 0) {
    fprintf(stderr, "chaos_reliability: %lld protocol violations under --audit/--serial\n",
            static_cast<long long>(g_violations_seen));
    ok = false;
  }
  return ok;
}

// Negative control for the CI certifier stage: drives the certifier's own
// observer hooks with a hand-built write-skew history (two transactions that
// each read what the other writes, then both commit) — a schedule strict 2PL
// can never produce. The certifier must flag an rw/rw serialization cycle;
// the process exits nonzero exactly like a real run with a violation, so CI
// asserts this command FAILS.
int RunSerialNegative() {
  SystemOptions opts;
  opts.seed = 1;
  opts.serial = true;
  System system(2, opts);
  SerializabilityCertifier& cert = system.serial();

  TxnId t1{.site = 0, .epoch = 1, .serial = 1};
  TxnId t2{.site = 1, .epoch = 1, .serial = 2};
  FileId f1{.volume = 0, .ino = 1};
  FileId f2{.volume = 1, .ino = 1};
  ByteRange r{0, 8};

  cert.OnTxnBegin(t1);
  cert.OnTxnBegin(t2);
  // Each reads the range the other will write (no writers installed yet, so
  // the reads are clean), then writes its own range.
  cert.OnServeRead("site0", f2, r, LockOwner{.pid = 1, .txn = t1}, {});
  cert.OnServeRead("site1", f1, r, LockOwner{.pid = 2, .txn = t2}, {});
  cert.OnStoreWrite("site0", f1, r, LockOwner{.pid = 1, .txn = t1});
  cert.OnStoreWrite("site1", f2, r, LockOwner{.pid = 2, .txn = t2});
  // Both commit: installing t1 adds rw t2->t1, installing t2 adds rw t1->t2,
  // closing the cycle at t2's commit point.
  cert.OnCommitPoint("site0", t1, {"site0", "site1"}, 1);
  cert.OnCommitPoint("site1", t2, {"site0", "site1"}, 1);

  int64_t violations = cert.Certify();
  bool cycle = cert.CountKind(SerialKind::kCycle) > 0;
  fprintf(stderr, "serial-negative: %lld violation(s), cycle=%s\n%s",
          static_cast<long long>(violations), cycle ? "yes" : "no",
          cert.Summary().c_str());
  // Detection is the expected outcome; report it as a failing exit status so
  // the CI stage can assert the certifier actually fires.
  return cycle ? 1 : 0;
}

void BM_FaultScenario(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunScenario(7, nullptr));
  }
}
BENCHMARK(BM_FaultScenario)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace locus

int main(int argc, char** argv) {
  bool serial_negative = false;
  int seeds = 0;
  for (int i = 1; i < argc;) {
    std::string arg = argv[i];
    if (arg == "--audit" || arg == "--serial" || arg == "--serial-negative" ||
        arg.rfind("--seeds=", 0) == 0) {
      locus::bench::g_audit = locus::bench::g_audit || arg == "--audit";
      locus::bench::g_serial = locus::bench::g_serial || arg == "--serial";
      serial_negative = serial_negative || arg == "--serial-negative";
      if (arg.rfind("--seeds=", 0) == 0) {
        seeds = std::stoi(arg.substr(8));
      }
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  if (serial_negative) {
    return locus::bench::RunSerialNegative();
  }
  if (seeds > 0) {
    return locus::bench::RunSeedSweep(seeds) ? 0 : 1;
  }
  std::string json_path = locus::bench::ExtractJsonPath(&argc, argv);
  locus::bench::JsonReport report;
  bool ok = locus::bench::RunTables(&report);
  report.WriteTo(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
