#include "src/mc/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/locus/system.h"
#include "src/workload/debit_credit.h"

namespace locus {
namespace mc {

namespace {

constexpr int kRecordBytes = DebitCreditWorkload::kRecordBytes;
// 2^k subset enumeration cap for the atomicity oracle; beyond this many
// unknown-outcome transfers the check degrades to conservation only.
constexpr int kMaxUnknownSubset = 16;

std::string BranchPath(int branch) { return DebitCreditWorkload::BranchPath(branch); }

// FNV-1a, the repo's standing digest idiom (see src/audit pool checksums).
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (v & 0xff)) * 1099511628211ULL;
      v >>= 8;
    }
  }
  void Mix(const std::string& s) {
    for (unsigned char c : s) {
      h = (h ^ c) * 1099511628211ULL;
    }
  }
};

// One transfer under canonical lock order; returns the outcome. Runs in the
// teller's process context and must not block forever: every wait it enters
// is resolved by a lock release, an RPC completion, or site recovery.
TransferOutcome DoTransfer(Syscalls& sys, const TransferPlan& t) {
  if (sys.BeginTrans() != Err::kOk) {
    return TransferOutcome::kAborted;
  }
  // Deadlock freedom: all tellers lock accounts in global (branch, acct)
  // order, so lock waits form no cycle and no deadlock detector is needed.
  bool from_first = std::make_pair(t.from_branch, t.from_acct) <
                    std::make_pair(t.to_branch, t.to_acct);
  struct Leg {
    int branch, acct;
    int64_t delta;
  };
  Leg first{from_first ? t.from_branch : t.to_branch,
            from_first ? t.from_acct : t.to_acct,
            from_first ? -t.amount : t.amount};
  Leg second{from_first ? t.to_branch : t.from_branch,
             from_first ? t.to_acct : t.from_acct,
             from_first ? t.amount : -t.amount};
  bool ok = true;
  for (const Leg& leg : {first, second}) {
    int fd = -1;
    auto opened = sys.Open(BranchPath(leg.branch), {.read = true, .write = true});
    ok = opened.ok();
    if (ok) {
      fd = opened.value;
      sys.Seek(fd, leg.acct * kRecordBytes);
      ok = sys.Lock(fd, kRecordBytes, LockOp::kExclusive).err == Err::kOk;
    }
    int64_t balance = 0;
    if (ok) {
      auto data = sys.Read(fd, kRecordBytes);
      ok = data.ok() && data.value.size() == static_cast<size_t>(kRecordBytes);
      if (ok) {
        balance = DebitCreditWorkload::ParseBalance(data.value);
      }
    }
    if (ok) {
      sys.Seek(fd, leg.acct * kRecordBytes);
      std::string record = DebitCreditWorkload::FormatBalance(balance + leg.delta);
      ok = sys.Write(fd, {record.begin(), record.end()}) == Err::kOk;
    }
    if (fd >= 0) {
      sys.Close(fd);
    }
    if (!ok) {
      break;
    }
  }
  if (!ok) {
    if (sys.InTransaction()) {
      sys.AbortTrans();
    }
    return TransferOutcome::kAborted;
  }
  return sys.EndTrans() == Err::kOk ? TransferOutcome::kCommitted
                                    : TransferOutcome::kAborted;
}

// Per-account deltas a set of applied transfers would produce.
std::vector<int64_t> DeltasOf(const ScenarioConfig& cfg,
                              const std::vector<TransferPlan>& plan,
                              const std::vector<bool>& applied) {
  std::vector<int64_t> deltas(cfg.sites * cfg.accounts_per_branch, 0);
  for (size_t i = 0; i < plan.size(); ++i) {
    if (!applied[i]) {
      continue;
    }
    deltas[plan[i].from_branch * cfg.accounts_per_branch + plan[i].from_acct] -=
        plan[i].amount;
    deltas[plan[i].to_branch * cfg.accounts_per_branch + plan[i].to_acct] +=
        plan[i].amount;
  }
  return deltas;
}

}  // namespace

std::vector<TransferPlan> MakePlan(const ScenarioConfig& config) {
  std::vector<TransferPlan> plan;
  for (int t = 0; t < config.tellers; ++t) {
    Rng rng(config.seed * 7919 + t);
    for (int i = 0; i < config.transfers_per_teller; ++i) {
      TransferPlan p;
      p.teller = t;
      p.from_branch = static_cast<int>(rng.Below(config.sites));
      p.from_acct = static_cast<int>(rng.Below(config.accounts_per_branch));
      do {
        p.to_branch = static_cast<int>(rng.Below(config.sites));
        p.to_acct = static_cast<int>(rng.Below(config.accounts_per_branch));
      } while (p.to_branch == p.from_branch && p.to_acct == p.from_acct);
      p.amount = rng.Range(1, 100);
      plan.push_back(p);
    }
  }
  return plan;
}

RunResult RunScenario(const ScenarioConfig& cfg, GuidedPolicy* policy) {
  SystemOptions opts;
  opts.seed = cfg.seed;
  opts.audit = true;
  opts.serial = true;
  opts.test_disable_commit_marking_guard = cfg.disable_commit_guard;
  opts.formation = cfg.formation;
  if (cfg.disk_latency_us > 0) {
    opts.disk_latency = Microseconds(cfg.disk_latency_us);
  }
  System system(cfg.sites, opts);
  // LOCUS_MC_TRACE=1 echoes the kernel trace to stderr when debugging a
  // single replay.
  system.sim().set_trace_echo(getenv("LOCUS_MC_TRACE") != nullptr);
  if (policy != nullptr) {
    policy->tie_window = Microseconds(cfg.tie_window_us);
  }
  system.sim().set_schedule_policy(policy);

  RunResult result;
  const std::vector<TransferPlan> plan = MakePlan(cfg);
  result.outcomes.assign(plan.size(), TransferOutcome::kNotStarted);

  // Phase A: create one branch file per site with the initial balances.
  for (int b = 0; b < cfg.sites; ++b) {
    system.Spawn(b, "mc-setup", [&, b](Syscalls& sys) {
      sys.Creat(BranchPath(b), 1);
      auto fd = sys.Open(BranchPath(b), {.read = true, .write = true});
      if (!fd.ok()) {
        return;
      }
      for (int a = 0; a < cfg.accounts_per_branch; ++a) {
        sys.WriteString(fd.value, DebitCreditWorkload::FormatBalance(cfg.initial_balance));
      }
      sys.Close(fd.value);
    });
  }
  system.Run();

  // Phase B: tellers execute the fixed plan. Outcome slots flip to kUnknown
  // just before each BeginTrans so a teller killed by an injected crash
  // leaves exactly its in-flight transfer undetermined.
  for (int t = 0; t < cfg.tellers; ++t) {
    system.Spawn(t % cfg.sites, "mc-teller", [&, t](Syscalls& sys) {
      for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].teller != t) {
          continue;
        }
        result.outcomes[i] = TransferOutcome::kUnknown;
        result.outcomes[i] = DoTransfer(sys, plan[i]);
      }
    });
  }
  system.Run();
  // Blocked processes at this drain are expected only while an injected
  // crash leaves a participant in doubt (classic 2PC blocking); recovery
  // below resolves them. With no crash they are a lost wake-up.
  bool blocked_without_crash =
      system.sim().blocked_process_count() > 0 &&
      (policy == nullptr || policy->crash_fired_at < 0);

  // Phase C: recovery to quiescence. Any site an injected crash took down
  // reboots; its recovery (and the coordinator-side re-drive) must resolve
  // every in-doubt transaction and wake every blocked teller.
  system.sim().set_drain_watchdog(DrainWatchdog::kReport);
  for (SiteId s = 0; s < static_cast<SiteId>(cfg.sites); ++s) {
    if (!system.net().IsAlive(s)) {
      system.RebootSite(s);
    }
  }
  system.Run();

  // Phase D: read back every account (non-transactional reads, with retries
  // while just-committed transactions still retain locks).
  bool read_complete = true;
  std::string read_failure;
  system.Spawn(0, "mc-audit", [&](Syscalls& sys) {
    for (int b = 0; b < cfg.sites; ++b) {
      bool branch_read = false;
      for (int attempt = 0; attempt < 50 && !branch_read; ++attempt) {
        auto fd = sys.Open(BranchPath(b), {});
        if (!fd.ok()) {
          read_failure = BranchPath(b) + ": open " + ErrName(fd.err);
          sys.Compute(Milliseconds(100));
          continue;
        }
        std::vector<int64_t> balances;
        bool ok = true;
        for (int a = 0; a < cfg.accounts_per_branch && ok; ++a) {
          auto data = sys.Read(fd.value, kRecordBytes);
          ok = data.ok() && data.value.size() == static_cast<size_t>(kRecordBytes);
          if (ok) {
            balances.push_back(DebitCreditWorkload::ParseBalance(data.value));
          } else {
            read_failure = BranchPath(b) + ": read " +
                           (data.ok() ? "short" : ErrName(data.err));
          }
        }
        sys.Close(fd.value);
        if (ok) {
          result.final_balances.insert(result.final_balances.end(), balances.begin(),
                                       balances.end());
          branch_read = true;
        } else {
          sys.Compute(Milliseconds(100));
        }
      }
      read_complete = read_complete && branch_read;
    }
  });
  system.Run();
  system.sim().set_schedule_policy(nullptr);

  // ---- Oracle ----
  result.read_complete = read_complete &&
                         result.final_balances.size() ==
                             static_cast<size_t>(cfg.sites * cfg.accounts_per_branch);
  result.audit_violations = system.audit().violation_count();
  result.audit_clean = result.audit_violations == 0;
  if (!result.audit_clean) {
    result.audit_summary = system.audit().Summary();
  }
  // Terminal sweep: catches serialization cycles closed by edges recorded
  // after the participants' commit points.
  result.serial_violations = system.serial().Certify();
  result.serial_clean = result.serial_violations == 0;
  if (!result.serial_clean) {
    result.serial_summary = system.serial().Summary();
  }
  for (TransferOutcome o : result.outcomes) {
    result.committed += o == TransferOutcome::kCommitted;
    result.aborted += o == TransferOutcome::kAborted;
    result.unknown += o == TransferOutcome::kUnknown;
  }

  int64_t expected_total = static_cast<int64_t>(cfg.sites) * cfg.accounts_per_branch *
                           cfg.initial_balance;
  int64_t observed_total = 0;
  for (int64_t b : result.final_balances) {
    observed_total += b;
  }
  result.conserved = result.read_complete && observed_total == expected_total;

  // Atomicity + durability: observed per-account deltas must equal those of
  // all committed transfers plus some subset of the unknown ones.
  result.atomic = false;
  if (result.read_complete) {
    std::vector<int64_t> observed(cfg.sites * cfg.accounts_per_branch, 0);
    for (size_t i = 0; i < result.final_balances.size(); ++i) {
      observed[i] = result.final_balances[i] - cfg.initial_balance;
    }
    std::vector<size_t> unknowns;
    std::vector<bool> applied(plan.size(), false);
    for (size_t i = 0; i < plan.size(); ++i) {
      applied[i] = result.outcomes[i] == TransferOutcome::kCommitted;
      if (result.outcomes[i] == TransferOutcome::kUnknown) {
        unknowns.push_back(i);
      }
    }
    if (unknowns.size() > kMaxUnknownSubset) {
      result.atomic = result.conserved;  // Too many to enumerate; degrade.
    } else {
      for (uint64_t mask = 0; mask < (1ULL << unknowns.size()); ++mask) {
        for (size_t u = 0; u < unknowns.size(); ++u) {
          applied[unknowns[u]] = (mask >> u) & 1;
        }
        if (DeltasOf(cfg, plan, applied) == observed) {
          result.atomic = true;
          break;
        }
      }
    }
  }
  result.drained_clean = !blocked_without_crash &&
                         system.sim().blocked_process_count() == 0 &&
                         !system.sim().drain_watchdog_tripped();

  if (!result.audit_clean) {
    result.violation = AuditKindName(system.audit().violations()[0].kind);
    result.violation_detail = system.audit().violations()[0].ToString();
  } else if (!result.serial_clean) {
    result.violation = SerialKindName(system.serial().violations()[0].kind);
    result.violation_detail = system.serial().violations()[0].ToString();
  } else if (!result.read_complete) {
    result.violation = "unreadable";
    result.violation_detail = read_failure.empty()
                                  ? "some account stayed unreadable after recovery"
                                  : "still unreadable after recovery: " + read_failure;
  } else if (!result.conserved) {
    result.violation = "conservation";
    result.violation_detail = "total " + std::to_string(observed_total) + " != expected " +
                              std::to_string(expected_total);
  } else if (!result.atomic) {
    result.violation = "atomicity";
    result.violation_detail = "per-account deltas not explained by any all-or-nothing subset";
  } else if (!result.drained_clean) {
    result.violation = "blocked";
    result.violation_detail =
        std::to_string(system.sim().blocked_process_count()) + " process(es) blocked at drain";
  }

  Fnv digest;
  digest.Mix(static_cast<uint64_t>(system.sim().Now()));
  for (int64_t b : result.final_balances) {
    digest.Mix(static_cast<uint64_t>(b));
  }
  for (TransferOutcome o : result.outcomes) {
    digest.Mix(static_cast<uint64_t>(o));
  }
  digest.Mix(static_cast<uint64_t>(result.audit_violations));
  digest.Mix(static_cast<uint64_t>(result.serial_violations));
  digest.Mix(result.violation);
  char hex[17];
  snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest.h));
  result.digest = hex;
  return result;
}

}  // namespace mc
}  // namespace locus
