#include "src/workload/debit_credit.h"

#include <cstdio>

#include "src/sim/time.h"

namespace locus {

std::string DebitCreditWorkload::BranchPath(int branch) {
  return "/branch" + std::to_string(branch);
}

std::string DebitCreditWorkload::FormatBalance(int64_t value) {
  char buffer[kRecordBytes + 1];
  snprintf(buffer, sizeof(buffer), "%015lld\n", static_cast<long long>(value));
  return std::string(buffer, kRecordBytes);
}

int64_t DebitCreditWorkload::ParseBalance(const std::vector<uint8_t>& bytes) {
  return std::stoll(std::string(bytes.begin(), bytes.end()));
}

bool DebitCreditWorkload::Transfer(Syscalls& sys, int from_branch, int from_acct,
                                   int to_branch, int to_acct, int64_t amount) {
  if (sys.BeginTrans() != Err::kOk) {
    return false;
  }
  bool ok = true;
  auto from_fd = sys.Open(BranchPath(from_branch), {.read = true, .write = true});
  auto to_fd = sys.Open(BranchPath(to_branch), {.read = true, .write = true});
  ok = from_fd.ok() && to_fd.ok();
  int64_t from_balance = 0;
  int64_t to_balance = 0;
  if (ok) {
    sys.Seek(from_fd.value, from_acct * kRecordBytes);
    ok = sys.Lock(from_fd.value, kRecordBytes, LockOp::kExclusive).err == Err::kOk;
  }
  if (ok) {
    auto data = sys.Read(from_fd.value, kRecordBytes);
    ok = data.ok();
    if (ok) {
      from_balance = ParseBalance(data.value);
    }
  }
  if (ok) {
    sys.Seek(to_fd.value, to_acct * kRecordBytes);
    ok = sys.Lock(to_fd.value, kRecordBytes, LockOp::kExclusive).err == Err::kOk;
  }
  if (ok) {
    auto data = sys.Read(to_fd.value, kRecordBytes);
    ok = data.ok();
    if (ok) {
      to_balance = ParseBalance(data.value);
    }
  }
  if (ok) {
    sys.Seek(from_fd.value, from_acct * kRecordBytes);
    std::string record = FormatBalance(from_balance - amount);
    ok = sys.Write(from_fd.value, {record.begin(), record.end()}) == Err::kOk;
  }
  if (ok) {
    sys.Seek(to_fd.value, to_acct * kRecordBytes);
    std::string record = FormatBalance(to_balance + amount);
    ok = sys.Write(to_fd.value, {record.begin(), record.end()}) == Err::kOk;
  }
  if (from_fd.ok()) {
    sys.Close(from_fd.value);
  }
  if (to_fd.ok()) {
    sys.Close(to_fd.value);
  }
  if (!ok) {
    if (sys.InTransaction()) {
      sys.AbortTrans();
    }
    return false;
  }
  return sys.EndTrans() == Err::kOk;
}

DebitCreditResults DebitCreditWorkload::Execute() {
  const DebitCreditConfig& cfg = config_;
  results_ = DebitCreditResults{};
  results_.expected_total = static_cast<int64_t>(cfg.branches) * cfg.accounts_per_branch *
                            cfg.initial_balance;
  const int sites = system_->site_count();
  SimTime started = 0;
  SimTime audited_at = 0;

  system_->Spawn(0, "dc-driver", [&](Syscalls& sys) {
    // Setup: one branch file per branch, stored at branch % sites.
    for (int b = 0; b < cfg.branches; ++b) {
      sys.Fork(b % sites, [&, b](Syscalls& child) {
        child.Creat(BranchPath(b), cfg.replication);
        auto fd = child.Open(BranchPath(b), {.read = true, .write = true});
        if (!fd.ok()) {
          return;
        }
        for (int a = 0; a < cfg.accounts_per_branch; ++a) {
          child.WriteString(fd.value, FormatBalance(cfg.initial_balance));
        }
        child.Close(fd.value);
      });
    }
    sys.WaitChildren();
    started = sys.system().sim().Now();

    for (int t = 0; t < cfg.tellers; ++t) {
      sys.Fork(t % sites, [&, t](Syscalls& teller) {
        Rng rng(cfg.seed * 7919 + t);
        for (int i = 0; i < cfg.transfers_per_teller; ++i) {
          int from_branch = static_cast<int>(rng.Below(cfg.branches));
          int to_branch = rng.Chance(cfg.local_fraction)
                              ? from_branch
                              : static_cast<int>(rng.Below(cfg.branches));
          int from_acct = static_cast<int>(rng.Below(cfg.accounts_per_branch));
          int to_acct = static_cast<int>(rng.Below(cfg.accounts_per_branch));
          if (from_branch == to_branch && from_acct == to_acct) {
            continue;  // A self-transfer is a no-op, not a transaction.
          }
          int64_t amount = rng.Range(1, 50);
          for (int attempt = 0; attempt < cfg.max_attempts; ++attempt) {
            if (Transfer(teller, from_branch, from_acct, to_branch, to_acct, amount)) {
              ++results_.committed;
              break;
            }
            ++results_.aborted_attempts;
            teller.Compute(Milliseconds(15 * (attempt + 1)));
          }
          teller.Compute(rng.Range(cfg.think_min, cfg.think_max));
        }
      });
    }
    sys.WaitChildren();
    sys.Compute(Seconds(3));  // Drain asynchronous phase two.

    // Audit with retries (retained locks of just-committed transactions).
    int64_t total = 0;
    bool complete = true;
    for (int b = 0; b < cfg.branches; ++b) {
      bool branch_read = false;
      for (int attempt = 0; attempt < 50; ++attempt) {
        auto fd = sys.Open(BranchPath(b), {});
        if (!fd.ok()) {
          sys.Compute(Milliseconds(200));
          continue;
        }
        int64_t branch_total = 0;
        bool ok = true;
        for (int a = 0; a < cfg.accounts_per_branch && ok; ++a) {
          auto data = sys.Read(fd.value, kRecordBytes);
          ok = data.ok() && data.value.size() == static_cast<size_t>(kRecordBytes);
          if (ok) {
            branch_total += ParseBalance(data.value);
          }
        }
        sys.Close(fd.value);
        if (ok) {
          total += branch_total;
          branch_read = true;
          break;
        }
        sys.Compute(Milliseconds(200));
      }
      complete = complete && branch_read;
    }
    results_.audited_total = total;
    results_.audit_complete = complete;
    audited_at = sys.system().sim().Now();
    // The workload is over: the detector exits after its current poll, and
    // the run ends once that traffic drains.
    system_->StopDaemons();
  });

  system_->StartDeadlockDetector(0, Milliseconds(150));
  system_->RunFor(Seconds(3600));  // A bound; the run quiesces long before.
  results_.makespan = audited_at > started ? audited_at - started : 0;
  // Note the registry split: net.messages lives in the Network's own
  // registry, form.log_forces in the System's.
  results_.messages = system_->net().stats().Get("net.messages");
  results_.log_forces = system_->stats().Get("form.log_forces");
  return results_;
}

}  // namespace locus
