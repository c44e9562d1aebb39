// A reusable debit/credit (TP1-style) workload driver.
//
// The paper motivates OS-level transactions with exactly this application
// class: "an environment composed of a substantial number of relatively
// small machines ... performing database-oriented operations" (section 1).
// The driver creates one fixed-width account file per branch (one branch per
// site), runs concurrent teller processes issuing transfer transactions with
// retries on conflict/deadlock aborts, and audits conservation at the end.
// Used by the scaling bench and by integration tests.

#ifndef SRC_WORKLOAD_DEBIT_CREDIT_H_
#define SRC_WORKLOAD_DEBIT_CREDIT_H_

#include <string>
#include <vector>

#include "src/locus/system.h"

namespace locus {

struct DebitCreditConfig {
  int branches = 2;              // One account file per branch, branch b at site b % sites.
  int replication = 1;           // Replicas per branch file (chaos bench runs with >1).
  int accounts_per_branch = 8;
  int64_t initial_balance = 1000;
  int tellers = 4;
  int transfers_per_teller = 10;
  uint64_t seed = 1;
  int max_attempts = 6;          // Retries after conflict/deadlock aborts.
  SimTime think_min = Milliseconds(1);
  SimTime think_max = Milliseconds(40);
  // Fraction of transfers forced to stay within one branch (local txns).
  double local_fraction = 0.0;
};

struct DebitCreditResults {
  int committed = 0;
  int aborted_attempts = 0;
  int64_t audited_total = 0;
  int64_t expected_total = 0;
  // False if some branch stayed unreadable through every audit attempt
  // (e.g. records pinned by an in-doubt transaction whose coordinator is
  // permanently gone — the classic two-phase-commit blocking window). Then
  // audited_total under-counts and says nothing about conservation.
  bool audit_complete = false;
  SimTime makespan = 0;          // Virtual time from first teller to audit.
  // Run totals, setup through the end of the run: wire messages
  // ("net.messages") and log forces ("form.log_forces").
  int64_t messages = 0;
  int64_t log_forces = 0;
  bool conserved() const { return audit_complete && audited_total == expected_total; }
  double throughput_tps() const {
    return makespan <= 0 ? 0.0
                         : static_cast<double>(committed) / (ToMilliseconds(makespan) / 1000.0);
  }
  double messages_per_txn() const { return PerCommit(messages); }
  double log_forces_per_txn() const { return PerCommit(log_forces); }

 private:
  double PerCommit(int64_t total) const {
    return committed == 0 ? 0.0 : static_cast<double>(total) / committed;
  }
};

class DebitCreditWorkload {
 public:
  static constexpr int kRecordBytes = 16;

  DebitCreditWorkload(System* system, DebitCreditConfig config)
      : system_(system), config_(config) {}

  // Creates the branch files, runs the tellers to completion, audits, and
  // returns the results. Drives the simulation internally; the run ends when
  // it quiesces after the audit (at most an hour of virtual time).
  DebitCreditResults Execute();

  static std::string BranchPath(int branch);
  static std::string FormatBalance(int64_t value);
  static int64_t ParseBalance(const std::vector<uint8_t>& bytes);

 private:
  // One transfer transaction; returns true on commit.
  bool Transfer(Syscalls& sys, int from_branch, int from_acct, int to_branch, int to_acct,
                int64_t amount);

  System* system_;
  DebitCreditConfig config_;
  DebitCreditResults results_;
};

}  // namespace locus

#endif  // SRC_WORKLOAD_DEBIT_CREDIT_H_
