// Tests for the RPC formation subsystem (src/form): the formation-off
// bit-identity guarantee, deterministic batching under fixed seeds, the
// end-to-end message/force reductions with auditing on, and the
// drain-watchdog's detection of a stranded formation queue.

#include <gtest/gtest.h>

#include <tuple>

#include "src/form/formation.h"
#include "src/locus/system.h"
#include "src/workload/debit_credit.h"

namespace locus {
namespace {

// The anchor scenario every formation test runs: the 6-site debit/credit
// workload whose formation-off numbers are pinned below.
DebitCreditConfig AnchorConfig() {
  DebitCreditConfig config;
  config.branches = 6;
  config.accounts_per_branch = 16;
  config.tellers = 18;
  config.transfers_per_teller = 8;
  config.seed = 42;
  return config;
}

DebitCreditResults RunAnchor(const SystemOptions& options) {
  System system(6, options);
  DebitCreditWorkload workload(&system, AnchorConfig());
  DebitCreditResults results = workload.Execute();
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
  return results;
}

// With formation off (the default), the subsystem must be invisible: the
// anchor scenario reproduces the exact commit count and makespan pinned
// below (re-pinned only by changes that move virtual results on purpose). A
// single reordered or extra event moves the makespan, so this pins
// bit-identical event order, not just equal totals.
TEST(Formation, OffIsBitIdenticalToPreFormationRun) {
  SystemOptions options;
  options.seed = 42;
  ASSERT_FALSE(options.formation);
  DebitCreditResults results = RunAnchor(options);
  EXPECT_TRUE(results.conserved());
  EXPECT_EQ(results.committed, 142);
  EXPECT_EQ(results.makespan, Microseconds(10615769));  // 10615.8 ms
}

// The trace echo is output only: the anchor run with it on prints trace
// lines yet reproduces the same commits, makespan and every counter.
TEST(Formation, TraceEchoNeverChangesTheRun) {
  auto run = [](bool echo) {
    SystemOptions options;
    options.seed = 42;
    System system(6, options);
    system.sim().set_trace_echo(echo);
    DebitCreditResults r = DebitCreditWorkload(&system, AnchorConfig()).Execute();
    EXPECT_EQ(r.committed, 142);
    EXPECT_EQ(r.makespan, Microseconds(10615769));
    return std::make_tuple(r.committed, r.makespan, system.stats().counters(),
                           system.net().stats().counters());
  };
  testing::internal::CaptureStderr();
  auto echoed = run(true);
  const std::string text = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(echoed, run(false));
}

// Formation on is still a deterministic simulation: two runs with the same
// seed agree on every observable, and a different seed produces a different
// schedule (guarding against the comparison being vacuous).
TEST(Formation, BatchingIsDeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    SystemOptions options;
    options.seed = seed;
    options.formation = true;
    System system(6, options);
    DebitCreditConfig config = AnchorConfig();
    config.seed = seed;  // The workload seed shapes think times and routing.
    DebitCreditWorkload workload(&system, config);
    DebitCreditResults r = workload.Execute();
    EXPECT_EQ(system.sim().blocked_process_count(), 0);
    return std::make_tuple(r.committed, r.aborted_attempts, r.audited_total, r.makespan);
  };
  auto a = run(42);
  auto b = run(42);
  EXPECT_EQ(a, b);
  auto c = run(7);
  EXPECT_NE(std::get<3>(a), std::get<3>(c));
}

// Formation on, auditor on: money is conserved, the protocol auditor stays
// clean, messages actually coalesced into batches, and the section 4.3
// fusions (lock-fetch piggybacking, prefetch consumption) fired.
TEST(Formation, OnConservesMoneyWithAuditorClean) {
  SystemOptions options;
  options.seed = 42;
  options.formation = true;
  options.audit = true;
  System system(6, options);
  DebitCreditWorkload workload(&system, AnchorConfig());
  DebitCreditResults results = workload.Execute();

  EXPECT_TRUE(results.conserved());
  EXPECT_GT(results.committed, 0);
  EXPECT_GT(system.stats().Get("form.batches"), 0);
  EXPECT_GT(system.stats().Get("form.batch_messages"), system.stats().Get("form.batches"));
  EXPECT_GT(system.stats().Get("form.lock_fetches"), 0);
  EXPECT_GT(system.stats().Get("form.prefetch_hits"), 0);
  EXPECT_GT(system.stats().Get("audit.checks"), 0);
  EXPECT_EQ(system.stats().Get("audit.violations"), 0);
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
  EXPECT_FALSE(system.sim().drain_watchdog_tripped());
}

// The whole point of the subsystem: at the same site count, formation drives
// messages per transaction and log forces per transaction down (>= 25% each
// per the acceptance bar; asserted at 20% here to leave noise margin for
// future calibration changes) without losing a single commit.
TEST(Formation, ReducesMessagesAndForcesPerTxn) {
  auto run = [](bool formation) {
    SystemOptions options;
    options.seed = 42;
    options.formation = formation;
    System system(6, options);
    DebitCreditWorkload workload(&system, AnchorConfig());
    DebitCreditResults results = workload.Execute();
    EXPECT_TRUE(results.conserved());
    return results;
  };
  DebitCreditResults off = run(false);
  DebitCreditResults on = run(true);
  EXPECT_EQ(off.committed, on.committed);
  ASSERT_GT(off.messages_per_txn(), 0.0);
  ASSERT_GT(off.log_forces_per_txn(), 0.0);
  EXPECT_LT(on.messages_per_txn(), off.messages_per_txn() * 0.8)
      << "messages/txn reduced < 20%";
  EXPECT_LT(on.log_forces_per_txn(), off.log_forces_per_txn() * 0.8)
      << "log forces/txn reduced < 20%";
}

// A non-empty formation queue with no armed flush timer can never drain —
// the classic lost wake-up. The drain watchdog must notice it when the event
// queue empties, exactly as it reports forever-blocked processes.
TEST(Formation, DrainWatchdogCatchesStrandedQueue) {
  SystemOptions options;
  options.formation = true;
  System system(2, options);
  system.sim().set_drain_watchdog(DrainWatchdog::kReport);

  Message stranded;
  stranded.type = kFormBatchMsgType;  // Any type; it never leaves the queue.
  stranded.size_bytes = 16;
  system.kernel(0).form().TestInjectWithoutTimer(1, stranded);

  system.Run();
  EXPECT_TRUE(system.sim().drain_watchdog_tripped());
}

// The same run with the queue properly flushed (or empty) must not trip.
TEST(Formation, DrainWatchdogQuietOnCleanRun) {
  SystemOptions options;
  options.formation = true;
  System system(2, options);
  system.sim().set_drain_watchdog(DrainWatchdog::kReport);
  system.Spawn(0, "w", [](Syscalls& sys) {
    ASSERT_EQ(sys.Creat("/f", 1), Err::kOk);
  });
  system.Run();
  EXPECT_FALSE(system.sim().drain_watchdog_tripped());
}

}  // namespace
}  // namespace locus
