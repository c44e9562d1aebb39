// Tests for the schedule-space model checker (src/mc): default-policy
// bit-identity, rediscovery of the PR 3 commit-marking race through the test
// seam, counterexample replay determinism, and trace shrinking.
//
// The exploration counts of the scenarios scripts/ci.sh runs are pinned
// exactly: a change to the engine's event order (or to which events tie)
// reshapes the explored tree, and these counts are what would show it.

#include <gtest/gtest.h>

#include "src/mc/counterexample.h"
#include "src/mc/explorer.h"
#include "src/mc/policy.h"
#include "src/mc/scenario.h"
#include "src/mc/shrink.h"
#include "src/workload/debit_credit.h"

namespace locus {
namespace mc {
namespace {

// The decision-point layer must be invisible when no policy overrides a
// choice: a default GuidedPolicy (every consultation answers 0, the engine's
// historical seq order) replays the 6-site debit/credit workload
// bit-identically to a run with no policy installed at all.
TEST(McDefaultPolicy, BitIdenticalOnDebitCreditWorkload) {
  DebitCreditConfig config;
  config.branches = 6;
  config.tellers = 18;
  config.transfers_per_teller = 8;
  config.seed = 42;

  auto run = [&](GuidedPolicy* policy) {
    SystemOptions opts;
    opts.seed = config.seed;
    System system(6, opts);
    system.sim().set_schedule_policy(policy);
    DebitCreditWorkload workload(&system, config);
    DebitCreditResults results = workload.Execute();
    system.sim().set_schedule_policy(nullptr);
    return results;
  };

  DebitCreditResults bare = run(nullptr);
  GuidedPolicy policy;
  DebitCreditResults guided = run(&policy);

  EXPECT_GT(bare.committed, 0);
  EXPECT_TRUE(bare.conserved());
  EXPECT_EQ(bare.committed, guided.committed);
  EXPECT_EQ(bare.aborted_attempts, guided.aborted_attempts);
  EXPECT_EQ(bare.audited_total, guided.audited_total);
  EXPECT_EQ(bare.makespan, guided.makespan);
  // The policy really was consulted (ties exist), it just never deviated.
  EXPECT_GT(policy.decisions.size(), 0u);
  for (const Decision& d : policy.decisions) {
    EXPECT_EQ(d.chosen, 0u);
  }
}

// Scenario runs are deterministic under a fixed policy: same config, same
// digest, twice in a row.
TEST(McScenario, RunIsDeterministic) {
  ScenarioConfig config;
  config.sites = 3;
  config.tellers = 3;
  config.transfers_per_teller = 2;
  config.seed = 9;

  GuidedPolicy p1, p2;
  RunResult a = RunScenario(config, &p1);
  RunResult b = RunScenario(config, &p2);
  EXPECT_TRUE(a.ok()) << a.violation << ": " << a.violation_detail;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(p1.decisions.size(), p2.decisions.size());
  EXPECT_EQ(p1.crash_consults.size(), p2.crash_consults.size());
}

// With the commit-marking guard intact, sweeping a crash through every
// two-phase-commit protocol step of every site finds no violation: crashes
// may block progress temporarily (2PC in-doubt windows) but recovery always
// restores a consistent, fully readable state.
TEST(McCrashSweep, CleanWithGuardOn) {
  ScenarioConfig config;
  config.sites = 3;
  config.tellers = 2;
  config.transfers_per_teller = 1;
  config.seed = 5;
  config.disk_latency_us = 60000;

  CrashSweepResult sweep = CrashSweep(config);
  EXPECT_EQ(sweep.crash_points, 29u);
  EXPECT_EQ(sweep.stats.runs, 30u);
  EXPECT_TRUE(sweep.counterexamples.empty())
      << sweep.counterexamples.front().expect_violation;
}

// The checker rediscovers the PR 3 commit-marking race when the fix is
// toggled off through the test seam: a participant crash between the prepare
// reply and the commit mark lets the failure-driven abort cascade corrupt
// the prepared intentions mid-mark, and the auditor flags the commit point
// landing after the abort decision.
TEST(McCrashSweep, RediscoversCommitMarkingRaceThroughSeam) {
  ScenarioConfig config;
  config.sites = 3;
  config.tellers = 2;
  config.transfers_per_teller = 1;
  config.seed = 5;
  config.disk_latency_us = 60000;  // Lands failure detection inside the mark write.
  config.disable_commit_guard = true;

  CrashSweepResult sweep = CrashSweep(config);
  ASSERT_FALSE(sweep.counterexamples.empty());
  bool found_commit_after_abort = false;
  for (const CounterexampleTrace& cex : sweep.counterexamples) {
    found_commit_after_abort =
        found_commit_after_abort || cex.expect_violation == "commit-after-abort";
    EXPECT_TRUE(cex.crash.has_value());
  }
  EXPECT_TRUE(found_commit_after_abort);
}

// A stored counterexample replays bit-identically: running its decision
// sequence reproduces the same violation and the same run digest, every time.
TEST(McCounterexample, ReplayIsBitIdentical) {
  ScenarioConfig config;
  config.sites = 3;
  config.tellers = 2;
  config.transfers_per_teller = 1;
  config.seed = 5;
  config.disk_latency_us = 60000;
  config.disable_commit_guard = true;

  CrashSweepResult sweep = CrashSweep(config, /*stop_at_first=*/true);
  ASSERT_FALSE(sweep.counterexamples.empty());
  const CounterexampleTrace& trace = sweep.counterexamples.front();

  // Round-trip through the JSON serialization first.
  std::string error;
  auto parsed = CounterexampleTrace::FromJson(trace.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->expect_digest, trace.expect_digest);
  EXPECT_EQ(parsed->expect_violation, trace.expect_violation);
  EXPECT_EQ(parsed->choices, trace.choices);
  ASSERT_EQ(parsed->crash.has_value(), trace.crash.has_value());

  for (int replay = 0; replay < 2; ++replay) {
    GuidedPolicy policy;
    policy.prescribed = parsed->choices;
    policy.crash_ordinal = parsed->crash.has_value() ? parsed->crash->ordinal : -1;
    RunResult run = RunScenario(parsed->config, &policy);
    EXPECT_EQ(run.violation, parsed->expect_violation);
    EXPECT_EQ(run.digest, parsed->expect_digest);
  }
}

// The delta-debugging shrinker only ever emits traces that still violate,
// and the minimized trace replays to the same invariant class.
TEST(McShrink, MinimizedTraceStillViolates) {
  ScenarioConfig config;
  config.sites = 3;
  config.tellers = 2;
  config.transfers_per_teller = 1;
  config.seed = 5;
  config.disk_latency_us = 60000;
  config.disable_commit_guard = true;

  CrashSweepResult sweep = CrashSweep(config, /*stop_at_first=*/true);
  ASSERT_FALSE(sweep.counterexamples.empty());
  const CounterexampleTrace& trace = sweep.counterexamples.front();

  ShrinkResult shrunk = ShrinkTrace(trace);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_LE(shrunk.trace.choices.size(), trace.choices.size());
  EXPECT_EQ(shrunk.trace.expect_violation, trace.expect_violation);

  GuidedPolicy policy;
  policy.prescribed = shrunk.trace.choices;
  policy.crash_ordinal =
      shrunk.trace.crash.has_value() ? shrunk.trace.crash->ordinal : -1;
  RunResult run = RunScenario(shrunk.trace.config, &policy);
  EXPECT_EQ(run.violation, shrunk.trace.expect_violation);
  EXPECT_EQ(run.digest, shrunk.trace.expect_digest);
}

// Exhaustive DFS with the tie-widening window explores a non-trivial tree on
// the 2-site config and proves it clean; the persistent-set reduction prunes
// schedules without losing exhaustion.
TEST(McDfs, ExhaustsTwoSiteConfig) {
  ScenarioConfig config;
  config.sites = 2;
  config.tellers = 2;
  config.transfers_per_teller = 1;
  config.accounts_per_branch = 1;
  config.tie_window_us = 2000;

  DfsOptions with_por;
  ExploreResult reduced = ExhaustiveDfs(config, with_por);
  EXPECT_TRUE(reduced.exhausted);
  EXPECT_FALSE(reduced.counterexample.has_value());
  EXPECT_EQ(reduced.stats.runs, 16u);
  EXPECT_EQ(reduced.stats.branch_points, 15u);
  EXPECT_EQ(reduced.stats.max_decisions, 51u);

  DfsOptions no_por;
  no_por.partial_order_reduction = false;
  ExploreResult full = ExhaustiveDfs(config, no_por);
  EXPECT_TRUE(full.exhausted);
  EXPECT_FALSE(full.counterexample.has_value());
  // The reduction must prune runs, not add them.
  EXPECT_LT(reduced.stats.runs, full.stats.runs);
}

// PCT sampling with a fixed seed is reproducible and clean on the guarded
// system. The batch is the one scripts/ci.sh samples.
TEST(McPct, FixedSeedBatchIsCleanAndDeterministic) {
  ScenarioConfig config;
  config.sites = 3;
  config.tellers = 3;
  config.transfers_per_teller = 1;
  config.tie_window_us = 2000;

  PctOptions options;
  options.seed = 7;
  options.batch = 15;

  ExploreResult a = PctSampler(config, options);
  ExploreResult b = PctSampler(config, options);
  EXPECT_FALSE(a.counterexample.has_value());
  EXPECT_EQ(a.stats.runs, 15u);
  EXPECT_EQ(a.stats.max_decisions, 106u);
  EXPECT_EQ(a.stats.runs, b.stats.runs);
  EXPECT_EQ(a.stats.max_decisions, b.stats.max_decisions);
}

// With formation routing the 2PC/lock control messages through batch
// envelopes, the checker's tree gains kFormFlush decision points (flush
// timers racing the deliveries they defer). Exhaustive DFS over the widened
// 2-site config stays clean: no interleaving of enqueue, flush, and delivery
// breaks the oracle.
TEST(McFormation, DfsExhaustsWithFormationOn) {
  ScenarioConfig config;
  config.sites = 2;
  config.tellers = 2;
  config.transfers_per_teller = 1;
  config.accounts_per_branch = 1;
  config.tie_window_us = 2000;
  config.formation = true;

  ExploreResult result = ExhaustiveDfs(config, DfsOptions{});
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.stats.runs, 2u);
  EXPECT_EQ(result.stats.branch_points, 1u);
  EXPECT_EQ(result.stats.max_decisions, 49u);
}

// Crashing at every 2PC protocol step with formation on covers the new
// window the subsystem introduces: a site dying between batch enqueue and
// flush takes the queued prepares/commits with it. Recovery must still reach
// a consistent, fully readable state from every such point, with the
// protocol auditor clean.
TEST(McFormation, CrashSweepCleanWithFormationOn) {
  ScenarioConfig config;
  config.sites = 3;
  config.tellers = 2;
  config.transfers_per_teller = 1;
  config.seed = 5;
  config.disk_latency_us = 60000;
  config.formation = true;

  CrashSweepResult sweep = CrashSweep(config);
  EXPECT_EQ(sweep.crash_points, 29u);
  EXPECT_EQ(sweep.stats.runs, 30u);
  EXPECT_TRUE(sweep.counterexamples.empty())
      << sweep.counterexamples.front().expect_violation << ": "
      << sweep.counterexamples.front().choices.size();
}

}  // namespace
}  // namespace mc
}  // namespace locus
