// Tests for the debit/credit workload driver, doubling as another
// conservation property check on the full system.

#include "src/workload/debit_credit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

namespace locus {
namespace {

TEST(DebitCreditWorkload, HelpersRoundTrip) {
  std::string record = DebitCreditWorkload::FormatBalance(12345);
  ASSERT_EQ(record.size(), static_cast<size_t>(DebitCreditWorkload::kRecordBytes));
  EXPECT_EQ(DebitCreditWorkload::ParseBalance({record.begin(), record.end()}), 12345);
  std::string negative = DebitCreditWorkload::FormatBalance(-7);
  EXPECT_EQ(DebitCreditWorkload::ParseBalance({negative.begin(), negative.end()}), -7);
  EXPECT_EQ(DebitCreditWorkload::BranchPath(3), "/branch3");
}

TEST(DebitCreditWorkload, ConservesMoneyTwoSites) {
  System system(2, SystemOptions{.seed = 7});
  DebitCreditConfig config;
  config.branches = 2;
  config.accounts_per_branch = 6;
  config.tellers = 4;
  config.transfers_per_teller = 6;
  config.seed = 7;
  DebitCreditWorkload workload(&system, config);
  DebitCreditResults results = workload.Execute();
  EXPECT_GT(results.committed, 0);
  EXPECT_TRUE(results.conserved())
      << results.audited_total << " != " << results.expected_total;
  EXPECT_GT(results.makespan, 0);
  EXPECT_GT(results.throughput_tps(), 0.0);
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
}

TEST(DebitCreditWorkload, FullyLocalModeStaysWithinBranch) {
  System system(2, SystemOptions{.seed = 9});
  DebitCreditConfig config;
  config.branches = 2;
  config.accounts_per_branch = 6;
  config.tellers = 2;
  config.transfers_per_teller = 6;
  config.local_fraction = 1.0;
  config.seed = 9;
  DebitCreditWorkload workload(&system, config);
  DebitCreditResults results = workload.Execute();
  EXPECT_TRUE(results.conserved());
  // Fully local transfers commit via single-participant two-phase commit;
  // per-branch totals are individually conserved too.
  // (Total conservation implies it here since transfers never cross.)
}

TEST(DebitCreditWorkload, DeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    System system(2, SystemOptions{.seed = seed});
    DebitCreditConfig config;
    config.branches = 2;
    config.accounts_per_branch = 4;
    config.tellers = 3;
    config.transfers_per_teller = 5;
    config.seed = seed;
    DebitCreditWorkload workload(&system, config);
    DebitCreditResults r = workload.Execute();
    return std::make_tuple(r.committed, r.aborted_attempts, r.makespan);
  };
  EXPECT_EQ(run(3), run(3));
}

// Peaks of the engine's per-run state, sampled while a workload runs.
struct EnginePeaks {
  int live_processes = 0;
  int idle_fibers = 0;
  size_t pending_calls = 0;
  size_t formation_queued = 0;
  size_t pending_events = 0;
};

// Runs one debit/credit workload on `system`, sampling every 10 ms of
// virtual time until no process is left. Sampling only reads, so the run is
// the one it would be without it.
EnginePeaks RunSampled(System& system, const DebitCreditConfig& config) {
  EnginePeaks peaks;
  Simulation& sim = system.sim();
  std::function<void()> sample = [&] {
    peaks.live_processes = std::max(peaks.live_processes, sim.live_process_count());
    peaks.idle_fibers = std::max(peaks.idle_fibers, sim.idle_fiber_count());
    peaks.pending_calls = std::max(peaks.pending_calls, system.net().pending_call_count());
    peaks.pending_events = std::max(peaks.pending_events, sim.pending_event_count());
    for (SiteId s = 0; s < system.site_count(); ++s) {
      peaks.formation_queued =
          std::max(peaks.formation_queued, system.kernel(s).form().queued_count());
    }
    if (sim.live_process_count() > 0) {
      sim.Schedule(Milliseconds(10), sample);
    }
  };
  // The workload's driver is spawned at the current time.
  sim.Schedule(Milliseconds(1), sample);
  DebitCreditWorkload workload(&system, config);
  DebitCreditResults results = workload.Execute();
  EXPECT_GT(results.committed, 0);
  EXPECT_TRUE(results.conserved()) << results.audited_total << " != " << results.expected_total;
  EXPECT_EQ(sim.live_process_count(), 0);
  EXPECT_EQ(system.net().pending_call_count(), 0u);
  return peaks;
}

// A long run keeps the engine's state as small as a short one: one
// Simulation runs a 16-site debit/credit for N transfers, then for 10N
// (the second run's setup rewrites the same branch files), and the peaks of
// live process records, idle fibers, pending calls, formation queues and
// queued events stay within bounds set by the teller count alone, the same
// for both.
TEST(DebitCreditWorkload, LongRunKeepsEngineStateBounded) {
  System system(16, SystemOptions{.seed = 5, .formation = true});
  DebitCreditConfig config;
  config.branches = 16;
  config.accounts_per_branch = 64;  // One page per branch file.
  config.tellers = 32;
  config.seed = 5;
  constexpr int kTransfersPerTeller = 4;
  // One bound for both runs, from the concurrency alone: each teller has
  // at most a handful of requests, and so processes and calls, in flight.
  // Seed 5 peaks at 121 and 141 live processes, 82 and 94 pending calls,
  // and 4 and 15 queued messages. Queued event keys, cancelled time-outs'
  // tombstones included, peak at 204 and 272; their bound is twice the
  // others', for tombstones can be as many as the live keys before the heap
  // is rebuilt without them.
  const int bound = 8 * config.tellers;
  for (int scale : {1, 10}) {
    config.transfers_per_teller = kTransfersPerTeller * scale;
    SCOPED_TRACE("run of " + std::to_string(config.tellers * config.transfers_per_teller) +
                 " transfers");
    EnginePeaks peaks = RunSampled(system, config);
    EXPECT_LE(peaks.live_processes, bound);
    EXPECT_LE(peaks.idle_fibers, bound);
    EXPECT_LE(peaks.pending_calls, static_cast<size_t>(bound));
    EXPECT_LE(peaks.formation_queued, static_cast<size_t>(2 * config.tellers));
    EXPECT_LE(peaks.pending_events, static_cast<size_t>(2 * bound));
  }
  EXPECT_EQ(system.sim().blocked_process_count(), 0);
}

}  // namespace
}  // namespace locus
