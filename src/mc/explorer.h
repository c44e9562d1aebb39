// Exploration strategies over the scenario's decision tree.
//
// Three searchers, as in the stateless model-checking literature:
//   - ExhaustiveDfs: depth-first enumeration of same-time event orderings by
//     re-execution, with a persistent-set partial-order reduction — when every
//     tied event is message traffic, only the orderings within the first
//     option's destination-site group are branched (deliveries to different
//     sites commute in this model; their relative order is explored at later
//     consultations where they actually tie with same-site work).
//   - PctSampler: randomized priority schedules (PCT) for configurations too
//     large to enumerate; each sample is reproducible from its recorded
//     decision sequence, not from the RNG.
//   - CrashSweep: enumerates every (crash point x site) occurrence a
//     reference run encounters and re-runs the scenario crashing at each.
//
// All strategies stop at the first oracle violation and return it as a
// replayable CounterexampleTrace.

#ifndef SRC_MC_EXPLORER_H_
#define SRC_MC_EXPLORER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/mc/counterexample.h"
#include "src/mc/policy.h"
#include "src/mc/scenario.h"

namespace locus {
namespace mc {

struct ExploreStats {
  uint64_t runs = 0;
  uint64_t max_decisions = 0;      // Longest decision sequence seen.
  uint64_t branch_points = 0;      // Nodes with >1 candidate after reduction.
};

struct ExploreResult {
  ExploreStats stats;
  std::optional<CounterexampleTrace> counterexample;
  // True when the DFS covered its entire (reduced) tree within budget.
  bool exhausted = false;
};

// Builds a replayable trace from a finished run's policy recordings.
CounterexampleTrace TraceFromRun(const ScenarioConfig& config, const GuidedPolicy& policy,
                                 const RunResult& result);

struct DfsOptions {
  uint64_t max_runs = 20000;
  // Consultations beyond this index are not branched (tail of the run —
  // recovery and audit reads — is order-insensitive for the oracle).
  uint64_t max_branch_depth = 4000;
  bool partial_order_reduction = true;
};

ExploreResult ExhaustiveDfs(const ScenarioConfig& config, const DfsOptions& options);

struct PctOptions {
  uint64_t seed = 1;
  int batch = 50;          // Number of random schedules to run.
  int depth = 3;           // PCT priority-change points per schedule.
  uint64_t horizon = 500;  // Consultation-index range for change points.
};

ExploreResult PctSampler(const ScenarioConfig& config, const PctOptions& options);

struct CrashSweepResult {
  ExploreStats stats;
  uint64_t crash_points = 0;  // Consultations the reference run encountered.
  // Every violating crash point (empty when the protocol survived them all).
  std::vector<CounterexampleTrace> counterexamples;
};

// `stop_at_first` returns after the first violation (shrinking workflows);
// otherwise the full sweep runs (CI coverage).
CrashSweepResult CrashSweep(const ScenarioConfig& config, bool stop_at_first = false);

}  // namespace mc
}  // namespace locus

#endif  // SRC_MC_EXPLORER_H_
