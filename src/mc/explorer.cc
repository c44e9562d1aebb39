#include "src/mc/explorer.h"

#include <algorithm>

#include "src/locus/kernel.h"

namespace locus {
namespace mc {

namespace {

// The events a tie window widens over, less flush deadlines: those branch at
// their own tie-window consultation in the engine; the DFS frontier treats
// them as internal here.
bool IsNetworkEvent(const EventInfo& info) {
  return TieWindowWidens(info.tag) && info.tag != EventTag::kFormFlush;
}

// Candidates for one tie. The search space is the message-passing model
// (MODIST-style): only network events — delivery, reply, timeout, topology —
// are branched; ties involving process wake-ups or internal timers keep the
// engine's deterministic order (intra-site process scheduling is part of the
// model, not the explored nondeterminism). On an all-network tie the
// persistent-set reduction branches only the first option's destination-site
// group: events targeting different sites are independent (they mutate
// disjoint kernels; shared state is reached only through further messages,
// which the search orders at their own consultations).
std::vector<uint32_t> Candidates(const std::vector<EventInfo>& options, bool por) {
  std::vector<uint32_t> out;
  bool all_network = true;
  for (const EventInfo& info : options) {
    all_network = all_network && IsNetworkEvent(info);
  }
  if (!all_network) {
    out.push_back(0);
    return out;
  }
  if (!por) {
    for (uint32_t i = 0; i < options.size(); ++i) {
      out.push_back(i);
    }
    return out;
  }
  int32_t group = ActorSite(options[0]);
  for (uint32_t i = 0; i < options.size(); ++i) {
    if (ActorSite(options[i]) == group) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace

CounterexampleTrace TraceFromRun(const ScenarioConfig& config, const GuidedPolicy& policy,
                                 const RunResult& result) {
  CounterexampleTrace trace;
  trace.config = config;
  for (size_t i = 0; i < policy.decisions.size(); ++i) {
    const Decision& d = policy.decisions[i];
    if (d.chosen != 0) {
      trace.choices[i] = static_cast<uint32_t>(d.chosen);
      trace.labels[i] = EventInfoLabel(d.options[d.chosen]);
    }
  }
  if (policy.crash_fired_at >= 0) {
    const CrashConsult& consult = policy.crash_consults[policy.crash_fired_at];
    trace.crash = CrashSpec{policy.crash_fired_at, CrashPointName(consult.point), consult.site};
  }
  trace.expect_digest = result.digest;
  trace.expect_violation = result.violation;
  return trace;
}

ExploreResult ExhaustiveDfs(const ScenarioConfig& config, const DfsOptions& options) {
  struct Node {
    uint64_t index;                    // Consultation index this node decides.
    std::vector<uint32_t> candidates;  // candidates[0] == 0, the default.
    size_t next;                       // Next candidate to try.
    uint32_t taken;                    // Candidate currently on the path.
  };
  std::vector<Node> stack;
  ExploreResult result;

  while (result.stats.runs < options.max_runs) {
    GuidedPolicy policy;
    for (const Node& node : stack) {
      policy.prescribed[node.index] = node.taken;
    }
    RunResult run = RunScenario(config, &policy);
    ++result.stats.runs;
    result.stats.max_decisions =
        std::max(result.stats.max_decisions, static_cast<uint64_t>(policy.decisions.size()));
    if (!run.ok()) {
      result.counterexample = TraceFromRun(config, policy, run);
      return result;
    }
    // Open the decision points this run discovered beyond the current path.
    for (uint64_t i = stack.size();
         i < policy.decisions.size() && i < options.max_branch_depth; ++i) {
      std::vector<uint32_t> candidates =
          Candidates(policy.decisions[i].options, options.partial_order_reduction);
      if (candidates.size() > 1) {
        ++result.stats.branch_points;
      }
      stack.push_back(Node{i, std::move(candidates), 1, 0});
    }
    // Backtrack to the deepest node with an untried candidate.
    while (!stack.empty() && stack.back().next >= stack.back().candidates.size()) {
      stack.pop_back();
    }
    if (stack.empty()) {
      result.exhausted = true;
      return result;
    }
    Node& top = stack.back();
    top.taken = top.candidates[top.next++];
  }
  return result;  // Budget exhausted; tree not fully covered.
}

ExploreResult PctSampler(const ScenarioConfig& config, const PctOptions& options) {
  ExploreResult result;
  for (int r = 0; r < options.batch; ++r) {
    GuidedPolicy policy;
    PctChooser chooser(options.seed + static_cast<uint64_t>(r) * 0x9E37ULL, config.sites,
                       options.depth, options.horizon);
    policy.chooser = [&chooser](size_t index, const std::vector<EventInfo>& opts) {
      return chooser(index, opts);
    };
    RunResult run = RunScenario(config, &policy);
    ++result.stats.runs;
    result.stats.max_decisions =
        std::max(result.stats.max_decisions, static_cast<uint64_t>(policy.decisions.size()));
    if (!run.ok()) {
      result.counterexample = TraceFromRun(config, policy, run);
      return result;
    }
  }
  result.exhausted = false;  // Sampling never proves exhaustion.
  return result;
}

CrashSweepResult CrashSweep(const ScenarioConfig& config, bool stop_at_first) {
  CrashSweepResult result;
  // Reference run: count the crash-point consultations a clean run passes.
  GuidedPolicy reference;
  RunResult reference_run = RunScenario(config, &reference);
  ++result.stats.runs;
  result.crash_points = reference.crash_consults.size();
  if (!reference_run.ok()) {
    // The scenario violates without any crash; report that directly.
    result.counterexamples.push_back(TraceFromRun(config, reference, reference_run));
    return result;
  }
  for (uint64_t ordinal = 0; ordinal < result.crash_points; ++ordinal) {
    GuidedPolicy policy;
    policy.crash_ordinal = static_cast<int64_t>(ordinal);
    RunResult run = RunScenario(config, &policy);
    ++result.stats.runs;
    result.stats.max_decisions =
        std::max(result.stats.max_decisions, static_cast<uint64_t>(policy.decisions.size()));
    if (!run.ok()) {
      result.counterexamples.push_back(TraceFromRun(config, policy, run));
      if (stop_at_first) {
        return result;
      }
    }
  }
  return result;
}

}  // namespace mc
}  // namespace locus
