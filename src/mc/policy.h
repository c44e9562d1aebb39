// Recording/replaying SchedulePolicy implementations for the model checker.
//
// Every run — explored, sampled, or replayed — uses the same GuidedPolicy:
// at each engine consultation it takes the prescribed choice if one exists
// for that consultation index, otherwise asks a pluggable Chooser (default:
// choice 0, the engine's historical seq order), and records what it decided.
// A counterexample trace is therefore nothing more than the sparse set of
// non-default choices plus an optional crash ordinal; replaying it under a
// fresh GuidedPolicy reproduces the run bit-for-bit because the simulation
// itself is deterministic between decision points.

#ifndef SRC_MC_POLICY_H_
#define SRC_MC_POLICY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace locus {
namespace mc {

// One scheduling consultation: the tied events offered (historical order) and
// the index chosen.
struct Decision {
  std::vector<EventInfo> options;
  size_t chosen = 0;
};

// One crash-point consultation: a (point, site) pair the kernel hit, the
// point a LOCUS_CRASH_POINTS row (src/locus/kernel.h).
struct CrashConsult {
  int32_t point = -1;
  int32_t site = -1;

  bool operator==(const CrashConsult&) const = default;
};

class GuidedPolicy : public SchedulePolicy {
 public:
  // Fallback chooser for consultations with no prescribed choice. Returns an
  // option index; out-of-range values are clamped to 0 by the caller.
  using Chooser = std::function<size_t(size_t index, const std::vector<EventInfo>& options)>;

  GuidedPolicy() = default;

  // --- Inputs (set before the run) ---
  // Sparse consultation-index -> option-index overrides.
  std::map<uint64_t, uint32_t> prescribed;
  // Fallback for unprescribed consultations; null means choice 0.
  Chooser chooser;
  // Crash the site of the crash_ordinal-th CrashAt consultation (0-based);
  // -1 disables crash injection. At most one crash fires per run.
  int64_t crash_ordinal = -1;
  // Tie-widening window handed to the engine (see SchedulePolicy::TieWindow).
  // Part of the scenario config, so replays see identical consultations.
  SimTime tie_window = 0;

  // --- Recording (read after the run) ---
  std::vector<Decision> decisions;
  std::vector<CrashConsult> crash_consults;
  int64_t crash_fired_at = -1;  // Consultation ordinal that crashed, or -1.

  size_t PickNext(SimTime now, const std::vector<EventInfo>& options) override;
  bool CrashAt(int32_t point, int32_t site) override;
  SimTime TieWindow() const override { return tie_window; }
};

// PCT-style randomized chooser (Burckhardt et al.'s probabilistic concurrency
// testing, adapted to site-level scheduling): each site draws a random
// priority at construction; a tie resolves to the option whose actor site
// (ActorSite, the actor column of LOCUS_EVENT_TAGS) has the highest
// priority. `depth` priority-change points, at random consultation indices
// below `horizon`, each demote one random site to the lowest priority —
// covering bugs that need a specific site to lag.
class PctChooser {
 public:
  PctChooser(uint64_t seed, int num_sites, int depth, uint64_t horizon);

  size_t operator()(size_t index, const std::vector<EventInfo>& options);

 private:
  Rng rng_;
  std::vector<uint64_t> priority_;            // Per site.
  std::map<uint64_t, int32_t> change_points_;  // Consultation index -> site.
};

}  // namespace mc
}  // namespace locus

#endif  // SRC_MC_POLICY_H_
