// Counterexample traces: a violating run serialized as the scenario
// configuration plus the sparse decision sequence that produced it.
//
// The format is a small, stable JSON document written and parsed by hand (no
// external dependencies). Only non-default choices are stored — the engine's
// default order is choice 0 everywhere — so shrunk traces are short and a
// human can read which reorderings matter. `labels` are advisory (they make
// the trace self-describing); replay uses only indices.

#ifndef SRC_MC_COUNTEREXAMPLE_H_
#define SRC_MC_COUNTEREXAMPLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/mc/scenario.h"
#include "src/sim/simulation.h"

namespace locus {
namespace mc {

struct CrashSpec {
  int64_t ordinal = -1;          // CrashAt consultation ordinal (0-based).
  std::string step;              // CrashPointName at that ordinal (advisory).
  int32_t site = -1;             // Site crashed (advisory).
};

struct CounterexampleTrace {
  ScenarioConfig config;
  // Consultation index -> option index, non-default (non-zero) entries only.
  std::map<uint64_t, uint32_t> choices;
  // Advisory labels for the chosen options, keyed like `choices`.
  std::map<uint64_t, std::string> labels;
  std::optional<CrashSpec> crash;
  // Digest of the violating run (replay must reproduce it bit-for-bit).
  std::string expect_digest;
  // AuditKindName of the first auditor violation, or a pseudo-kind for
  // workload-invariant failures ("conservation", "atomicity", "blocked").
  std::string expect_violation;

  std::string ToJson() const;
  // Parses a trace produced by ToJson. Returns std::nullopt (with a message
  // in *error if non-null) on malformed input.
  static std::optional<CounterexampleTrace> FromJson(const std::string& text,
                                                     std::string* error = nullptr);
};

}  // namespace mc
}  // namespace locus

#endif  // SRC_MC_COUNTEREXAMPLE_H_
