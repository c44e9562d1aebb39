#!/usr/bin/env bash
# CI gate, in dependency order of cheapness:
#   1. structural analyzer (scripts/locus_analyze: lexer/CFG/call-graph lint,
#      observer-hook coverage, obligation pairing) — and a self-test that it
#      still detects every violation class seeded in scripts/lint_fixture
#   2. RelWithDebInfo build (-Werror) + full test suite
#   3. model-checker smoke: exhaustive 2-site DFS, fixed-seed PCT batch, and
#      full crash-point enumeration of a 3-site commit (src/mc), plus a
#      negative control that rediscovers + replays the seeded PR 3 race
#   4. benchmark regression snapshot (scale table) + perf-gate: the fresh
#      virtual numbers (txn_per_s, form_* messages and forces per txn) must
#      equal the checked-in BENCH_scale.json baseline exactly
#   5. benchmark determinism self-check (perfbench/selfcheck.py): one seed
#      repeats bit for bit, another differs, and a traced run matches an
#      untraced one, on every repo-benchmark workload
#   6. chaos reliability scenarios with the runtime protocol auditor AND the
#      outcome-level serializability certifier observing (--audit --serial:
#      any 2PL / 2PC / shadow-page / serializability / recoverability /
#      external-consistency / shared-state-race violation fails the run),
#      plus a negative control that a seeded write-skew cycle fails the run
#   7. UndefinedBehaviorSanitizer build (-Werror) + full test suite
#   8. AddressSanitizer build (-Werror) + full test suite, on the same fibers
#      as every other build (the simulator annotates each stack switch)
#
# Build trees (build/, .bench_build/, build-ubsan/, build-asan/) are reused
# incrementally: a cold run compiles all four (build/ and the two sanitizer
# trees alone take ~20 min at -j1); warm runs finish in a few minutes.
#
# Usage: scripts/ci.sh [jobs]

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== structural analyzer ==="
# The 10 s timeout is the wall-time budget: the analyzer runs on every push,
# so a quadratic blowup in the CFG/call-graph layers should fail loudly here
# rather than quietly stretch CI.
timeout 10 python3 scripts/locus_analyze
FIXTURE_OUT="$(timeout 10 python3 scripts/locus_analyze scripts/lint_fixture 2>/dev/null)" \
  && { echo "locus_analyze failed to flag the seeded fixture violations" >&2; exit 1; }
for rule in nondeterminism "hash-order iteration" "stat counter" "decision point" \
    "formation bypass" "non-exhaustive switch" \
    "hook coverage" "obligation pairing" "bare suppression" \
    "type-erased payload"; do
  if ! grep -q "$rule" <<<"$FIXTURE_OUT"; then
    echo "locus_analyze no longer detects the seeded '$rule' violation" >&2
    exit 1
  fi
done
echo "analyzer fixture self-test: all seeded violation classes detected"

echo "=== build (RelWithDebInfo, -Werror) ==="
cmake -B build -S . -DLOCUS_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"

echo "=== ctest ==="
(cd build && ctest --output-on-failure)

# Every mc run below also certifies outcomes: RunScenario enables the
# serializability certifier (src/serial) and its Certify() sweep is the
# fourth terminal-state oracle, so any serialization cycle / dirty-read
# commit / external-consistency break / shared-state race in an explored
# schedule is a reported violation.
echo "=== model-checker smoke (schedule + crash-point exploration) ==="
# Exhaustive DFS over the 2-site scenario with a 2 ms tie-widening window:
# must visit the whole reduced schedule tree without a violation.
./build/src/mc/locus_mc --mode=dfs --sites=2 --tellers=2 --transfers=1 \
    --accounts=1 --window-us=2000
# Fixed-seed PCT batch on a 3-site scenario: deterministic sampling, clean.
./build/src/mc/locus_mc --mode=pct --sites=3 --tellers=3 --transfers=1 \
    --window-us=2000 --batch=15 --pct-seed=7
# Full crash-point enumeration of a 3-site commit (every 2PC protocol step
# of every site): recovery must restore a consistent state at each point.
./build/src/mc/locus_mc --mode=crash --sites=3 --tellers=2 --transfers=1 \
    --disk-us=60000 --seed=5
# Same sweep with RPC formation on: crashes landing between batch enqueue
# and flush (and the presumed-abort lazy begin record) must also recover.
./build/src/mc/locus_mc --mode=crash --sites=3 --tellers=2 --transfers=1 \
    --disk-us=60000 --seed=5 --formation
# DFS with formation on explores the flush-timer decision points.
./build/src/mc/locus_mc --mode=dfs --sites=2 --tellers=2 --transfers=1 \
    --accounts=1 --window-us=2000 --formation
# Negative control: with the PR 3 commit-marking guard seam toggled off the
# sweep must rediscover the race and its shrunk trace must replay exactly.
MC_NEG_DIR="$(mktemp -d)"
if ./build/src/mc/locus_mc --mode=crash --sites=3 --tellers=2 --transfers=1 \
    --disk-us=60000 --seed=5 --guard-off \
    --trace-out="$MC_NEG_DIR/cex.json" >/dev/null 2>&1; then
  echo "locus_mc failed to rediscover the seeded commit-marking race" >&2
  exit 1
fi
./build/src/mc/locus_mc --replay="$MC_NEG_DIR/cex.json"
rm -rf "$MC_NEG_DIR"
echo "mc smoke: exploration clean, seeded race rediscovered and replayed"

echo "=== benchmark regression snapshot ==="
./build/bench/scale_throughput --json=build/BENCH_scale.json \
    --benchmark_filter=NONE >/dev/null
cat build/BENCH_scale.json

echo "=== perf-gate (virtual fields vs checked-in baseline, exactly) ==="
python3 scripts/perf_gate.py BENCH_scale.json build/BENCH_scale.json

echo "=== benchmark determinism self-check ==="
# An engine change that breaks determinism, or makes a traced run differ from
# an untraced one, fails here rather than only in the benchmark pipeline.
python3 perfbench/selfcheck.py

echo "=== chaos reliability under the protocol auditor + certifier ==="
./build/bench/chaos_reliability --audit --serial --json=build/BENCH_chaos.json \
    --benchmark_filter=NONE
cat build/BENCH_chaos.json
# Negative control: the certifier must flag a seeded write-skew serialization
# cycle (two transactions that each read what the other writes, both commit —
# a schedule strict 2PL can never emit). The command exits nonzero exactly
# like a real violating run, so an accidentally-pacified certifier fails CI.
if ./build/bench/chaos_reliability --serial-negative >/dev/null 2>&1; then
  echo "certifier failed to flag the seeded write-skew cycle" >&2
  exit 1
fi
echo "certifier negative control: seeded cycle flagged"

echo "=== UBSAN build + full test suite ==="
cmake -B build-ubsan -S . -DLOCUS_SANITIZE=undefined -DLOCUS_WERROR=ON >/dev/null
cmake --build build-ubsan -j "$JOBS"
(cd build-ubsan && ctest --output-on-failure)

echo "=== ASAN build + full test suite ==="
cmake -B build-asan -S . -DLOCUS_SANITIZE=address -DLOCUS_WERROR=ON >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure)

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy (lock, txn, sim, net, form, recon, mc, serial) ==="
  clang-tidy -p build src/lock/*.cc src/txn/*.cc src/sim/*.cc src/net/*.cc \
      src/form/*.cc src/recon/*.cc src/mc/*.cc src/serial/*.cc \
      -- -std=c++20 -I.
else
  echo "SKIPPED: clang-tidy not installed"
fi

echo "=== ci.sh: all green ==="
