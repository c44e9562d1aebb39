#!/usr/bin/env python3
"""Benchmark regression gate over the scale-throughput snapshot.

Compares a freshly generated bench JSON against the checked-in baseline,
per (bench, config) row. Every virtual field -- the simulated txn_per_s and
the form_* gauges (messages and log forces per transaction) -- comes from a
deterministic simulation, printed with two decimals by the same code in both
files, so it is gated exactly: any change, up or down, fails until the
baseline is refreshed on purpose. Host wall-clock (wall_ms) depends on the
machine and stays informational.

Rules:
  - A baseline row missing from the new results fails (a benchmark silently
    disappearing is itself a regression).
  - New rows absent from the baseline pass (refresh the baseline to pin them).
  - Each VIRTUAL_FIELDS value in a baseline row must be present in the new
    row and equal to it.
  - The REQUIRED_ROWS must be present in BOTH files. They anchor the gate:
    the certifier-off sites=16 scale row is the overhead reference the
    serializability certifier (src/serial) is measured against, so neither a
    pruned baseline nor a filtered fresh run may silently drop it.

Usage: scripts/perf_gate.py <baseline.json> <new.json>
Exits nonzero on any failure.
"""

import json
import sys

# (bench, config) rows that must exist in both baseline and fresh results.
REQUIRED_ROWS = [
    ("scale_throughput", "sites=16,tellers=48,local=0.0"),
]

# Deterministic fields, gated exactly when the baseline row has them.
VIRTUAL_FIELDS = ("txn_per_s", "form_messages_per_txn", "form_log_forces_per_txn")


def load(path):
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    return {(r["bench"], r["config"]): r for r in rows}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(argv[1])
    fresh = load(argv[2])

    failures = []
    checked = 0
    for key in REQUIRED_ROWS:
        for name, rows in (("baseline", baseline), ("new results", fresh)):
            if key not in rows:
                failures.append(
                    f"{key[0]} [{key[1]}]: required row missing from {name}")
    for key, base_row in sorted(baseline.items()):
        bench, config = key
        if key not in fresh:
            failures.append(f"{bench} [{config}]: missing from new results")
            continue
        checked += 1
        new_row = fresh[key]
        changed = []
        for field in VIRTUAL_FIELDS:
            if field in base_row and new_row.get(field) != base_row[field]:
                changed.append(f"{field} {base_row[field]} -> {new_row.get(field)}")
        failures.extend(f"{bench} [{config}]: {change}" for change in changed)
        wall = f"wall {base_row.get('wall_ms')} -> {new_row.get('wall_ms')} ms"
        print(f"  {bench} [{config}]: {base_row['txn_per_s']:.2f} -> "
              f"{new_row.get('txn_per_s', float('nan')):.2f} txn/s, {wall} "
              f"{'CHANGED' if changed else 'ok'}")
    for key in sorted(fresh.keys() - baseline.keys()):
        print(f"  {key[0]} [{key[1]}]: new row (not in baseline)")

    for failure in failures:
        print(f"perf_gate: FAIL {failure}", file=sys.stderr)
    print(f"perf_gate: {checked} rows compared, {len(failures)} failures",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
