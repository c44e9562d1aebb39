#!/usr/bin/env python3
"""Analyzer self-test, registered as a ctest target.

Two halves, mirroring ci.sh stage 1:
  1. The seeded corpus in scripts/lint_fixture must trip every check class —
     a check that stops firing is a dead invariant guard.
  2. The real tree (src/) must pass with zero findings — true positives get
     fixed, deliberate exceptions get annotated, nothing lingers.

Also asserts the suppression semantics the fixtures encode: justified tags
silence their check, bare tags do not silence the hygiene check.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from driver import ROOT, run  # noqa: E402

EXPECTED_CLASSES = (
    "nondeterminism",
    "hash-order iteration",
    "stat counter",
    "decision point",
    "formation bypass",
    "hook coverage",
    "obligation pairing",
    "bare suppression",
    "type-erased payload",
)

# Fixture functions whose violations are suppressed/justified and must NOT
# be reported (the analyzer honoring a justified tag is part of the
# contract being tested).
SUPPRESSED_MARKERS = ("Bootstrap", "SuppressedDrop", "Reset", "GrantLoudly",
                     "PairedCall", "BatchedCall", "GuardedLock",
                     "EnqueueArmed", "WaitArmed")


def fail(msg):
    print(f"analyzer selftest: FAIL: {msg}", file=sys.stderr)
    return 1


# Exact seeded-finding count; fixtures and analyzer live in this repo and
# change together, so any drift is a deliberate edit or a regression.
EXPECTED_FIXTURE_FINDINGS = 21


def main():
    fixture = os.path.join(ROOT, "scripts", "lint_fixture")
    _, fixture_findings = run([fixture])
    if len(fixture_findings) != EXPECTED_FIXTURE_FINDINGS:
        for f in fixture_findings:
            print(f, file=sys.stderr)
        return fail(f"expected {EXPECTED_FIXTURE_FINDINGS} seeded findings, "
                    f"got {len(fixture_findings)}")
    for cls in EXPECTED_CLASSES:
        if not any(f": {cls}: " in f for f in fixture_findings):
            return fail(f"seeded '{cls}' violation not detected")
    for marker in SUPPRESSED_MARKERS:
        hits = [f for f in fixture_findings
                if marker in f and ": bare suppression: " not in f]
        if hits:
            return fail(f"clean/suppressed fixture shape '{marker}' was "
                        f"flagged: {hits[0]}")

    checked, src_findings = run([os.path.join(ROOT, "src")])
    if src_findings:
        for f in src_findings:
            print(f, file=sys.stderr)
        return fail(f"clean tree reported {len(src_findings)} finding(s)")
    if checked == 0:
        return fail("no sources found under src/")

    print(f"analyzer selftest: PASS ({len(fixture_findings)} seeded findings "
          f"across {len(EXPECTED_CLASSES)} classes; {checked} src files "
          f"clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
