"""Run every suite scenario and print the full verdict matrix.

For each scenario: the five two-sided conditions, whether the induced map
between the localizations is a weak equivalence, and the cross-validation
sub-checks.  Exits nonzero if any cross-validation finding appears.

    python3 scripts/run_suite.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bicfrac.builders import theorem_suite  # noqa: E402
from bicfrac.conditions import check_A, cross_validate_theorems, is_weak_equivalence  # noqa: E402
from bicfrac.fractions import induce_g_tilde  # noqa: E402


def main() -> int:
    failed = False
    t_start = time.time()
    for case in theorem_suite():
        t0 = time.time()
        print(f"{case.name}  (classes: {case.w_src.name} -> {case.w_tgt.name})")
        reports = [check_A(case.psfun, case.w_src, case.w_tgt, i) for i in range(1, 6)]
        for r in reports:
            mark = "pass" if r.holds else "FAIL"
            extra = "" if r.holds else f"  counterexample {tuple(r.counterexample)}"
            print(f"  [{mark}] {r.tag} ({r.examined} candidates){extra}")
        lift = induce_g_tilde(case.psfun, case.w_src, case.w_tgt)
        weq = is_weak_equivalence(lift.psfun)
        agrees = weq.passed == all(r.holds for r in reports)
        print(f"  induced map weak equivalence: {weq.passed}"
              f"  (matches conditions: {agrees})")
        cross = cross_validate_theorems(case.psfun, case.w_src, case.w_tgt)
        for s in cross.subchecks:
            mark = "ran " if s.ran else "skip"
            print(f"  [{mark}] {s.name}: {s.reason}")
        if not (agrees and cross.passed):
            failed = True
        print(f"  ({time.time() - t0:.2f}s)\n")
    print(f"total {time.time() - t_start:.2f}s: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
