#!/usr/bin/env python3
"""Shows that the benchmark's correctness gate rejects wrong results.

Run from the repository root:

    python3 perfbench/check_gate.py

Solves the first default-seed instance of two workloads, checks that the gate
passes the genuine report, then corrupts it one way at a time (a wrong
allocation, a wrong T, the wrong branch) and checks that the gate rejects
each.  Exits 0 when every verdict is as expected.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from run import DEFAULT_SEED, gate, load_package, reference_T


def main() -> int:
    santaclaus = load_package()
    from workloads import instances

    Allocation = santaclaus.Allocation
    bad = 0
    for workload in ("uniform-random", "all-small"):
        inst = instances(workload, DEFAULT_SEED, 1)[0]
        report = santaclaus.solve(inst)
        ref = reference_T(workload, DEFAULT_SEED)[0]
        alloc = report.allocation
        misplaced = next(
            ((j, i) for j in sorted(alloc.owner) for i in range(inst.machine_count)
             if i not in inst.jobs[j].eligible),
            None,
        )
        cases = [
            ("genuine report", report, True),
            ("min_value overstated", replace(report, allocation=replace(
                alloc, min_value=alloc.min_value + 1)), False),
            ("empty allocation", replace(report, allocation=Allocation({}, 0)), False),
            ("T one below the reference", replace(report, T=report.T - 1), False),
        ]
        if misplaced is not None:
            owner = dict(alloc.owner)
            owner[misplaced[0]] = misplaced[1]
            cases.append(("job on an ineligible machine",
                          replace(report, allocation=replace(alloc, owner=owner)), False))
        if workload == "all-small":
            cases.append(("all-small on the clustered branch",
                          replace(report, branch="clustered"), False))
        for name, candidate, should_pass in cases:
            why = gate(santaclaus, workload, inst, candidate, ref)
            ok = (why is None) == should_pass
            bad += not ok
            verdict = "accepted" if why is None else f"rejected ({why})"
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {name}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
