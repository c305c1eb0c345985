"""Extended assignment program: feasibility checking, construction, restriction.

The program couples a machine-selection weight s_i per machine with
fractional small-job shares u_ij.  Per composite machine the s-weights sum
to one and the s-weighted total size collected from small jobs must reach
T/6; per small job the shares sum to at most one.  The bilinear constraint
is evaluated exactly, never linearised.

Two constructive routes produce feasible points with integral s: reading
one off a perfect bundle matching, and enumerating selections (one machine
per composite) until the assignment LP at target T/6 is feasible.  The
restriction step turns any feasible fractional-s point into an integral-s
one by an averaging argument: some member of each composite already collects
T/6 on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clustering import ClusterSet
from .matching import MatchingState
from .ratlp import LinearProgram, solve_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)


class EapError(RuntimeError):
    pass


@dataclass
class EapSolution:
    u: dict[tuple[int, int], Fraction]  # (machine, small job) -> share
    s: dict[int, Fraction]  # machine -> selection weight


@dataclass(frozen=True)
class Selection:
    chosen: dict[int, int]  # composite index -> machine


def _value_size(clusters: ClusterSet, machine: int, job: int) -> int:
    """Size the program pays for (machine, job): zero when ineligible."""
    inst = clusters.gap.base
    if machine in inst.jobs[job].eligible:
        return clusters.gap.gap_size[job]
    return 0


def member_value(sol: EapSolution, clusters: ClusterSet, machine: int) -> Fraction:
    return sum(
        (share * _value_size(clusters, machine, j) for (i, j), share in sol.u.items() if i == machine),
        ZERO,
    )


def check_eap(sol: EapSolution, clusters: ClusterSet, T: Fraction) -> tuple[bool, str | None]:
    """Exact verification of every constraint group; returns the first violation."""
    small = clusters.job_classes.small
    t6 = Fraction(T) / 6
    for (i, j), share in sol.u.items():
        if j not in small:
            return False, f"u[{i},{j}] references a non-small job"
        if share < 0 or share > 1:
            return False, f"u[{i},{j}] = {share} outside [0,1]"
    for i, weight in sol.s.items():
        if weight < 0 or weight > 1:
            return False, f"s[{i}] = {weight} outside [0,1]"
    for d, comp in enumerate(clusters.composites):
        total = sum((sol.s.get(i, ZERO) for i in comp.machines), ZERO)
        if total != 1:
            return False, f"composite {d}: selection weights sum to {total}, not 1"
    usage: dict[int, Fraction] = {}
    for (i, j), share in sol.u.items():
        usage[j] = usage.get(j, ZERO) + share
    for j in sorted(usage):
        if usage[j] > 1:
            return False, f"small job {j} has share mass {usage[j]} > 1"
    for d, comp in enumerate(clusters.composites):
        collected = sum(
            (sol.s.get(i, ZERO) * member_value(sol, clusters, i) for i in comp.machines),
            ZERO,
        )
        if collected < t6:
            return False, f"composite {d} collects {collected} < {t6}"
    return True, None


def eap_from_matching(state: MatchingState, clusters: ClusterSet) -> EapSolution:
    """Indicator solution of a perfect matching: s picks the matched member,
    u marks its bundle jobs."""
    u: dict[tuple[int, int], Fraction] = {}
    s: dict[int, Fraction] = {}
    for comp in clusters.composites:
        for i in comp.machines:
            s[i] = ZERO
    for d, edge in state.matched.items():
        s[edge.member] = ONE
        for j in edge.bundle:
            u[(edge.member, j)] = ONE
    return EapSolution(u=u, s=s)


def restrict_eap(sol: EapSolution, clusters: ClusterSet, T: Fraction) -> EapSolution:
    """Collapse fractional selection weights to one machine per composite.

    Averaging over a feasible point guarantees some member alone collects
    T/6; the lowest such machine id wins, everything else is zeroed.  Shares
    never grow, so the per-job budget is preserved.
    """
    t6 = Fraction(T) / 6
    chosen: set[int] = set()
    for d, comp in enumerate(clusters.composites):
        winner = None
        for i in comp.machines:
            if member_value(sol, clusters, i) >= t6:
                winner = i
                break
        if winner is None:
            raise EapError(
                f"composite {d}: no member collects {t6}; input was not feasible"
            )
        chosen.add(winner)
    u = {(i, j): share for (i, j), share in sol.u.items() if i in chosen and share != 0}
    s: dict[int, Fraction] = {}
    for comp in clusters.composites:
        for i in comp.machines:
            s[i] = ONE if i in chosen else ZERO
    return EapSolution(u=u, s=s)


def select_by_enumeration(
    clusters: ClusterSet, T: Fraction, budget: int = 10**5
) -> tuple[Selection, dict[tuple[int, int], Fraction]]:
    """Try selections (one machine per composite) in lexicographic order and
    return the first whose assignment LP reaches T/6 per selected machine.

    The existence of a perfect bundle matching guarantees some selection is
    feasible, so exhausting the space signals an upstream defect.
    """
    composites = clusters.composites
    space = 1
    for comp in composites:
        space *= len(comp.machines)
        if space > budget:
            raise EapError(
                f"selection space exceeds budget {budget}; "
                "use the matching strategy instead"
            )
    t6 = Fraction(T) / 6
    inst = clusters.gap.base
    small = clusters.job_classes.small

    def candidates(idx: int, picked: list[int]):
        if idx == len(composites):
            yield list(picked)
            return
        for i in composites[idx].machines:
            picked.append(i)
            yield from candidates(idx + 1, picked)
            picked.pop()

    for picked in candidates(0, []):
        u = _alp_at_target(inst, small, picked, t6)
        if u is not None:
            return Selection(chosen=dict(enumerate(picked))), u
    raise EapError(
        "no feasible selection: existence contract violated upstream"
    )


def _alp_at_target(inst, small, machines: list[int], target: Fraction):
    """Assignment LP over selected machines and small jobs; None if infeasible."""
    pairs = [
        (i, j)
        for i in machines
        for j in sorted(small)
        if i in inst.jobs[j].eligible
    ]
    index = {pair: c for c, pair in enumerate(pairs)}
    lp = LinearProgram(len(pairs))
    jobs_present = sorted({j for _, j in pairs})
    for j in jobs_present:
        row = {index[(i, jj)]: 1 for (i, jj) in pairs if jj == j}
        lp.add_constraint(row, "<=", 1)
    for i in machines:
        row = {index[(ii, j)]: inst.jobs[j].size for (ii, j) in pairs if ii == i}
        lp.add_constraint(row, ">=", target)
    sol = solve_feasibility(lp)
    if not sol.is_optimal:
        return None
    values = sol.values
    return {pair: values[c] for pair, c in index.items() if values[c] != 0}
