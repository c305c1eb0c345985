"""Extended assignment program: feasibility checking, construction, restriction.

The program couples a machine-selection weight s_i per machine with
fractional small-job shares u_ij.  Per composite machine the s-weights sum
to one and the s-weighted total size collected from small jobs must reach
T/6; per small job the shares sum to at most one.  Shares and weights are
integer counts over one scale, so the bilinear constraint is evaluated
exactly over integers, never linearised: a composite collects T/6 when
6 * collected >= T * scale**2.

The pipeline builds its feasible point from a perfect bundle matching:
integral s picks each composite's matched member, and u marks that member's
bundle.  Two routes remain for the tests alone, as oracles: enumerating
selections (one machine per composite) until the assignment LP at target
T/6 is feasible, and a restriction step that turns any feasible
fractional-s point into an integral-s one by an averaging argument: some
member of each composite already collects T/6 on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clustering import ClusterSet
from .matching import MatchingState
from .ratlp import LinearProgram, solve_feasibility


class EapError(RuntimeError):
    pass


@dataclass
class EapSolution:
    """Share ``u[i, j] / scale`` and selection weight ``s[i] / scale``."""

    u: dict[tuple[int, int], int]  # (machine, small job) -> share count
    s: dict[int, int]  # machine -> selection weight count
    scale: int


@dataclass(frozen=True)
class Selection:
    chosen: dict[int, int]  # composite index -> machine


def _value_size(clusters: ClusterSet, machine: int, job: int) -> int:
    """Size the program pays for (machine, job): zero when ineligible."""
    inst = clusters.gap.base
    if machine in inst.jobs[job].eligible:
        return clusters.gap.gap_size[job]
    return 0


def member_value(sol: EapSolution, clusters: ClusterSet, machine: int) -> int:
    """Size the machine collects from its shares, as a count over ``sol.scale``."""
    return sum(
        share * _value_size(clusters, machine, j) for (i, j), share in sol.u.items() if i == machine
    )


def check_eap(sol: EapSolution, clusters: ClusterSet, T: int) -> tuple[bool, str | None]:
    """Exact verification of every constraint group; returns the first violation."""
    small = clusters.job_classes.small
    scale = sol.scale
    if scale <= 0:
        return False, f"scale {scale} is not positive"
    for (i, j), share in sol.u.items():
        if j not in small:
            return False, f"u[{i},{j}] references a non-small job"
        if share < 0 or share > scale:
            return False, f"u[{i},{j}] = {Fraction(share, scale)} outside [0,1]"
    for i, weight in sol.s.items():
        if weight < 0 or weight > scale:
            return False, f"s[{i}] = {Fraction(weight, scale)} outside [0,1]"
    for d, comp in enumerate(clusters.composites):
        total = sum(sol.s.get(i, 0) for i in comp.machines)
        if total != scale:
            return False, f"composite {d}: selection weights sum to {Fraction(total, scale)}, not 1"
    usage: dict[int, int] = {}
    for (i, j), share in sol.u.items():
        usage[j] = usage.get(j, 0) + share
    for j in sorted(usage):
        if usage[j] > scale:
            return False, f"small job {j} has share mass {Fraction(usage[j], scale)} > 1"
    for d, comp in enumerate(clusters.composites):
        # A count over scale**2: s and u each carry one factor of the scale.
        collected = sum(sol.s.get(i, 0) * member_value(sol, clusters, i) for i in comp.machines)
        if 6 * collected < T * scale**2:
            return False, (
                f"composite {d} collects {Fraction(collected, scale**2)} < {Fraction(T, 6)}"
            )
    return True, None


def eap_from_matching(state: MatchingState, clusters: ClusterSet) -> EapSolution:
    """Indicator solution of a perfect matching: s picks the matched member,
    u marks its bundle jobs, all over scale 1."""
    s = {i: 0 for comp in clusters.composites for i in comp.machines}
    u: dict[tuple[int, int], int] = {}
    for edge in state.matched.values():
        s[edge.member] = 1
        for j in edge.bundle:
            u[(edge.member, j)] = 1
    return EapSolution(u=u, s=s, scale=1)


def restrict_eap(sol: EapSolution, clusters: ClusterSet, T: int) -> EapSolution:
    """Collapse fractional selection weights to one machine per composite.

    Averaging over a feasible point guarantees some member alone collects
    T/6; the lowest such machine id wins, everything else is zeroed.  Shares
    never grow, so the per-job budget is preserved.  The scale is kept.
    """
    scale = sol.scale
    chosen: set[int] = set()
    for d, comp in enumerate(clusters.composites):
        winner = None
        for i in comp.machines:
            if 6 * member_value(sol, clusters, i) >= T * scale:
                winner = i
                break
        if winner is None:
            raise EapError(
                f"composite {d}: no member collects {Fraction(T, 6)}; input was not feasible"
            )
        chosen.add(winner)
    u = {(i, j): share for (i, j), share in sol.u.items() if i in chosen and share != 0}
    s = {i: scale if i in chosen else 0 for comp in clusters.composites for i in comp.machines}
    return EapSolution(u=u, s=s, scale=scale)


def select_by_enumeration(
    clusters: ClusterSet, T: int, budget: int = 10**5
) -> tuple[Selection, dict[tuple[int, int], Fraction]]:
    """Try selections (one machine per composite) in lexicographic order and
    return the first whose assignment LP reaches T/6 per selected machine.

    A test oracle for the bundle matching, exponential in the number of
    composites; the pipeline never calls it.  The existence of a perfect
    bundle matching guarantees some selection is feasible, so exhausting the
    space signals an upstream defect.
    """
    composites = clusters.composites
    space = 1
    for comp in composites:
        space *= len(comp.machines)
        if space > budget:
            raise EapError(f"selection space exceeds budget {budget}")
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
        u = _alp_at_target(inst, small, picked, T)
        if u is not None:
            return Selection(chosen=dict(enumerate(picked))), u
    raise EapError(
        "no feasible selection: existence contract violated upstream"
    )


def _alp_at_target(inst, small, machines: list[int], T: int):
    """Assignment LP over selected machines and small jobs, each machine
    collecting T/6, written 6 * collected >= T; None if infeasible."""
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
        row = {index[(ii, j)]: 6 * inst.jobs[j].size for (ii, j) in pairs if ii == i}
        lp.add_constraint(row, ">=", T)
    sol = solve_feasibility(lp)
    if not sol.is_optimal:
        return None
    values = sol.values
    return {pair: values[c] for pair, c in index.items() if values[c] != 0}
