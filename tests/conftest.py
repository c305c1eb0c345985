"""Shared test helpers: brute-force oracles kept independent of the solver path."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from santaclaus.configlp import ClpSolution
from santaclaus.instances import Instance


def to_counts(values):
    """Exact rationals as integer counts over one scale, the lcm of their
    denominators: ``values[k] == Fraction(counts[k], scale)``."""
    scale = lcm(*(Fraction(v).denominator for v in values.values()))
    return {k: int(v * scale) for k, v in values.items()}, scale


def clp_from_weights(weights, tau):
    """A `ClpSolution` holding the rational ``weights``, as counts over the
    lcm of their denominators."""
    counts, scale = to_counts(weights)
    return ClpSolution(tau=tau, counts=counts, scale=scale)


def weights_of(sol):
    """The rational weights of a `ClpSolution` or `FractionalAssignment`."""
    return {key: Fraction(c, sol.scale) for key, c in sol.counts.items()}


def with_selection(base, weights):
    """The integral `EapSolution` ``base`` (scale 1) with the rational
    selection ``weights`` put in, as counts over their common denominator."""
    from santaclaus.eap import EapSolution

    s, scale = to_counts({**base.s, **weights})
    return EapSolution(u={k: v * scale for k, v in base.u.items()}, s=s, scale=scale)


def enumerate_lp_vertices(objective, rows, nvars):
    """Brute-force LP oracle for tiny maximization problems.

    ``rows`` are (coeffs-dict, relation, rhs) over variables 0..nvars-1 with
    implicit bounds x >= 0.  Enumerates every basis (choice of nvars tight
    constraints among rows and x_j = 0 planes), keeps the feasible ones and
    returns (best objective, list of optimal vertices).  None if infeasible.
    Deliberately ignorant of simplex internals.
    """
    planes = []
    for coeffs, rel, rhs in rows:
        planes.append((coeffs, Fraction(rhs)))
    for j in range(nvars):
        planes.append(({j: Fraction(1)}, Fraction(0)))

    def solve_square(idxs):
        mat = [[Fraction(planes[i][0].get(v, 0)) for v in range(nvars)] + [planes[i][1]] for i in idxs]
        # Gaussian elimination
        for c in range(nvars):
            piv = next((r for r in range(c, nvars) if mat[r][c] != 0), None)
            if piv is None:
                return None
            mat[c], mat[piv] = mat[piv], mat[c]
            inv = 1 / mat[c][c]
            mat[c] = [a * inv for a in mat[c]]
            for r in range(nvars):
                if r != c and mat[r][c] != 0:
                    f = mat[r][c]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
        return [mat[r][nvars] for r in range(nvars)]

    def feasible(x):
        if any(v < 0 for v in x):
            return False
        for coeffs, rel, rhs in rows:
            lhs = sum((Fraction(a) * x[v] for v, a in coeffs.items()), Fraction(0))
            rhs = Fraction(rhs)
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True

    best = None
    witnesses = []
    for idxs in combinations(range(len(planes)), nvars):
        x = solve_square(idxs)
        if x is None or not feasible(x):
            continue
        val = sum((Fraction(c) * x[v] for v, c in objective.items()), Fraction(0))
        if best is None or val > best:
            best, witnesses = val, [x]
        elif val == best:
            witnesses.append(x)
    if best is None:
        return None
    return best, witnesses


def min_cover_subsets(pool, sizes, costs, tau):
    """All minimum-cost subsets of ``pool`` with total size >= tau, by enumeration."""
    best = None
    sets = []
    n = len(pool)
    for mask in range(1 << n):
        chosen = [pool[k] for k in range(n) if mask >> k & 1]
        if sum(sizes[j] for j in chosen) < tau:
            continue
        cost = sum((costs.get(j, Fraction(0)) for j in chosen), Fraction(0))
        if best is None or cost < best:
            best, sets = cost, [chosen]
        elif cost == best:
            sets.append(chosen)
    return best, sets


def all_minimal_configs(pool, sizes, tau):
    """Every inclusion-minimal subset of pool with total >= tau (enumeration)."""
    out = []
    n = len(pool)
    for mask in range(1 << n):
        chosen = [pool[k] for k in range(n) if mask >> k & 1]
        total = sum(sizes[j] for j in chosen)
        if total < tau:
            continue
        if all(total - sizes[j] < tau for j in chosen):
            out.append(tuple(chosen))
    return sorted(out)


def tiny_instance(sizes_eligible, machines):
    """Build an Instance from [(size, eligible-iterable), ...]."""
    from santaclaus.instances import JobSpec

    jobs = tuple(JobSpec(size=s, eligible=frozenset(e)) for s, e in sizes_eligible)
    return Instance(machine_count=machines, jobs=jobs)


def mixed_instance(seed, m=2, nbig=1, nsmall=16, bigsize=20, density=Fraction(3, 4)):
    """Seeded instance mixing a few large jobs with many unit jobs.

    Unit jobs are genuinely small once the cover threshold passes 12, which
    these shapes reach, so the clustered machinery (middle machines, super
    machines, bundles) actually gets exercised.
    """
    from random import Random

    from santaclaus.instances import JobSpec

    rng = Random(seed)
    jobs = []
    for _ in range(nbig):
        elig = frozenset(
            i for i in range(m) if rng.randrange(density.denominator) < density.numerator
        )
        jobs.append(JobSpec(size=bigsize + rng.randrange(6), eligible=elig))
    for _ in range(nsmall):
        elig = frozenset(
            i for i in range(m) if rng.randrange(density.denominator) < density.numerator
        )
        jobs.append(JobSpec(size=1, eligible=elig))
    return Instance(machine_count=m, jobs=tuple(jobs))


def shared_big_instance(units=13, machines=2):
    """One big job both machines lean on, plus a shared pool of unit jobs."""
    from santaclaus.instances import JobSpec

    everyone = frozenset(range(machines))
    jobs = [JobSpec(size=units, eligible=everyone)]
    jobs += [JobSpec(size=1, eligible=everyone) for _ in range(units)]
    return Instance(machine_count=machines, jobs=tuple(jobs))


def handmade_super_case():
    """A genuine two-machine super machine, driven through the real pipeline.

    LP vertices rarely split a big job exactly in half, so the covering
    solution is written down by hand (half the big job plus half the full
    unit bundle per machine, all constraints exactly tight) and then fed to
    the classification, cycle-elimination and extraction code unchanged.
    """
    from fractions import Fraction

    from santaclaus.clustering import build_big_graph, eliminate_cycles, extract_clusters
    from santaclaus.configlp import Configuration
    from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines

    inst = shared_big_instance(units=13)
    gap = build_gap_instance(inst, 13)
    jc = classify_jobs(gap)
    half = Fraction(1, 2)
    big = Configuration(jobs=(0,), total_size=13)
    bundle = Configuration(jobs=tuple(range(1, 14)), total_size=13)
    x = clp_from_weights(
        {(0, big): half, (1, big): half, (0, bundle): half, (1, bundle): half}, 13
    )
    mc = classify_machines(gap, jc, x)
    graph = build_big_graph(gap, x, jc, mc)
    forest, xstar = eliminate_cycles(graph, x, gap)
    clusters = extract_clusters(forest, xstar, jc, mc, gap)
    return inst, clusters
