"""The integer cover check and rounding against their rational references.

`check_cover_solution` and `round_assignment` read weights as integer counts
over one scale.  The references below are the same algorithms written over
`fractions.Fraction` (the canceller moving each cycle edge by
+-delta / size(j)); on random solutions with random denominators, and on a
non-reduced scale, both sides must give the same verdict, the same message
and the same owner map.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from santaclaus.clustering import ClusteringError, _find_cycle
from santaclaus.configlp import (
    ClpSolution,
    Configuration,
    FractionalAssignment,
    check_cover_solution,
)
from santaclaus.rounding import RoundingError, _assert_forest, round_assignment

F = Fraction
ZERO = F(0)


# ------------------------------------------------------- rational references

def ref_is_minimal(jobs, tau, sizes):
    total = sum(sizes[j] for j in set(jobs))
    return total >= tau and all(total - sizes[j] < tau for j in set(jobs))


def ref_check_cover_solution(weights, tau, cover_rhs, pools, sizes):
    cover, usage = {}, {}
    for (i, cfg), w in weights.items():
        if w < 0 or w > 1:
            return False, f"weight out of [0,1] on machine {i}"
        if not set(cfg.jobs) <= set(pools.get(i, ())):
            return False, f"machine {i} carries a job outside its pool"
        if not ref_is_minimal(cfg.jobs, tau, sizes):
            return False, f"machine {i} carries a non-minimal configuration {cfg.jobs}"
        cover[i] = cover.get(i, ZERO) + w
        for j in cfg.jobs:
            usage[j] = usage.get(j, ZERO) + w
    for i in sorted(pools):
        covered = cover.get(i, ZERO)
        if covered < cover_rhs:
            return False, f"machine {i} cover {covered} < {cover_rhs}"
    for j, used in sorted(usage.items()):
        if used > 1:
            return False, f"job {j} used {used} > 1"
    return True, None


def ref_cancel_cycles(weights, size):
    # edges move by +-delta / size(j), delta the least size-weighted
    # decremented weight
    weights = dict(weights)
    while True:
        cycle = _find_cycle(weights)
        if cycle is None:
            return weights
        if len(cycle) % 2:
            raise ClusteringError(f"odd cycle {cycle} in a bipartite support graph")
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        if cycle[1][1] != cycle[0][1]:
            cycle = [cycle[0]] + list(reversed(cycle[1:]))
        delta = min(weights[(i, j)] * size(j) for i, j in cycle[0::2])
        if delta <= 0:
            raise ClusteringError(f"cycle {cycle} carries a non-positive weight")
        for pos, (i, j) in enumerate(cycle):
            step = delta / size(j)
            weights[(i, j)] += -step if pos % 2 == 0 else step
        for e in cycle[0::2]:
            if weights[e] == 0:
                del weights[e]


def ref_round_assignment(y_in, sizes):
    mass = {}
    for (i, j), v in y_in.items():
        if v < 0 or v > 1:
            raise RoundingError(f"y[{i},{j}] = {v} outside [0,1]")
        mass[j] = mass.get(j, ZERO) + v
    for j, m in sorted(mass.items()):
        if m > 1:
            raise RoundingError(f"job {j} carries fractional mass {m} > 1")
    y, lowest = {}, {}
    for (i, j), v in sorted(y_in.items()):
        if v > 0:
            y[(i, j)] = v
            lowest.setdefault(j, i)
    for j, i in lowest.items():
        y[(i, j)] += 1 - mass[j]
    machines = sorted({i for i, _ in y})
    value = {i: ZERO for i in machines}
    max_size = {i: 0 for i in machines}
    for (i, j), v in y.items():
        value[i] += v * sizes[j]
        max_size[i] = max(max_size[i], sizes[j])
    forest = ref_cancel_cycles(y, lambda j: sizes[j])
    edges = sorted(forest)
    _assert_forest(edges)
    owner, outright_value = {}, {i: 0 for i in machines}
    jobs_of, machines_of = {}, {}
    for i, j in edges:
        if forest[(i, j)] == 1:
            if j in owner:
                raise RoundingError(f"job {j} assigned outright twice")
            owner[j] = i
            outright_value[i] += sizes[j]
        else:
            jobs_of.setdefault(i, []).append(j)
            machines_of.setdefault(j, []).append(i)
    seen_jobs, seen_machines = set(), set()
    for root in sorted(machines_of):
        if root in seen_jobs:
            continue
        seen_jobs.add(root)
        stack = [root]
        while stack:
            parent = stack.pop()
            for i in machines_of[parent]:
                if i in seen_machines:
                    continue
                seen_machines.add(i)
                kids = [j for j in jobs_of[i] if j not in seen_jobs]
                seen_jobs.update(kids)
                stack.extend(kids)
                need = value[i] - outright_value[i] - max_size[i]
                got = 0
                for j in sorted(kids, key=lambda j: (-sizes[j], j)):
                    if got >= need:
                        break
                    if j in owner:
                        raise RoundingError(f"child job {j} claimed twice")
                    owner[j] = i
                    got += sizes[j]
                if got < need:
                    raise RoundingError(f"machine {i}: child jobs fell short of the loss bound")
    integral = {i: 0 for i in machines}
    for j, i in owner.items():
        integral[i] += sizes[j]
    for i in machines:
        if integral[i] < value[i] - max_size[i]:
            raise RoundingError(
                f"machine {i}: rounded value {integral[i]} under the bound "
                f"{value[i]} - {max_size[i]}"
            )
    return owner


# ------------------------------------------------------------------ helpers

def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (RoundingError, ClusteringError) as exc:
        return type(exc).__name__, str(exc)


def stretched(counts, scale, factor):
    # the same rationals over a scale that is not the lcm, as a master's
    # det * bden usually is not
    return {k: c * factor for k, c in counts.items()}, scale * factor


def assert_cover_agrees(weights, tau, cover_rhs, pools, sizes, factor=1):
    sol = ClpSolution.from_weights(tau=tau, weights=weights, cover_rhs=cover_rhs)
    counts, scale = stretched(sol.counts, sol.scale, factor)
    sol = ClpSolution(tau=sol.tau, counts=counts, scale=scale, cover_rhs=sol.cover_rhs)
    got = check_cover_solution(sol, pools, sizes)
    assert got == ref_check_cover_solution(weights, F(tau), F(cover_rhs), pools, sizes)
    return got


def assert_rounding_agrees(y, sizes, factor=1):
    fa = FractionalAssignment.from_y(y, target=ZERO)
    counts, scale = stretched(fa.counts, fa.scale, factor)
    got = outcome(round_assignment, FractionalAssignment(counts, scale, ZERO), sizes)
    assert got == outcome(ref_round_assignment, y, sizes)
    return got


# ------------------------------------------------------------- cover check

def random_cover_case(rng):
    m, n = rng.randint(1, 3), rng.randint(2, 6)
    sizes = [rng.randint(1, 6) for _ in range(n)]
    tau = F(rng.randint(1, 10), rng.choice([1, 1, 2, 3]))
    pools = {i: tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for i in range(m)}
    weights = {}
    for _ in range(rng.randint(0, 5)):
        i = rng.randrange(m)
        jobs = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        # mostly a minimal bundle from the pool, so the later checks run
        if pools[i] and rng.random() < 0.8:
            pool = list(pools[i])
            rng.shuffle(pool)
            chosen, total = [], 0
            for j in pool:
                if total >= tau:
                    break
                chosen.append(j)
                total += sizes[j]
            while any(total - sizes[j] >= tau for j in chosen):
                drop = next(j for j in chosen if total - sizes[j] >= tau)
                chosen.remove(drop)
                total -= sizes[drop]
            jobs = tuple(sorted(chosen))
        den = rng.randint(1, 12)
        num = rng.randint(-1 if rng.random() < 0.1 else 0, den + (rng.random() < 0.1))
        cfg = Configuration(jobs=jobs, total_size=sum(sizes[j] for j in jobs))
        weights[(i, cfg)] = F(num, den)
    cover_rhs = rng.choice([F(1), F(1, 2), F(rng.randint(1, 7), rng.randint(1, 7))])
    return weights, tau, cover_rhs, pools, sizes


def test_cover_check_matches_rational_reference_on_random_solutions():
    kinds = ("out of [0,1]", "outside its pool", "non-minimal", "cover", "used")
    seen = set()
    for seed in range(600):
        rng = Random(seed)
        case = random_cover_case(rng)
        ok, why = assert_cover_agrees(*case, factor=rng.randint(1, 5))
        seen.add("ok" if ok else next(k for k in kinds if k in why))
    assert seen == {"ok", *kinds}


@pytest.mark.parametrize("scale", [7, 12])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_cover_check_boundaries_match_reference(scale, d):
    eps = F(d, scale)
    one = Configuration(jobs=(0,), total_size=3)
    pools, sizes, tau = {0: (0,), 1: (0,)}, [3], F(3)
    # an entry at exactly 0 or 1, and one step either side
    for w in (eps, 1 + eps):
        ok, why = assert_cover_agrees({(0, one): w}, tau, F(0), {0: (0,)}, sizes)
        assert ok == (0 <= w <= 1)
    # a cover exactly at rhs, and one step either side
    for rhs in (F(1, 2), F(1)):
        ok, why = assert_cover_agrees(
            {(0, one): rhs + eps}, tau, rhs, {0: (0,)}, sizes
        )
        assert ok == (d >= 0 and rhs + eps <= 1)
    # usage exactly 1, and one step either side
    ok, why = assert_cover_agrees(
        {(0, one): F(1, 2), (1, one): F(1, 2) + eps}, tau, F(1, 3), pools, sizes, factor=3
    )
    assert ok == (d <= 0)
    if d > 0:
        assert why == f"job 0 used {1 + eps} > 1"


# ----------------------------------------------------------------- rounding

def random_assignment(rng):
    m, n = rng.randint(1, 4), rng.randint(1, 7)
    sizes = [rng.randint(1, 9) for _ in range(n)]
    y = {}
    for j in range(n):
        holders = rng.sample(range(m), rng.randint(1, m))
        den = rng.randint(1, 12)
        for i in holders:
            y[(i, j)] = F(rng.randint(0, den), den)
        # scale the job's entries into total mass <= 1, mostly
        total = sum(y[(i, j)] for i in holders)
        if total > 1 and rng.random() < 0.9:
            for i in holders:
                y[(i, j)] /= total
    if rng.random() < 0.05:
        y[rng.choice(list(y))] = F(-1, rng.randint(1, 9))
    return y, sizes


def test_rounding_matches_rational_reference_on_random_assignments():
    seen = set()
    cyclic = 0
    for seed in range(600):
        rng = Random(seed)
        y, sizes = random_assignment(rng)
        kind, result = assert_rounding_agrees(y, sizes, factor=rng.randint(1, 5))
        seen.add(kind if kind == "ok" else "mass" if "mass" in result else "entry")
        cyclic += kind == "ok" and _find_cycle({e: v for e, v in y.items() if v > 0}) is not None
    assert seen == {"ok", "mass", "entry"}
    assert cyclic >= 100, cyclic


@pytest.mark.parametrize("scale", [7, 12])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_rounding_boundaries_match_reference(scale, d):
    eps = F(d, scale)
    sizes = [4, 6, 5]
    # an entry at exactly 0 or 1, and one step either side
    for v in (eps, 1 + eps):
        kind, _ = assert_rounding_agrees({(0, 0): v, (1, 0): F(0), (1, 1): F(1, 3)}, sizes)
        assert (kind == "ok") == (0 <= v <= 1)
    # a job's mass exactly 1, and one step either side, over a cycle
    y = {(0, 0): F(1, 2), (1, 0): F(1, 2) + eps, (0, 1): F(1, 3), (1, 1): F(2, 3), (2, 2): F(1)}
    kind, result = assert_rounding_agrees(y, sizes, factor=2)
    assert (kind == "ok") == (d <= 0)
    if d > 0:
        assert result == f"job 0 carries fractional mass {1 + eps} > 1"
