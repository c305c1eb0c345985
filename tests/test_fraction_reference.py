"""The integer weight readers against their rational references.

`check_cover_solution`, `round_assignment` and the clustered branch
(`build_big_graph`, `eliminate_cycles`, `extract_clusters`,
`check_cluster_properties`, `check_mclp`) read weights as integer counts over
one scale.  The references below are the same algorithms written over
`fractions.Fraction` (the canceller moving each cycle edge by
+-delta / size(j), with its own cycle search); on random solutions with
random denominators, and on a non-reduced scale, both sides must give the
same verdict, the same message, the same owner map and the same clusters.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from random import Random

import pytest

from santaclaus.clustering import (
    Cluster,
    ClusteringError,
    ClusterSet,
    Composite,
    SaturatedCluster,
    _check_saturated,
    bipartite_match,
    build_big_graph,
    check_cluster_properties,
    eliminate_cycles,
    extract_clusters,
)
from santaclaus.configlp import (
    ClpSolution,
    Configuration,
    FractionalAssignment,
    check_cover_solution,
    check_mclp,
    route,
)
from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines
from santaclaus.rounding import RoundingError, _assert_forest, round_assignment
from conftest import clp_from_weights, tiny_instance, to_counts

F = Fraction
ZERO = F(0)


# ------------------------------------------------------- rational references

def ref_is_minimal(jobs, tau, sizes):
    total = sum(sizes[j] for j in set(jobs))
    return total >= tau and all(total - sizes[j] < tau for j in set(jobs))


def ref_check_cover_solution(weights, tau, pools, sizes):
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
        if covered < 1:
            return False, f"machine {i} cover {covered} < 1"
    for j, used in sorted(usage.items()):
        if used > 1:
            return False, f"job {j} used {used} > 1"
    return True, None


def ref_find_cycle(weights):
    adj = {}
    for i, j in weights:
        adj.setdefault(("m", i), []).append(("j", j))
        adj.setdefault(("j", j), []).append(("m", i))
    for v in adj:
        adj[v].sort()
    visited, parent = set(), {}

    def dfs(v):
        visited.add(v)
        for u in adj[v]:
            if u == parent[v]:
                continue
            if u in visited:
                path = [v]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return path
            parent[u] = v
            found = dfs(u)
            if found is not None:
                return found
        return None

    for start in sorted(adj):
        if start in visited:
            continue
        parent[start] = None
        cycle_vertices = dfs(start)
        if cycle_vertices is not None:
            verts = cycle_vertices + [cycle_vertices[0]]
            return [(a[1], b[1]) if a[0] == "m" else (b[1], a[1]) for a, b in zip(verts, verts[1:])]
    return None


def ref_cancel_cycles(weights, size):
    # edges move by +-delta / size(j), delta the least size-weighted
    # decremented weight
    weights = dict(weights)
    while True:
        cycle = ref_find_cycle(weights)
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


def ref_build_big_graph(weights, job_classes, machine_classes):
    graph = {}
    for (i, cfg), w in weights.items():
        if w == 0 or i not in machine_classes.upper:
            continue
        if len(cfg.jobs) == 1 and cfg.jobs[0] in job_classes.big:
            graph[(i, cfg.jobs[0])] = graph.get((i, cfg.jobs[0]), ZERO) + w
    return {e: w for e, w in graph.items() if w > 0}


def ref_eliminate_cycles(graph, weights, gap):
    # a big singleton counts 1 toward its machine's cover: size 1 everywhere
    forest = ref_cancel_cycles(graph, lambda j: 1)
    machines = {i for i, _ in graph}
    jobs = {j for _, j in graph}
    xstar = {
        (i, cfg): w
        for (i, cfg), w in weights.items()
        if not (len(cfg.jobs) == 1 and cfg.jobs[0] in jobs and i in machines)
    }
    for (i, j), w in forest.items():
        xstar[(i, Configuration(jobs=(j,), total_size=gap.tau))] = w
    return forest, xstar


def ref_small_mass(xstar, job_classes):
    mass = {}
    for (i, cfg), w in xstar.items():
        if set(cfg.jobs) <= job_classes.small:
            mass[i] = mass.get(i, ZERO) + w
    return mass


def ref_extract_clusters(forest, xstar, job_classes, machine_classes, gap):
    # returns (supers, saturated, composites)
    small_mass = ref_small_mass(xstar, job_classes)
    adj_m, adj_j = {}, {}
    for i, j in forest:
        adj_m.setdefault(i, []).append(j)
        adj_j.setdefault(j, []).append(i)
    for adj in (adj_m, adj_j):
        for v in adj:
            adj[v].sort()
    emitted, seen_machines = [], set()
    for root in sorted(machine_classes.upper):
        if root in seen_machines:
            continue
        if root not in adj_m:
            raise ClusteringError(
                f"upper machine {root} has no big support edge; classification bug"
            )
        children_jobs, children_machines = {root: []}, {}
        order, seen_jobs, queue = [root], set(), [root]
        seen_machines.add(root)
        while queue:
            i = queue.pop(0)
            children_jobs.setdefault(i, [])
            for j in adj_m.get(i, ()):
                if j in seen_jobs:
                    continue
                seen_jobs.add(j)
                children_jobs[i].append(j)
                children_machines[j] = []
                for w in adj_j.get(j, ()):
                    if w in seen_machines:
                        continue
                    seen_machines.add(w)
                    children_machines[j].append(w)
                    order.append(w)
                    queue.append(w)
        cluster_of = {i: {"machines": [i], "jobs": []} for i in order}
        for v in reversed(order):
            mine = cluster_of[v]
            for j in children_jobs.get(v, ()):
                kids = children_machines.get(j, [])
                if not kids:
                    continue
                best = max(kids, key=lambda w: (forest[(w, j)], -w))
                emitted.extend(cluster_of[w] for w in kids if w is not best)
                mine["machines"].extend(cluster_of[best]["machines"])
                mine["jobs"].extend(cluster_of[best]["jobs"])
                mine["jobs"].append(j)
        emitted.append(cluster_of[root])
    covered = [i for c in emitted for i in c["machines"]]
    if sorted(covered) != sorted(machine_classes.upper):
        raise ClusteringError(
            f"clusters cover machines {sorted(covered)}, not the upper machines "
            f"{sorted(machine_classes.upper)}"
        )
    keep, defects = [], []
    for c in emitted:
        if sum((small_mass.get(i, ZERO) for i in c["machines"]), ZERO) >= F(1, 2):
            keep.append(Cluster(machines=tuple(sorted(c["machines"])), jobs=tuple(sorted(c["jobs"]))))
        else:
            defects.append(c)
    keep.sort(key=lambda c: c.machines[0])
    saturated = []
    if defects:
        candidates = set(job_classes.big) - {j for c in keep for j in c.jobs}
        left = sorted(i for c in defects for i in c["machines"])
        # the same raising rule through the same flow, sources largest
        # first: while a matching on jobs larger than the smallest one
        # matched exists, take it
        size = {j: gap.base.jobs[j].size for j in candidates}
        matching, low = None, 0
        while True:
            jobs = sorted((j for j in candidates if size[j] > low), key=lambda j: (-size[j], j))
            reach = [[k for k, i in enumerate(left) if i in gap.base.jobs[j].eligible] for j in jobs]
            flows = route(reach, [1] * len(jobs), [1] * len(left))
            if flows is None:
                break
            matching = {left[k]: j for j, f in zip(jobs, flows) for k in f}
            low = min(size[j] for j in matching.values())
        if matching is None:
            raise ClusteringError(
                f"clustering postcondition violated: machines {left} of clusters with "
                "small weight below 1/2 have no big-job matching"
            )
        for c in defects:
            pairs = [(i, matching[i]) for i in sorted(c["machines"])]
            saturated.append(
                SaturatedCluster(
                    machines=tuple(sorted(c["machines"])),
                    jobs=tuple(sorted(j for _, j in pairs)),
                    assignment=tuple(pairs),
                )
            )
        saturated.sort(key=lambda c: c.machines[0])
    composites = tuple(
        [Composite(machines=c.machines, kind="super") for c in keep]
        + [Composite(machines=(i,), kind="middle") for i in sorted(machine_classes.middle)]
    )
    ok, why = ref_check_cluster_properties(keep, xstar, job_classes, gap)
    if not ok:
        raise ClusteringError(f"clustering postcondition violated: {why}")
    # the saturation check reads no weight
    _check_saturated(
        ClusterSet(
            supers=tuple(keep),
            saturated=tuple(saturated),
            composites=composites,
            xstar=None,
            gap=gap,
            job_classes=job_classes,
            machine_classes=machine_classes,
        )
    )
    return tuple(keep), tuple(saturated), composites


def ref_check_cluster_properties(supers, xstar, job_classes, gap):
    small_mass = ref_small_mass(xstar, job_classes)
    for k, cluster in enumerate(supers):
        if len(cluster.jobs) != len(cluster.machines) - 1:
            return False, (
                f"cluster {k}: property 1 fails, |jobs|={len(cluster.jobs)} "
                f"but |machines|-1={len(cluster.machines) - 1}"
            )
        for leave_out in cluster.machines:
            targets = set(cluster.machines) - {leave_out}
            adj = {j: sorted(gap.base.jobs[j].eligible & targets) for j in cluster.jobs}
            if bipartite_match(list(cluster.jobs), adj) is None:
                return False, f"cluster {k}: property 2 fails leaving out machine {leave_out}"
        total_small = sum((small_mass.get(i, ZERO) for i in cluster.machines), ZERO)
        if total_small < F(1, 2):
            return False, f"cluster {k}: property 3 fails, small weight {total_small} < 1/2"
    return True, None


def ref_check_mclp(composites, xstar, small):
    for d, comp in enumerate(composites):
        mass = sum(
            (w for (i, cfg), w in xstar.items() if i in comp.machines and set(cfg.jobs) <= small),
            ZERO,
        )
        if mass < F(1, 2):
            return False, f"composite {d} (machines {list(comp.machines)}) small weight {mass} < 1/2"
    usage = {}
    for (i, cfg), w in xstar.items():
        if set(cfg.jobs) <= small:
            for j in cfg.jobs:
                usage[j] = usage.get(j, ZERO) + w
    for j in sorted(usage):
        if usage[j] > 1:
            return False, f"small job {j} used {usage[j]} > 1"
    return True, None


# ------------------------------------------------------------------ helpers

def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (RoundingError, ClusteringError) as exc:
        return type(exc).__name__, str(exc)


def stretched(counts, scale, factor):
    # the same rationals over a scale that is not the lcm, as a master's
    # det usually is not
    return {k: c * factor for k, c in counts.items()}, scale * factor


def assert_cover_agrees(weights, tau, pools, sizes, factor=1):
    # the check reads the integer need ceil(tau), the reference the rational
    # tau: totals are integers, so both must decide alike
    sol = clp_from_weights(weights, ceil(tau))
    counts, scale = stretched(sol.counts, sol.scale, factor)
    sol = ClpSolution(tau=sol.tau, counts=counts, scale=scale)
    got = check_cover_solution(sol, pools, sizes)
    assert got == ref_check_cover_solution(weights, F(tau), pools, sizes)
    return got


def assert_rounding_agrees(y, sizes, factor=1):
    counts, scale = stretched(*to_counts(y), factor)
    got = outcome(round_assignment, FractionalAssignment(counts, scale), sizes)
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
    return weights, tau, pools, sizes


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
    one, two, three = (Configuration(jobs=(j,), total_size=3) for j in range(3))
    pools, sizes, tau = {0: (0, 1), 1: (0, 2)}, [3, 3, 3], F(3)
    # an entry at exactly 0 or 1, and one step either side; job 1 covers
    for w in (eps, 1 + eps):
        ok, why = assert_cover_agrees({(0, one): w, (0, two): F(1)}, tau, {0: (0, 1)}, sizes)
        assert ok == (0 <= w <= 1)
    # a cover exactly at 1, and one step either side
    ok, why = assert_cover_agrees(
        {(0, one): F(1, 2) + eps, (0, two): F(1, 2)}, tau, {0: (0, 1)}, sizes
    )
    assert ok == (d >= 0)
    # usage exactly 1, and one step either side; jobs 1 and 2 cover
    ok, why = assert_cover_agrees(
        {(0, one): F(1, 2), (1, one): F(1, 2) + eps, (0, two): F(1), (1, three): F(1)},
        tau, pools, sizes, factor=3,
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


def shared_jobs(y):
    """Jobs with positive mass on two or more machines."""
    holders = {}
    for (i, j), v in y.items():
        if v > 0:
            holders[j] = holders.get(j, 0) + 1
    return {j for j, h in holders.items() if h > 1}


def test_rounding_matches_rational_reference_on_random_assignments():
    # round_assignment cancels cycles only when some job is shared; both the
    # star supports that skip it and the cyclic ones must match the reference
    seen = set()
    cyclic = star = 0
    for seed in range(600):
        rng = Random(seed)
        y, sizes = random_assignment(rng)
        kind, result = assert_rounding_agrees(y, sizes, factor=rng.randint(1, 5))
        seen.add(kind if kind == "ok" else "mass" if "mass" in result else "entry")
        cyclic += kind == "ok" and ref_find_cycle({e: v for e, v in y.items() if v > 0}) is not None
        star += kind == "ok" and not shared_jobs(y)
    assert seen == {"ok", "mass", "entry"}
    assert cyclic >= 100, cyclic
    assert star >= 150, star


@pytest.mark.parametrize(
    "y,shared,cancels",
    [
        # no job on two machines: the support is a forest as it stands
        ({(0, 0): F(1, 2), (0, 1): F(1), (1, 2): F(2, 3), (1, 3): F(1, 3)}, set(), False),
        # exactly one shared job: no cycle can form (a bipartite cycle
        # passes through two jobs at least), yet the canceller runs
        ({(0, 0): F(1, 2), (1, 0): F(1, 3), (0, 1): F(3, 4), (1, 2): F(1)}, {0}, True),
        # a 4-cycle through jobs 0 and 1, with private jobs on both machines
        (
            {(0, 0): F(1, 2), (1, 0): F(1, 2), (0, 1): F(1, 3), (1, 1): F(2, 3),
             (0, 2): F(1), (1, 3): F(1, 2)},
            {0, 1},
            True,
        ),
    ],
)
def test_rounding_cancels_cycles_only_when_a_job_is_shared(monkeypatch, y, shared, cancels):
    import santaclaus.rounding as rounding

    calls = []
    cancel = rounding.cancel_cycles

    def counted(weights):
        calls.append(weights)
        return cancel(weights)

    monkeypatch.setattr(rounding, "cancel_cycles", counted)
    assert shared_jobs(y) == shared
    kind, _ = assert_rounding_agrees(y, [4, 6, 5, 3])
    assert kind == "ok"
    assert len(calls) == cancels


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


# -------------------------------------------------------- clustered branch

def split(rng, total, keys):
    # ``total`` over ``keys`` in random positive parts, so the weights get
    # denominators of their own
    parts = [rng.randint(1, 7) for _ in keys]
    return {k: total * F(p, sum(parts)) for k, p in zip(keys, parts)}


def random_clustered_case(rng):
    # big jobs shared by most machines, so the big support has cycles; a
    # machine is upper (big weight >= 1/2) or middle (small weight >= 1/2),
    # and weights often sit exactly at 1/2
    m, nbig, nsmall, T = rng.randint(2, 5), rng.randint(2, 4), 8, 24
    jobs = [(T + rng.randrange(6), rng.sample(range(m), rng.randint(1, m))) for _ in range(nbig)]
    jobs += [(1, range(m))] * nsmall
    inst = tiny_instance(jobs, machines=m)
    gap = build_gap_instance(inst, T)
    weights = {}
    for i in range(m):
        den = rng.randint(1, 12)
        big = [j for j in range(nbig) if i in inst.jobs[j].eligible]
        if big and rng.random() < 0.7:
            big_mass = rng.choice([F(1, 2), F(1), F(rng.randint(-(-den // 2), den), den)])
            small_mass = rng.choice([1 - big_mass, F(rng.randint(0, den), den) * (1 - big_mass)])
        else:
            big_mass = F(rng.randint(0, -(-den // 2) - 1), den) if big else ZERO
            small_mass = rng.choice([F(1, 2), 1 - big_mass, F(1, 2) + F(1, 2 * den)])
        held = rng.sample(big, rng.randint(1, len(big))) if big and big_mass else []
        for j, w in split(rng, big_mass, held).items():
            weights[(i, Configuration(jobs=(j,), total_size=T))] = w
        bundles = {
            tuple(sorted(rng.sample(range(nbig, nbig + nsmall), rng.randint(1, 3))))
            for _ in range(rng.randint(1, 2))
        }
        for jobs_, w in split(rng, small_mass, sorted(bundles)).items():
            if w:
                weights[(i, Configuration(jobs=jobs_, total_size=len(jobs_)))] = w
    return gap, weights


def run_clustered(gap, x):
    # the integer chain, on solution x
    jc = classify_jobs(gap)
    mc = classify_machines(gap, jc, x)
    graph = build_big_graph(gap, x, jc, mc)
    forest, xstar = eliminate_cycles(graph, x, gap)
    try:
        clusters = extract_clusters(forest, xstar, jc, mc, gap)
    except ClusteringError as exc:
        return graph, forest, xstar, ("ClusteringError", str(exc))
    singles = tuple(Cluster(machines=(i,), jobs=()) for i in range(gap.base.machine_count))
    each = ClusterSet(
        supers=singles,
        saturated=(),
        composites=tuple(Composite(machines=c.machines, kind="middle") for c in singles),
        xstar=xstar,
        gap=gap,
        job_classes=jc,
        machine_classes=mc,
    )
    return graph, forest, xstar, (
        "ok",
        (clusters.supers, clusters.saturated, clusters.composites),
        check_cluster_properties(clusters, gap),
        check_mclp(clusters),
        check_cluster_properties(each, gap),
        check_mclp(each),
    )


def ref_run_clustered(gap, weights):
    jc = classify_jobs(gap)
    mc = classify_machines(gap, jc, clp_from_weights(weights, gap.tau))
    graph = ref_build_big_graph(weights, jc, mc)
    forest, xstar = ref_eliminate_cycles(graph, weights, gap)
    try:
        supers, saturated, composites = ref_extract_clusters(forest, xstar, jc, mc, gap)
    except ClusteringError as exc:
        return graph, forest, xstar, ("ClusteringError", str(exc))
    singles = tuple(Cluster(machines=(i,), jobs=()) for i in range(gap.base.machine_count))
    return graph, forest, xstar, (
        "ok",
        (supers, saturated, composites),
        ref_check_cluster_properties(supers, xstar, jc, gap),
        ref_check_mclp(composites, xstar, jc.small),
        ref_check_cluster_properties(singles, xstar, jc, gap),
        ref_check_mclp(
            tuple(Composite(machines=c.machines, kind="middle") for c in singles), xstar, jc.small
        ),
    )


def test_clustered_branch_matches_rational_reference_on_random_solutions():
    seen = {"rotated": 0, "absorbed": 0, "saturated": 0, "error": 0, "at half": 0}
    verdicts = [set(), set(), set(), set()]
    for seed in range(400):
        rng = Random(seed)
        gap, weights = random_clustered_case(rng)
        x = clp_from_weights(weights, gap.tau)
        counts, scale = stretched(x.counts, x.scale, rng.randint(1, 5))
        x = ClpSolution(tau=x.tau, counts=counts, scale=scale)
        graph, forest, xstar, got = run_clustered(gap, x)
        ref_graph, ref_forest, ref_xstar, want = ref_run_clustered(gap, weights)
        # the same support and the same weights, as counts over x's scale
        assert graph == {e: w * scale for e, w in ref_graph.items()}
        assert list(forest) == list(ref_forest)
        assert forest == {e: w * scale for e, w in ref_forest.items()}
        assert xstar.scale == scale
        assert xstar.counts == {k: w * scale for k, w in ref_xstar.items()}
        assert got == want
        seen["rotated"] += len(ref_forest) < len(ref_graph)
        if got[0] == "ok":
            supers, saturated, _ = got[1]
            seen["absorbed"] += any(len(c.machines) > 1 for c in supers)
            seen["saturated"] += bool(saturated)
            for kinds, (ok, why) in zip(verdicts, got[2:]):
                kinds.add("ok" if ok else next(k for k in ("property 3", "composite", "used") if k in why))
        else:
            seen["error"] += 1
        mass = ref_small_mass(ref_xstar, classify_jobs(gap))
        seen["at half"] += F(1, 2) in mass.values()
    assert min(seen.values()) >= 10, seen
    # extraction keeps only clusters at >= 1/2, so only the per-machine
    # checks see small weight below 1/2
    assert verdicts == [{"ok"}, {"ok", "used"}, {"ok", "property 3"}, {"ok", "composite", "used"}]
