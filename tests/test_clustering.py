from fractions import Fraction

from santaclaus.clustering import (
    Cluster,
    ClusterSet,
    bipartite_match,
    build_big_graph,
    cancel_cycles,
    check_cluster_properties,
    eliminate_cycles,
    extract_clusters,
)
from santaclaus.configlp import Configuration, machine_pools, solve_clp_feasibility
from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines
from conftest import clp_from_weights, tiny_instance, weights_of

F = Fraction


def big_single(j, t):
    return Configuration(jobs=(j,), total_size=t)


def totals(graph, scale):
    # each machine's and each job's total weight in a (machine, job) -> count
    # graph over ``scale``
    machines, jobs = {}, {}
    for (i, j), c in graph.items():
        machines[i] = machines.get(i, 0) + F(c, scale)
        jobs[j] = jobs.get(j, 0) + F(c, scale)
    return machines, jobs


# ------------------------------------------------------------- big graph

def test_build_graph_single_edge():
    inst = tiny_instance([(20, [0])] + [(1, [0])] * 8, machines=1)
    gap = build_gap_instance(inst, 20)
    jc = classify_jobs(gap)
    x = clp_from_weights(
        {
            (0, big_single(0, 20)): F(3, 5),
            (0, Configuration(jobs=tuple(range(1, 9)), total_size=8)): F(2, 5),
        },
        20,
    )
    # 8 unit jobs total 8 < 20: not actually covering, but the graph builder
    # only reads big-singleton weights.
    mc = classify_machines(gap, jc, x)
    g = build_big_graph(gap, x, jc, mc)
    assert x.scale == 5 and g == {(0, 0): 3}


def test_build_graph_no_upper_machines_is_empty():
    inst = tiny_instance([(1, [0])] * 13, machines=1)
    gap = build_gap_instance(inst, 13)
    jc = classify_jobs(gap)
    assert jc.small == frozenset(range(13))
    x = clp_from_weights(
        {(0, Configuration(jobs=tuple(range(13)), total_size=13)): F(1)}, 13
    )
    mc = classify_machines(gap, jc, x)
    g = build_big_graph(gap, x, jc, mc)
    assert g == {}


def test_build_graph_shared_job():
    inst = tiny_instance([(10, [0, 1]), (10, [0]), (10, [1])], machines=2)
    gap = build_gap_instance(inst, 10)
    jc = classify_jobs(gap)
    x = clp_from_weights(
        {
            (0, big_single(0, 10)): F(1, 2),
            (1, big_single(0, 10)): F(1, 2),
            (0, big_single(1, 10)): F(1, 2),
            (1, big_single(2, 10)): F(1, 2),
        },
        10,
    )
    mc = classify_machines(gap, jc, x)
    g = build_big_graph(gap, x, jc, mc)
    machines, jobs = totals(g, x.scale)
    assert jobs[0] == 1
    assert machines[0] == 1 == machines[1]


# ------------------------------------------------------------- cycles

def make_gap_for_graph(m, njobs, t):
    inst = tiny_instance([(t, list(range(m)))] * njobs, machines=m)
    return build_gap_instance(inst, t)


def test_eliminate_cycles_acyclic_fixed_point():
    gap = make_gap_for_graph(2, 2, 9)
    weights = {(0, 0): F(1, 2), (1, 0): F(1, 2), (1, 1): F(1, 2)}
    x = clp_from_weights(
        {(i, big_single(j, 9)): w for (i, j), w in weights.items()}, 9
    )
    g = {e: int(w * x.scale) for e, w in weights.items()}
    forest, xstar = eliminate_cycles(g, x, gap)
    assert forest == g
    assert xstar == x


def test_eliminate_cycles_four_cycle_preserves_totals():
    gap = make_gap_for_graph(2, 2, 9)
    weights = {
        (0, 0): F(1, 2),
        (0, 1): F(1, 2),
        (1, 0): F(1, 2),
        (1, 1): F(1, 2),
    }
    x = clp_from_weights(
        {(i, big_single(j, 9)): w for (i, j), w in weights.items()}, 9
    )
    g = {e: int(w * x.scale) for e, w in weights.items()}
    forest, xstar = eliminate_cycles(g, x, gap)
    # hand simulation: rotation around the 4-cycle with eps=1/2 zeroes the
    # smallest edge (0,0) and its opposite, doubling the other pair
    assert len(forest) < 4
    machines, jobs = totals(forest, x.scale)
    for i in (0, 1):
        assert machines[i] == 1
    for j in (0, 1):
        assert jobs[j] == 1
    # the covering solution mirrors the graph exactly, on x's scale
    assert xstar.scale == x.scale
    for (i, j), c in forest.items():
        assert xstar.counts[(i, big_single(j, 9))] == c


def test_eliminate_cycles_two_disjoint_cycles():
    gap = make_gap_for_graph(4, 4, 9)
    weights = {}
    for base in (0, 2):
        for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
            weights[(base + di, base + dj)] = F(1, 2)
    x = clp_from_weights(
        {(i, big_single(j, 9)): w for (i, j), w in weights.items()},
        9,
    )
    g = {e: int(w * x.scale) for e, w in weights.items()}
    forest, _ = eliminate_cycles(g, x, gap)
    assert len(forest) <= len(weights) - 2
    machines, jobs = totals(forest, x.scale)
    for i in range(4):
        assert machines[i] == 1
    for j in range(4):
        assert jobs[j] == 1


def assert_cycles_cancelled(before, after, size):
    # a forest, every entry in [0, 1], job totals and each machine's
    # size-weighted total exactly as before
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for i, j in after:
        a, b = find(("m", i)), find(("j", j))
        assert a != b, f"cycle through edge {(i, j)}"
        parent[a] = b
    assert all(0 <= v <= 1 for v in after.values())

    def totals(weights):
        jobs, machines = {}, {}
        for (i, j), v in weights.items():
            jobs[j] = jobs.get(j, 0) + v
            machines[i] = machines.get(i, 0) + v * size(j)
        return jobs, machines

    assert totals(after) == totals(before)


def size_weighted_cancel(before, sizes, scale=1):
    # cancel on the size-weighted masses y * size * scale, as rounding does,
    # and read y back
    weighted = {(i, j): v * sizes[j] * scale for (i, j), v in before.items()}
    return {(i, j): F(w, sizes[j] * scale) for (i, j), w in cancel_cycles(weighted).items()}


def test_cancel_cycles_two_by_two_with_unequal_sizes():
    # sizes 3 and 5, every y = 1/2: over scale 2 the size-weighted counts are
    # 3, 5, 3, 5 and delta = 3, so the job-0 edges move y by 1/2 and the job-1
    # edges by 3/10, and each machine's value stays 4
    sizes = [3, 5]
    half = F(1, 2)
    before = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half}
    counts = cancel_cycles({(0, 0): 3, (0, 1): 5, (1, 0): 3, (1, 1): 5})
    assert counts == {(0, 1): 8, (1, 0): 6, (1, 1): 2}
    assert all(type(c) is int for c in counts.values())
    after = size_weighted_cancel(before, sizes, scale=2)
    assert after == {(0, 1): F(4, 5), (1, 0): F(1), (1, 1): F(1, 5)}
    assert_cycles_cancelled(before, after, lambda j: sizes[j])


def test_cancel_cycles_random_supports_with_unequal_sizes():
    from random import Random

    cancelled = 0
    for seed in range(60):
        rng = Random(seed)
        m, n = rng.randint(2, 4), rng.randint(2, 6)
        sizes = [rng.randint(1, 9) for _ in range(n)]
        before = {}
        for j in range(n):
            holders = rng.sample(range(m), rng.randint(1, m))
            parts = [rng.randint(1, 5) for _ in holders]
            denominator = sum(parts) + rng.randint(0, 3)
            for i, part in zip(holders, parts):
                before[(i, j)] = F(part, denominator)
        after = size_weighted_cancel(before, sizes)
        assert_cycles_cancelled(before, after, lambda j: sizes[j])
        cancelled += len(after) < len(before)
    assert cancelled >= 30


# ------------------------------------------------------------- extraction

def run_clustering(inst, T):
    gap = build_gap_instance(inst, T)
    jc = classify_jobs(gap)
    x = solve_clp_feasibility(
        inst, T, pools=machine_pools(inst), sizes=gap.gap_size
    )
    assert x is not None
    mc = classify_machines(gap, jc, x)
    g = build_big_graph(gap, x, jc, mc)
    forest, xstar = eliminate_cycles(g, x, gap)
    return extract_clusters(forest, xstar, jc, mc, gap), mc


def test_two_middle_machines_become_singleton_composites():
    # thirteen unit jobs per machine, disjoint: T = 13, everything small
    jobs = [(1, [0])] * 13 + [(1, [1])] * 13
    inst = tiny_instance(jobs, machines=2)
    clusters, mc = run_clustering(inst, 13)
    assert mc.middle == {0, 1}
    assert clusters.supers == ()
    assert clusters.saturated == ()
    assert [c.kind for c in clusters.composites] == ["middle", "middle"]


def test_star_cluster_two_machines_one_job():
    # a big job split half-half between two machines becomes a two-machine
    # super with the job as its connector
    from conftest import handmade_super_case

    inst, clusters = handmade_super_case()
    assert len(clusters.supers) == 1
    cluster = clusters.supers[0]
    assert cluster.machines == (0, 1)
    assert cluster.jobs == (0,)
    ok, why = check_cluster_properties(clusters, clusters.gap)
    assert ok, why
    assert [c.kind for c in clusters.composites] == ["super"]


def test_mixed_instance_clusters_validate():
    jobs = [(26, [0, 1])] + [(1, [0])] * 13 + [(1, [1])] * 13
    inst = tiny_instance(jobs, machines=2)
    clusters, mc = run_clustering(inst, 13)
    for cluster in clusters.supers:
        assert len(cluster.jobs) == len(cluster.machines) - 1
    ok, why = check_cluster_properties(clusters, clusters.gap)
    assert ok, why


def test_saturated_cluster_when_no_small_mass():
    # the symmetric pair: both machines fully covered by big singletons
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    clusters, mc = run_clustering(inst, 4)
    assert mc.upper == {0, 1}
    assert clusters.supers == ()
    assert clusters.composites == ()
    got = sorted(
        (i, j) for c in clusters.saturated for (i, j) in c.assignment
    )
    assert [i for i, _ in got] == [0, 1]
    assert sorted(j for _, j in got) == [0, 1]


def test_single_machine_single_big_job_saturates():
    inst = tiny_instance([(5, [0])], machines=1)
    clusters, mc = run_clustering(inst, 5)
    assert clusters.supers == ()
    assert len(clusters.saturated) == 1
    assert clusters.saturated[0].assignment == ((0, 0),)


# ------------------------------------------------------------- checker

def checker_fixture():
    jobs = [(26, [0, 1])] + [(1, [0])] * 13 + [(1, [1])] * 13
    inst = tiny_instance(jobs, machines=2)
    gap = build_gap_instance(inst, 13)
    jc = classify_jobs(gap)
    x = solve_clp_feasibility(inst, 13, pools=machine_pools(inst), sizes=gap.gap_size)
    mc = classify_machines(gap, jc, x)
    return inst, gap, jc, mc, x


def test_checker_rejects_wrong_counts():
    inst, gap, jc, mc, x = checker_fixture()
    bad = ClusterSet(
        supers=(Cluster(machines=(0,), jobs=(0,)),),  # |J| == |M|
        saturated=(),
        composites=(),
        xstar=x,
        gap=gap,
        job_classes=jc,
        machine_classes=mc,
    )
    ok, why = check_cluster_properties(bad, gap)
    assert not ok and "property 1" in why


def test_checker_rejects_infeasible_placement():
    inst, gap, jc, mc, x = checker_fixture()
    # job 1 is only eligible on machine 0: leaving machine 1 out forces it
    # onto machine 0... but leaving machine 0 out strands it.
    bad = ClusterSet(
        supers=(Cluster(machines=(0, 1), jobs=(1,)),),
        saturated=(),
        composites=(),
        xstar=x,
        gap=gap,
        job_classes=jc,
        machine_classes=mc,
    )
    ok, why = check_cluster_properties(bad, gap)
    assert not ok and "property 2" in why


def test_checker_rejects_small_starved_cluster():
    inst, gap, jc, mc, x = checker_fixture()
    # a super made only of machine 0 while stripping its small columns
    stripped = {
        key: w for key, w in weights_of(x).items() if set(key[1].jobs) <= jc.big
    }
    hollow = clp_from_weights(stripped, x.tau)
    bad = ClusterSet(
        supers=(Cluster(machines=(0,), jobs=()),),
        saturated=(),
        composites=(),
        xstar=hollow,
        gap=gap,
        job_classes=jc,
        machine_classes=mc,
    )
    ok, why = check_cluster_properties(bad, gap)
    assert not ok and "property 3" in why


def test_bipartite_match_small_cases():
    # a matching that leaves a vertex of ``left`` out is no answer
    assert bipartite_match([0, 1], {0: [10], 1: [10]}) is None
    assert bipartite_match([0, 1], {0: [10, 11]}) is None
    assert bipartite_match([0, 1], {0: [10, 11], 1: [10]}) == {0: 11, 1: 10}
    assert bipartite_match([], {}) == {}


def best_bottleneck(inst, T):
    """The largest, over injective maps of machines to eligible big jobs
    (size >= T/12), of the smallest job mapped; None if there is no map."""
    from itertools import permutations

    big = [j for j, job in enumerate(inst.jobs) if 12 * job.size >= T]
    best = None
    for jobs in permutations(big, inst.machine_count):
        if all(i in inst.jobs[j].eligible for i, j in enumerate(jobs)):
            low = min(inst.jobs[j].size for j in jobs)
            best = low if best is None else max(best, low)
    return best


def test_saturated_clusters_keep_their_largest_big_jobs():
    # with no super and no composite every machine is saturated and holds
    # exactly its one matched big job, so min_value is the matching's
    # smallest job, and the raising rule must make that the best possible
    from santaclaus import generate_random, solve

    checked = 0
    for seed in range(30):
        inst = generate_random(m=4, n=14, max_size=20, density=F(1, 2), seed=seed)
        report = solve(inst)
        if report.branch != "clustered":
            continue
        if report.counters["supers"] or report.counters["composites"]:
            continue
        assert report.allocation.min_value == best_bottleneck(inst, report.T), seed
        checked += 1
    assert checked >= 20, checked



def test_cycle_invariant_survives_python_O():
    # the clustering invariants must not be bare asserts: under -O a
    # sabotaged cycle finder that hands back an odd "cycle" still has to stop
    # the cycle elimination with a named error
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
import santaclaus.clustering as clu
from santaclaus.configlp import ClpSolution
from santaclaus.gapclasses import build_gap_instance
from santaclaus.instances import Instance, JobSpec
assert sys.flags.optimize, "not running under -O"
graph = {(0, 0): 1, (0, 1): 1, (1, 1): 1}
found = iter([[(0, 0), (0, 1), (1, 1)], None])
clu._find_cycle = lambda adj: next(found)
inst = Instance(machine_count=2, jobs=(JobSpec(4, frozenset([0, 1])),) * 2)
x = ClpSolution(tau=4, counts={}, scale=2)
try:
    clu.eliminate_cycles(graph, x, build_gap_instance(inst, 4))
except clu.ClusteringError as exc:
    print("raised:", exc)
else:
    sys.exit("the odd cycle went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: odd cycle [(0, 0), (0, 1), (1, 1)] in a bipartite support graph" in proc.stdout
