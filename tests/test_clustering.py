from fractions import Fraction

from santaclaus.clustering import (
    BigGraph,
    Cluster,
    ClusterSet,
    bipartite_match,
    build_big_graph,
    cancel_cycles,
    check_cluster_properties,
    eliminate_cycles,
    extract_clusters,
)
from santaclaus.configlp import ClpSolution, Configuration, machine_pools, solve_clp_feasibility
from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines
from conftest import tiny_instance

F = Fraction


def clp_from_weights(weights, tau):
    return ClpSolution(tau=F(tau), weights=weights, cover_rhs=F(1))


def big_single(j, t):
    return Configuration(jobs=(j,), total_size=t)


# ------------------------------------------------------------- big graph

def test_build_graph_single_edge():
    inst = tiny_instance([(20, [0])] + [(1, [0])] * 8, machines=1)
    gap = build_gap_instance(inst, F(20))
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
    assert g.weights == {(0, 0): F(3, 5)}


def test_build_graph_no_upper_machines_is_empty():
    inst = tiny_instance([(1, [0])] * 13, machines=1)
    gap = build_gap_instance(inst, F(13))
    jc = classify_jobs(gap)
    assert jc.small == frozenset(range(13))
    x = clp_from_weights(
        {(0, Configuration(jobs=tuple(range(13)), total_size=13)): F(1)}, 13
    )
    mc = classify_machines(gap, jc, x)
    g = build_big_graph(gap, x, jc, mc)
    assert g.weights == {}


def test_build_graph_shared_job():
    inst = tiny_instance([(10, [0, 1]), (10, [0]), (10, [1])], machines=2)
    gap = build_gap_instance(inst, F(10))
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
    assert g.job_total(0) == 1
    assert g.machine_total(0) == 1 == g.machine_total(1)


# ------------------------------------------------------------- cycles

def make_gap_for_graph(m, njobs, t):
    inst = tiny_instance([(t, list(range(m)))] * njobs, machines=m)
    return build_gap_instance(inst, F(t))


def test_eliminate_cycles_acyclic_fixed_point():
    gap = make_gap_for_graph(2, 2, 9)
    weights = {(0, 0): F(1, 2), (1, 0): F(1, 2), (1, 1): F(1, 2)}
    x = clp_from_weights(
        {(i, big_single(j, 9)): w for (i, j), w in weights.items()}, 9
    )
    g = BigGraph(weights=dict(weights))
    forest, xstar = eliminate_cycles(g, x, gap)
    assert forest.weights == weights
    assert xstar.weights == x.weights


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
    g = BigGraph(weights=dict(weights))
    forest, xstar = eliminate_cycles(g, x, gap)
    # hand simulation: rotation around the 4-cycle with eps=1/2 zeroes the
    # smallest edge (0,0) and its opposite, doubling the other pair
    assert len(forest.weights) < 4
    for i in (0, 1):
        assert forest.machine_total(i) == 1
    for j in (0, 1):
        assert forest.job_total(j) == 1
    # the covering solution mirrors the graph exactly
    for (i, j), w in forest.weights.items():
        assert xstar.weights[(i, big_single(j, 9))] == w


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
    g = BigGraph(weights=dict(weights))
    forest, _ = eliminate_cycles(g, x, gap)
    assert len(forest.weights) <= len(weights) - 2
    for i in range(4):
        assert forest.machine_total(i) == 1
    for j in range(4):
        assert forest.job_total(j) == 1


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


def test_cancel_cycles_two_by_two_with_unequal_sizes():
    # sizes 3 and 5: delta = min(1/2 * 3, 1/2 * 5) = 3/2, so the job-0 edges
    # move by 1/2 and the job-1 edges by 3/10, and each machine's value stays 4
    sizes = [3, 5]
    half = F(1, 2)
    before = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half}
    after = cancel_cycles(before, lambda j: sizes[j])
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
        after = cancel_cycles(before, lambda j: sizes[j])
        assert_cycles_cancelled(before, after, lambda j: sizes[j])
        cancelled += len(after) < len(before)
    assert cancelled >= 30


# ------------------------------------------------------------- extraction

def run_clustering(inst, T):
    gap = build_gap_instance(inst, F(T))
    jc = classify_jobs(gap)
    x = solve_clp_feasibility(
        inst, F(T), pools=machine_pools(inst), sizes=gap.gap_size
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
    gap = build_gap_instance(inst, F(13))
    jc = classify_jobs(gap)
    x = solve_clp_feasibility(inst, F(13), pools=machine_pools(inst), sizes=gap.gap_size)
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
        key: w for key, w in x.weights.items() if set(key[1].jobs) <= jc.big
    }
    hollow = ClpSolution(tau=x.tau, weights=stripped, cover_rhs=x.cover_rhs)
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
    assert bipartite_match([0, 1], {0: [10], 1: [10]}) in ({0: 10}, {1: 10})
    full = bipartite_match([0, 1], {0: [10, 11], 1: [10]})
    assert full == {0: 11, 1: 10} or full == {1: 10, 0: 11}



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
from fractions import Fraction
import santaclaus.clustering as clu
from santaclaus.configlp import ClpSolution
from santaclaus.gapclasses import build_gap_instance
from santaclaus.instances import Instance, JobSpec
assert sys.flags.optimize, "not running under -O"
half = Fraction(1, 2)
weights = {(0, 0): half, (0, 1): half, (1, 1): half}
found = iter([[(0, 0), (0, 1), (1, 1)], None])
clu._find_cycle = lambda w: next(found)
inst = Instance(machine_count=2, jobs=(JobSpec(4, frozenset([0, 1])),) * 2)
x = ClpSolution(tau=Fraction(4), weights={}, cover_rhs=Fraction(1))
try:
    clu.eliminate_cycles(clu.BigGraph(weights=weights), x, build_gap_instance(inst, Fraction(4)))
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
