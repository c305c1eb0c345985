from fractions import Fraction

import pytest

from santaclaus.clustering import build_big_graph, eliminate_cycles, extract_clusters
from santaclaus.configlp import machine_pools, solve_clp_feasibility
from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines
from santaclaus.matching import find_perfect_matching, minimal_covers
from conftest import clp_from_weights, tiny_instance
from matching_oracle import enumerate_bundles, exhaustive_matching

F = Fraction


def clustered(inst, T):
    gap = build_gap_instance(inst, T)
    jc = classify_jobs(gap)
    x = solve_clp_feasibility(inst, T, pools=machine_pools(inst), sizes=gap.gap_size)
    assert x is not None
    mc = classify_machines(gap, jc, x)
    g = build_big_graph(gap, x, jc, mc)
    forest, xstar = eliminate_cycles(g, x, gap)
    return extract_clusters(forest, xstar, jc, mc, gap)


# ------------------------------------------------------------- bundles

def test_minimal_covers_singletons():
    # threshold 3 with two size-3 jobs: each singleton is minimal
    assert list(minimal_covers((0, 1), [3, 3], 3)) == [(0,), (1,)]


def test_minimal_covers_pairs():
    # sizes 2,2,2 against threshold 3: all three pairs, lexicographic
    assert list(minimal_covers((0, 1, 2), [2, 2, 2], 3)) == [
        (0, 1),
        (0, 2),
        (1, 2),
    ]


def test_minimal_covers_respects_exact_threshold():
    for bundle in minimal_covers(tuple(range(5)), [2, 3, 4, 5, 6], 7):
        total = sum([2, 3, 4, 5, 6][j] for j in bundle)
        assert total >= 7
        assert all(total - [2, 3, 4, 5, 6][j] < 7 for j in bundle)


def test_enumerate_bundles_empty_without_support():
    # middle machine whose covering mass is all small: bundles flow; but a
    # composite whose members carry no small columns yields nothing.
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    clusters = clustered(inst, 4)
    assert clusters.composites == ()  # both machines saturated


def test_enumerate_bundles_middle_machine():
    inst = tiny_instance([(1, [0])] * 13, machines=1)
    clusters = clustered(inst, 13)
    assert [c.kind for c in clusters.composites] == ["middle"]
    # the need ceil(13/6) = 3 cuts the same bundles as 13/6: totals are integers
    edges = list(enumerate_bundles(0, clusters, 3))
    assert edges, "a covered middle machine must offer bundles"
    sizes = clusters.gap.base.sizes()
    for e in edges:
        total = sum(sizes[j] for j in e.bundle)
        assert F(13, 6) <= total < F(13, 6) + F(13, 12)
        assert e.member == 0


# ------------------------------------------------------------- matching

def test_enumerate_bundles_empty_support_stream():
    from santaclaus.clustering import ClusterSet, Composite
    from santaclaus.gapclasses import build_gap_instance, classify_jobs

    inst = tiny_instance([(13, [0])] + [(1, [0])] * 13, machines=1)
    gap = build_gap_instance(inst, 13)
    hollow = ClusterSet(
        supers=(),
        saturated=(),
        composites=(Composite(machines=(0,), kind="middle"),),
        xstar=clp_from_weights({}, 13),
        gap=gap,
        job_classes=classify_jobs(gap),
        machine_classes=None,
    )
    assert list(enumerate_bundles(0, hollow, 3)) == []


def test_matching_single_middle_composite():
    inst = tiny_instance([(1, [0])] * 13, machines=1)
    clusters = clustered(inst, 13)
    trace = []
    state = find_perfect_matching(clusters, 13, trace=trace)
    assert set(state.matched) == {0}
    assert any(line.startswith("augment") for line in trace)


def test_matching_empty_composites():
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    clusters = clustered(inst, 4)
    state = find_perfect_matching(clusters, 4)
    assert state.matched == {}


def test_matching_two_composites_tight_pool():
    # two machines, disjoint 13-unit pools: each must take its own bundle
    jobs = [(1, [0])] * 13 + [(1, [1])] * 13
    inst = tiny_instance(jobs, machines=2)
    clusters = clustered(inst, 13)
    state = find_perfect_matching(clusters, 13)
    bundles = [set(e.bundle) for e in state.matched.values()]
    assert not (bundles[0] & bundles[1])


def test_blocked_step_then_augmenting_path():
    # Both composites want bundle (0, 1, 2) first.  Composite 0 takes it;
    # composite 1's first edge is then blocked by composite 0, so it joins
    # the tree with composite 0 as its blocker.  The tree's next edge moves
    # composite 0 to (3, 4, 5), which frees the blocked edge, and composite 1
    # is promoted onto (0, 1, 2).
    from santaclaus.clustering import ClusterSet, Composite
    from santaclaus.configlp import ClpSolution, Configuration
    from santaclaus.instances import Instance, JobSpec
    from santaclaus.matching import validate_matching

    T = 13
    inst = Instance(machine_count=2, jobs=(JobSpec(1, frozenset([0, 1])),) * 6)
    gap = build_gap_instance(inst, T)
    low = Configuration(jobs=(0, 1, 2), total_size=3)
    high = Configuration(jobs=(3, 4, 5), total_size=3)
    xstar = ClpSolution(tau=T, counts={(0, low): 1, (0, high): 1, (1, low): 1}, scale=2)
    clusters = ClusterSet(
        supers=(),
        saturated=(),
        composites=(
            Composite(machines=(0,), kind="middle"),
            Composite(machines=(1,), kind="middle"),
        ),
        xstar=xstar,
        gap=gap,
        job_classes=classify_jobs(gap),
        machine_classes=None,
    )
    trace = []
    state = find_perfect_matching(clusters, T, trace=trace)
    assert trace == [
        "augment: composite 0 takes (0, 1, 2) via machine 0",
        "add: composite 1 wants (0, 1, 2), blocked by [0]",
        "augment: composite 0 takes (3, 4, 5) via machine 0",
        "promote: composite 1 takes (0, 1, 2) via machine 1",
    ]
    validate_matching(state, clusters, T)
    assert {d: e.bundle for d, e in state.matched.items()} == {0: (3, 4, 5), 1: (0, 1, 2)}
    exhaustive = exhaustive_matching(clusters, T, budget=100)
    assert exhaustive.matched == state.matched


@pytest.fixture(scope="module")
def composite_rich():
    """Fifty cluster sets whose clustered branch has composite machines."""
    from santaclaus.configlp import find_T
    from conftest import mixed_instance, shared_big_instance

    out = []
    inst = shared_big_instance(units=13)
    out.append((inst, 13, clustered(inst, 13)))
    seed = 0
    while len(out) < 50 and seed < 400:
        nbig = seed % 3  # 0..2 big jobs
        inst = mixed_instance(seed, m=2, nbig=nbig, nsmall=14 + seed % 5, bigsize=18)
        seed += 1
        T = int(find_T(inst))
        if T < 13:
            continue
        clusters = clustered(inst, T)
        if not clusters.composites:
            continue
        out.append((inst, T, clusters))
    return out


def test_strategies_agree_on_matchability(composite_rich):
    assert len(composite_rich) >= 50
    for inst, T, clusters in composite_rich:
        tree = find_perfect_matching(clusters, T)
        exhaustive = exhaustive_matching(clusters, T, budget=10**5)
        assert set(tree.matched) == set(exhaustive.matched)


def test_matched_bundles_disjoint_and_sized(composite_rich):
    for inst, T, clusters in composite_rich[:12]:
        state = find_perfect_matching(clusters, T)
        used = set()
        for e in state.matched.values():
            assert not (used & set(e.bundle))
            used.update(e.bundle)
            total = sum(inst.jobs[j].size for j in e.bundle)
            assert F(T, 6) <= total < F(T, 6) + F(T, 12)


def test_tree_invariant_survives_python_O():
    # the alternating-tree invariants must not be bare asserts: under -O a
    # tree whose newest add edge loses its blockers (a trace hook empties the
    # set right after the edge joins) still has to stop the search with a
    # named error.  Machine 1 first wants the bundle composite 0 holds, so
    # the search takes one blocked step.
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
import santaclaus.matching as mt
from santaclaus.clustering import ClusterSet, Composite
from santaclaus.configlp import ClpSolution, Configuration
from santaclaus.gapclasses import build_gap_instance, classify_jobs
from santaclaus.instances import Instance, JobSpec
assert sys.flags.optimize, "not running under -O"

class Sabotage(list):
    def append(self, line):
        super().append(line)
        if line.startswith("add:"):
            sys._getframe(1).f_locals["blockers"][-1].clear()

T = 13
inst = Instance(machine_count=2, jobs=(JobSpec(1, frozenset([0, 1])),) * 6)
gap = build_gap_instance(inst, T)
low, high = Configuration(jobs=(0, 1, 2), total_size=3), Configuration(jobs=(3, 4, 5), total_size=3)
xstar = ClpSolution(tau=T, counts={(0, low): 2, (1, low): 1, (1, high): 1}, scale=2)
clusters = ClusterSet(supers=(), saturated=(), xstar=xstar, gap=gap,
                      composites=(Composite(machines=(0,), kind="middle"),
                                  Composite(machines=(1,), kind="middle")),
                      job_classes=classify_jobs(gap), machine_classes=None)
trace = Sabotage()
try:
    mt.find_perfect_matching(clusters, T, trace=trace)
except mt.MatchingError as exc:
    print("raised:", exc)
else:
    sys.exit("the emptied blocker set went unnoticed: " + repr(trace))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: an add edge lost all blockers without promotion" in proc.stdout
