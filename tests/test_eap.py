from fractions import Fraction
from random import Random

import pytest

from santaclaus.clustering import (
    Cluster,
    ClusterSet,
    Composite,
    build_big_graph,
    eliminate_cycles,
    extract_clusters,
)
from santaclaus.configlp import machine_pools, solve_clp_feasibility
from santaclaus.eap import (
    EapError,
    check_eap,
    eap_from_matching,
    member_value,
    restrict_eap,
    select_by_enumeration,
)
from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines
from santaclaus.matching import find_perfect_matching
from conftest import clp_from_weights, tiny_instance, with_selection

F = Fraction


def clustered(inst, T):
    gap = build_gap_instance(inst, T)
    jc = classify_jobs(gap)
    x = solve_clp_feasibility(inst, T, pools=machine_pools(inst), sizes=gap.gap_size)
    mc = classify_machines(gap, jc, x)
    g = build_big_graph(gap, x, jc, mc)
    forest, xstar = eliminate_cycles(g, x, gap)
    return extract_clusters(forest, xstar, jc, mc, gap)


@pytest.fixture(scope="module")
def super_case():
    from conftest import handmade_super_case

    inst, clusters = handmade_super_case()
    assert len(clusters.supers) == 1 and len(clusters.supers[0].machines) == 2
    state = find_perfect_matching(clusters, 13)
    return inst, clusters, state


def test_matching_solution_checks_out(super_case):
    _, clusters, state = super_case
    sol = eap_from_matching(state, clusters)
    ok, why = check_eap(sol, clusters, 13)
    assert ok, why
    # integral selection: exactly one member per composite carries weight 1
    for comp in clusters.composites:
        weights = sorted(sol.s[i] for i in comp.machines)
        assert weights[-1] == 1 and all(w == 0 for w in weights[:-1])


def test_half_split_selection_collects_too_little(super_case):
    _, clusters, state = super_case
    base = eap_from_matching(state, clusters)
    comp = clusters.composites[0]
    a, b = comp.machines
    winner = a if base.s[a] == 1 else b
    loser = b if winner == a else a
    # halve the selection without giving the loser any shares: the bilinear
    # term drops to V/2, and V/2 < 13/6 exactly when V < 13/3; engineer that
    # by shrinking the winner's shares to a bundle worth 13/6 <= V < 13/3
    t6 = F(13, 6)
    value = member_value(base, clusters, winner)
    assert value >= t6
    split = with_selection(base, {winner: F(1, 2), loser: F(1, 2)})
    ok, why = check_eap(split, clusters, 13)
    if value / 2 < t6:
        assert not ok and "collects" in why
    else:
        assert ok


def test_double_assigned_share_rejected(super_case):
    _, clusters, state = super_case
    sol = eap_from_matching(state, clusters)
    j = next(j for (_, j) in sol.u)
    for comp in clusters.composites:
        for i in comp.machines:
            sol.u[(i, j)] = 1
    ok, why = check_eap(sol, clusters, 13)
    assert not ok and f"job {j}" in why


def test_nonpositive_scale_rejected(super_case):
    # over scale 0 every sum is 0 and every threshold 0: nothing would fail
    _, clusters, state = super_case
    sol = eap_from_matching(state, clusters)
    sol.scale = 0
    ok, why = check_eap(sol, clusters, 13)
    assert not ok and "scale 0" in why


def test_restrict_is_identity_on_integral(super_case):
    _, clusters, state = super_case
    sol = eap_from_matching(state, clusters)
    again = restrict_eap(sol, clusters, 13)
    assert again.s == sol.s
    assert again.u == sol.u


def test_restrict_picks_qualified_member(super_case):
    _, clusters, state = super_case
    base = eap_from_matching(state, clusters)
    comp = clusters.composites[0]
    winner = next(i for i in comp.machines if base.s[i] == 1)
    other = next(i for i in comp.machines if i != winner)
    spread = with_selection(base, {winner: F(1, 2), other: F(1, 2)})
    value = member_value(base, clusters, winner)
    # keep it feasible: value/2 must reach 13/6 for the fixture bundle
    if value / 2 >= F(13, 6):
        restricted = restrict_eap(spread, clusters, 13)
        assert restricted.s[winner] == restricted.scale and restricted.s[other] == 0
        ok, why = check_eap(restricted, clusters, 13)
        assert ok, why


def test_restrict_survives_100_perturbations(super_case):
    _, clusters, state = super_case
    base = eap_from_matching(state, clusters)
    t6 = F(13, 6)
    rng = Random(7)
    comp = clusters.composites[0]
    winner = next(i for i in comp.machines if base.s[i] == 1)
    other = next(i for i in comp.machines if i != winner)
    value = member_value(base, clusters, winner)
    room = 1 - t6 / value  # any split up to this keeps constraint (1) valid
    assert room >= 0
    for _ in range(100):
        delta = room * F(rng.randrange(1000), 1000)
        spread = with_selection(base, {winner: 1 - delta, other: delta})
        ok, why = check_eap(spread, clusters, 13)
        assert ok, why
        restricted = restrict_eap(spread, clusters, 13)
        assert restricted.scale == spread.scale
        assert all(v in (0, restricted.scale) for v in restricted.s.values())
        ok, why = check_eap(restricted, clusters, 13)
        assert ok, why
        for key, v in restricted.u.items():
            assert v <= spread.u.get(key, 0)


# ------------------------------------------------------- selection search

def middle_only_clusters():
    inst = tiny_instance([(1, [0])] * 13, machines=1)
    return clustered(inst, 13)


def test_selection_forced_for_singletons():
    clusters = middle_only_clusters()
    sel, u = select_by_enumeration(clusters, 13)
    assert sel.chosen == {0: 0}
    value = sum(
        (share * clusters.gap.base.jobs[j].size for (i, j), share in u.items()),
        F(0),
    )
    assert value >= F(13, 6)


def test_selection_skips_member_without_small_eligibility():
    # super of machines {0,1}; unit jobs only reachable from machine 1
    inst = tiny_instance(
        [(13, [0, 1])] + [(1, [1])] * 13,
        machines=2,
    )
    gap = build_gap_instance(inst, 13)
    jc = classify_jobs(gap)
    clusters = ClusterSet(
        supers=(Cluster(machines=(0, 1), jobs=(0,)),),
        saturated=(),
        composites=(Composite(machines=(0, 1), kind="super"),),
        xstar=clp_from_weights({}, 13),
        gap=gap,
        job_classes=jc,
        machine_classes=None,
    )
    sel, u = select_by_enumeration(clusters, 13)
    assert sel.chosen == {0: 1}
    assert all(i == 1 for (i, _) in u)


def test_selection_budget_guard():
    inst = tiny_instance([(13, [0, 1])] + [(1, [1])] * 13, machines=2)
    gap = build_gap_instance(inst, 13)
    jc = classify_jobs(gap)
    clusters = ClusterSet(
        supers=(Cluster(machines=(0, 1), jobs=(0,)),),
        saturated=(),
        composites=(Composite(machines=(0, 1), kind="super"),),
        xstar=clp_from_weights({}, 13),
        gap=gap,
        job_classes=jc,
        machine_classes=None,
    )
    with pytest.raises(EapError, match="budget"):
        select_by_enumeration(clusters, 13, budget=1)
