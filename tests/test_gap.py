from fractions import Fraction

import pytest

from santaclaus.configlp import (
    check_cover_solution,
    machine_pools,
    prune_to_minimal,
    solve_clp_feasibility,
)
from santaclaus.gapclasses import build_gap_instance, classify_jobs, classify_machines
from santaclaus.instances import generate_random
from conftest import clp_from_weights, tiny_instance, weights_of

F = Fraction


def test_gap_sizes_follow_threshold_table():
    inst = tiny_instance([(1, [0]), (7, [0]), (12, [0])], machines=1)
    gap = build_gap_instance(inst, 12)
    # threshold is 1: every size >= 1 snaps to T
    assert gap.gap_size == (12, 12, 12)

    gap13 = build_gap_instance(tiny_instance([(1, [0])], machines=1), 13)
    # 1 < 13/12 stays small
    assert gap13.gap_size == (1,)


def test_gap_rejects_zero_T():
    inst = tiny_instance([(1, [0])], machines=1)
    with pytest.raises(ValueError):
        build_gap_instance(inst, 0)


def test_classify_jobs_boundaries():
    inst = tiny_instance([(1, [0]), (7, [0]), (12, [0])], machines=1)
    gap = build_gap_instance(inst, 12)
    jc = classify_jobs(gap)
    assert jc.big == {0, 1, 2}
    assert jc.small == frozenset()

    inst2 = tiny_instance([(1, [0]), (13, [0])], machines=1)
    gap2 = build_gap_instance(inst2, 12)
    jc2 = classify_jobs(gap2)
    assert jc2.big == {0, 1}  # threshold 1 is inclusive

    gap3 = build_gap_instance(tiny_instance([(1, [0])], machines=1), 13)
    assert classify_jobs(gap3).small == {0}


def test_classification_is_idempotent():
    inst = tiny_instance([(2, [0]), (5, [0])], machines=1)
    gap = build_gap_instance(inst, 7)
    once = classify_jobs(gap)
    again = classify_jobs(build_gap_instance(inst, 7))
    assert once == again


def test_classify_machines_threshold_and_masses():
    # machine 0: one huge job; machine 1: thirteen unit jobs (small once T=13,
    # since 1 < 13/12).  T is 13 by hand: machine 1 tops out at 13.
    inst = tiny_instance([(30, [0])] + [(1, [1])] * 13, machines=2)
    T = 13
    gap = build_gap_instance(inst, T)
    jc = classify_jobs(gap)
    assert jc.big == {0}
    sol = solve_clp_feasibility(
        inst, T, pools=machine_pools(inst), sizes=gap.gap_size
    )
    assert sol is not None
    mc = classify_machines(gap, jc, sol)
    assert mc.upper == {0}
    assert mc.middle == {1}
    mass = {(i, big): F(0) for i in range(2) for big in (True, False)}
    for (i, cfg), w in weights_of(sol).items():
        mass[(i, set(cfg.jobs) <= jc.big)] += w
    assert mass[(0, True)] >= F(1, 2)
    assert mass[(1, False)] >= F(1, 2)


def test_gap_solution_transfers_from_original():
    # A feasible original-size covering solution stays feasible after the gap
    # reshaping once each bundle is re-pruned to minimality under gap sizes.
    for seed in range(8):
        inst = generate_random(m=2, n=5, max_size=9, density=F(2, 3), seed=seed)
        from santaclaus.configlp import find_T

        T = int(find_T(inst))
        if T == 0:
            continue
        original = solve_clp_feasibility(inst, T)
        gap = build_gap_instance(inst, T)
        transferred = {}
        for (i, cfg), w in weights_of(original).items():
            pruned = prune_to_minimal(cfg.jobs, T, gap.gap_size)
            key = (i, pruned)
            transferred[key] = transferred.get(key, F(0)) + w
        moved = clp_from_weights(transferred, original.tau)
        ok, why = check_cover_solution(moved, machine_pools(inst), gap.gap_size)
        assert ok, f"seed {seed}: {why}"


def test_mixed_configuration_check_survives_python_O():
    # a configuration holding a big job beside a small one breaks the gap
    # structure the clustered branch relies on; under -O classify_machines
    # must still refuse it with GapClassError, not pass it on
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
from santaclaus.configlp import ClpSolution, Configuration
from santaclaus.gapclasses import GapClassError, build_gap_instance, classify_jobs, classify_machines
from santaclaus.instances import Instance, JobSpec
assert sys.flags.optimize, "not running under -O"
inst = Instance(machine_count=1, jobs=(JobSpec(size=30, eligible=frozenset([0])), JobSpec(size=1, eligible=frozenset([0]))))
gap = build_gap_instance(inst, 13)
mixed = Configuration(jobs=(0, 1), total_size=14)
x = ClpSolution(tau=13, counts={(0, mixed): 1}, scale=1)
try:
    classify_machines(gap, classify_jobs(gap), x)
except GapClassError as exc:
    print("raised:", exc)
else:
    sys.exit("the mixed configuration went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: machine 0 carries a mixed configuration (0, 1)" in proc.stdout
