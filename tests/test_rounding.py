from fractions import Fraction

import pytest

from santaclaus.configlp import (
    FractionalAssignment,
    clp_to_alp,
    find_T,
    solve_clp_feasibility,
)
from santaclaus.instances import generate_random
from santaclaus.rounding import RoundingError, round_assignment
from conftest import to_counts, weights_of

F = Fraction


def fa(y):
    return FractionalAssignment(*to_counts(y))


def test_integral_input_is_identity():
    sizes = [5, 7]
    owner = round_assignment(fa({(0, 0): 1, (1, 1): 1}), sizes)
    assert owner == {0: 0, 1: 1}


def test_single_machine_two_jobs():
    # machine holds job0 fully and 3/7 of job1: value 8, bound 8 - 7 = 1
    sizes = [5, 7]
    owner = round_assignment(fa({(0, 0): 1, (0, 1): F(3, 7)}), sizes)
    got = sum(sizes[j] for j, i in owner.items() if i == 0)
    assert got >= 1
    assert set(owner.values()) <= {0}


def test_two_machines_shared_job():
    # both machines split a size-6 job and hold private size-4 jobs fully
    sizes = [6, 4, 4]
    y = {(0, 0): F(1, 2), (1, 0): F(1, 2), (0, 1): 1, (1, 2): 1}
    owner = round_assignment(fa(y), sizes)
    loads = {0: 0, 1: 0}
    for j, i in owner.items():
        loads[i] += sizes[j]
    # per-machine fractional value is 7, max support size 6
    assert loads[0] >= 1 and loads[1] >= 1
    assert list(owner.values()).count(0) >= 1
    # no duplicated job
    assert len(owner) == len(set(owner))


def test_two_by_two_cycle_with_sizes_three_and_five():
    # every y is 1/2, so each machine's value is 4.  Cancelling on y * size
    # moves job 0's edges by 1/2 and job 1's by 3/10: (1, 0) becomes whole and
    # job 1 stays split 4/5 : 1/5, which neither machine needs under its
    # bound 4 - 5.  Moving every edge by the same amount in y instead would
    # make (0, 1) whole as well and hand job 1 to machine 0.
    half = F(1, 2)
    y = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half}
    assert round_assignment(fa(y), [3, 5]) == {0: 1}


def test_rejects_overweight_job():
    with pytest.raises(RoundingError, match="job 0"):
        round_assignment(fa({(0, 0): F(3, 4), (1, 0): F(1, 2)}), [5])


def test_loss_bound_on_generated_assignments():
    checked = 0
    for seed in range(30):
        inst = generate_random(m=3, n=6, max_size=8, density=F(1, 2), seed=seed)
        T = int(find_T(inst))
        if T == 0:
            continue
        sol = solve_clp_feasibility(inst, T)
        assignment = clp_to_alp(sol)
        sizes = inst.sizes()
        values = {}
        max_size = {}
        for (i, j), v in weights_of(assignment).items():
            values[i] = values.get(i, F(0)) + v * sizes[j]
            max_size[i] = max(max_size.get(i, 0), sizes[j])
        owner = round_assignment(assignment, sizes)
        # no duplicates, eligibility respected
        for j, i in owner.items():
            assert i in inst.jobs[j].eligible
        loads = {}
        for j, i in owner.items():
            loads[i] = loads.get(i, 0) + sizes[j]
        for i, v in values.items():
            assert loads.get(i, 0) >= v - max_size[i], f"seed {seed} machine {i}"
        checked += 1
    assert checked >= 15


def test_forest_postcondition_survives_python_O():
    # the rounding postconditions must not be bare asserts: under -O a
    # sabotaged cycle-cancelling step that hands back a support with a cycle
    # still has to stop the rounding with a named error
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
import santaclaus.rounding as rnd
from santaclaus.configlp import FractionalAssignment
assert sys.flags.optimize, "not running under -O"
rnd.cancel_cycles = lambda weights: dict(weights)
cycle = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}  # every weight 1/2
try:
    rnd.round_assignment(FractionalAssignment(cycle, 2), [4, 4])
except rnd.RoundingError as exc:
    print("raised:", exc)
else:
    sys.exit("the cyclic support went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: positive support contains a cycle after cycle cancelling" in proc.stdout
