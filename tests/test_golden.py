"""Golden bytes: fixed instances must keep their exact solve reports.

A change meant only to make the solver faster must not move the answer: the
same T, branch, allocation, minimum value and ratio bound, byte for byte.
The counters count the work done (T-search probes, master solves, the
search's bracket), so a change to the search may move them, and nothing
else.  The strings below were recorded from the solver and are compared
verbatim.
"""

from fractions import Fraction

import pytest

from santaclaus import Instance, JobSpec, generate_random, solve
from conftest import mixed_instance


def all_unit_instance():
    """Three machines with 14-16 private unit jobs each and two shared ones:
    every job is small at the resulting T, so the solve takes no-upper."""
    jobs = []
    for i in range(3):
        jobs += [JobSpec(size=1, eligible=frozenset([i])) for _ in range(14 + i)]
    jobs += [JobSpec(size=1, eligible=frozenset(range(3))) for _ in range(2)]
    return Instance(machine_count=3, jobs=tuple(jobs))


def random_instance(seed):
    return generate_random(m=4, n=14, max_size=20, density=Fraction(1, 2), seed=seed)


GOLDEN = [
    (
        "random-0",
        lambda: random_instance(0),
        '{"T":"33/1","branch":"clustered","min_value":"13/1",'
        '"certified_ratio_bound":"33/13","owner":{"0":1,"1":3,"2":2,"7":0},'
        '"counters":{"clp_solves":2,"composites":0,"master_solves":11,'
        '"matching_steps":0,"saturated":4,"supers":0,'
        '"t_search_lower":33,"t_search_upper":36}}',
    ),
    (
        "random-3",
        lambda: random_instance(3),
        '{"T":"23/1","branch":"clustered","min_value":"5/1",'
        '"certified_ratio_bound":"23/5","owner":{"0":3,"1":0,"3":2,"6":1},'
        '"counters":{"clp_solves":0,"composites":0,"master_solves":1,'
        '"matching_steps":0,"saturated":4,"supers":0,'
        '"t_search_lower":23,"t_search_upper":23}}',
    ),
    (
        "random-4",
        lambda: random_instance(4),
        '{"T":"31/1","branch":"clustered","min_value":"5/1",'
        '"certified_ratio_bound":"31/5","owner":{"0":1,"1":0,"2":2,"3":3},'
        '"counters":{"clp_solves":1,"composites":0,"master_solves":6,'
        '"matching_steps":0,"saturated":4,"supers":0,'
        '"t_search_lower":31,"t_search_upper":32}}',
    ),
    (
        "random-10",
        lambda: random_instance(10),
        '{"T":"31/1","branch":"clustered","min_value":"6/1",'
        '"certified_ratio_bound":"31/6","owner":{"0":3,"3":0,"5":2,"7":1},'
        '"counters":{"clp_solves":2,"composites":0,"master_solves":5,'
        '"matching_steps":0,"saturated":4,"supers":0,'
        '"t_search_lower":28,"t_search_upper":31}}',
    ),
    (
        "mixed-composite",
        lambda: mixed_instance(4, m=3, nbig=2, nsmall=14),
        '{"T":"14/1","branch":"clustered","min_value":"3/1",'
        '"certified_ratio_bound":"14/3","owner":{"0":1,"1":2,"2":0,"3":0,"4":0},'
        '"counters":{"clp_solves":2,"composites":1,"master_solves":3,'
        '"matching_steps":1,"saturated":2,"supers":0,'
        '"t_search_lower":11,"t_search_upper":14}}',
    ),
    (
        "all-unit-no-upper",
        all_unit_instance,
        '{"T":"15/1","branch":"no-upper","min_value":"15/1",'
        '"certified_ratio_bound":"1/1","owner":{"1":0,"2":0,"3":0,"4":0,"5":0,'
        '"6":0,"7":0,"8":0,"9":0,"10":0,"11":0,"12":0,"13":0,"14":1,"15":1,'
        '"16":1,"17":1,"18":1,"19":1,"20":1,"21":1,"22":1,"23":1,"24":1,"25":1,'
        '"26":1,"27":1,"28":1,"30":2,"31":2,"32":2,"33":2,"34":2,"35":2,"36":2,'
        '"37":2,"38":2,"39":2,"40":2,"41":2,"42":2,"43":2,"44":2,"45":0,"46":0},'
        '"counters":{"clp_solves":0,"master_solves":1,'
        '"small_rounded_jobs":45,"t_search_lower":15,'
        '"t_search_upper":15}}',
    ),
]


@pytest.mark.parametrize("name,make,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_canonical_json_is_byte_identical(name, make, expected):
    assert solve(make()).canonical_json() == expected


def test_canonical_json_is_byte_identical_under_python_O():
    # with asserts stripped the solver must take the same path: a python -O
    # subprocess prints the six reports, which must match the strings above
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
assert sys.flags.optimize, "not running under -O"
from santaclaus import solve
from test_golden import GOLDEN
for _, make, _ in GOLDEN:
    print(solve(make()).canonical_json())
"""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [expected for _, _, expected in GOLDEN]


def digest_batch():
    """About 40 seeded instances across the benchmark's three shapes: the
    package's random generator at m=4, n=14; three machines with two big
    jobs of size 18-23 and unit jobs on 3/4 eligibility coins; and unit
    jobs only, 14-18 private per machine plus 0-3 shared."""
    from random import Random

    rng = Random("golden-digest")
    out = []
    for k in range(14):
        out.append(random_instance(100 + k))

        def coin():
            return frozenset(i for i in range(3) if rng.randrange(4) < 3)

        jobs = [JobSpec(size=18 + rng.randrange(6), eligible=coin()) for _ in range(2)]
        jobs += [JobSpec(size=1, eligible=coin()) for _ in range(18)]
        out.append(Instance(machine_count=3, jobs=tuple(jobs)))
        if k < 12:
            m = 3 + k % 2
            jobs = [
                JobSpec(size=1, eligible=frozenset([i]))
                for i in range(m)
                for _ in range(14 + rng.randrange(5))
            ]
            jobs += [JobSpec(size=1, eligible=frozenset(range(m))) for _ in range(rng.randrange(4))]
            out.append(Instance(machine_count=m, jobs=tuple(jobs)))
    return out


# sha256 over the batch's canonical_json lines, each followed by "\n".
BATCH_DIGEST = "571297941c0dc6b06278cdcac76207445ab42fa06104f5dad69d2e40f2f46c03"


def batch_digest():
    import hashlib

    batch = digest_batch()
    assert len(batch) == 40
    digest = hashlib.sha256()
    for inst in batch:
        digest.update(solve(inst).canonical_json().encode() + b"\n")
    return digest.hexdigest()


def test_canonical_json_digest_over_generated_batch():
    # one hash over 40 reports pins a speed change to the same bytes on far
    # more instances than the six strings above
    assert batch_digest() == BATCH_DIGEST

