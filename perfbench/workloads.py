"""Seeded, stratified instance batches for the solve benchmark.

Solve time follows the number of eligible (job, machine) pairs (correlation
0.8 on uniform-random, 0.5 on unit-clustered), so a plain random batch of the
few dozen instances a run can solve differs from seed to seed mostly by how
many dense instances it drew.  Each block of ``BLOCK`` instances is therefore
a stratified sample: ``BLOCK * OVERSAMPLE`` candidates from the workload's
generator, sorted by pair count, one drawn at random from each run of
``OVERSAMPLE`` consecutive candidates, solved in random order.  Every
candidate is equally likely to be kept, so instances follow the generator's
distribution, and every whole block covers its range of densities.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from santaclaus import Instance, JobSpec, generate_random


def uniform_random(rng: Random, k: int) -> Instance:
    """The package's own generator at the typical random shape."""
    return generate_random(
        m=4, n=14, max_size=20, density=Fraction(1, 2), seed=rng.getrandbits(64)
    )


def unit_clustered(rng: Random, k: int) -> Instance:
    """Three machines, two big jobs of size 18-23 and 18 unit jobs.

    Eligibility coins land with probability 3/4, so most jobs are shared and
    the masters are degenerate; big jobs make upper machines, unit jobs make
    composites and super machines.
    """
    m = 3

    def eligible() -> frozenset[int]:
        return frozenset(i for i in range(m) if rng.randrange(4) < 3)

    jobs = [JobSpec(size=18 + rng.randrange(6), eligible=eligible()) for _ in range(2)]
    jobs += [JobSpec(size=1, eligible=eligible()) for _ in range(18)]
    return Instance(machine_count=m, jobs=tuple(jobs))


def all_small(rng: Random, k: int) -> Instance:
    """Unit jobs only: 14-18 private jobs per machine plus 0-3 shared by all.

    Every machine reaches T >= 14, so every unit job is small (size < T/12)
    and the solver must take the no-upper branch.  Candidates alternate
    between 3 and 4 machines.
    """
    m = 3 + k % 2
    jobs = []
    for i in range(m):
        jobs += [JobSpec(size=1, eligible=frozenset([i])) for _ in range(14 + rng.randrange(5))]
    jobs += [JobSpec(size=1, eligible=frozenset(range(m))) for _ in range(rng.randrange(4))]
    return Instance(machine_count=m, jobs=tuple(jobs))


WORKLOADS = {
    "uniform-random": uniform_random,
    "unit-clustered": unit_clustered,
    "all-small": all_small,
}


BLOCK = 8
OVERSAMPLE = 8


def eligible_pairs(inst: Instance) -> int:
    return sum(len(job.eligible) for job in inst.jobs)


def instances(workload: str, seed, count: int) -> list[Instance]:
    """The first ``count`` instances of ``workload`` under ``seed``."""
    make = WORKLOADS[workload]
    out: list[Instance] = []
    for b in range(-(-count // BLOCK)):
        rng = Random(f"{workload}/{seed}/{b}")
        candidates = sorted((make(rng, c) for c in range(BLOCK * OVERSAMPLE)), key=eligible_pairs)
        block = [candidates[s * OVERSAMPLE + rng.randrange(OVERSAMPLE)] for s in range(BLOCK)]
        rng.shuffle(block)
        out += block
    return out[:count]
