"""Gap instances and the big/small, upper/middle classifications.

The 12-gap instance reshapes job sizes relative to a threshold T: any job of
size at least T/12 counts as exactly T (a "big" job), everything else keeps
its size ("small").  At tau = T this gives the pipeline two structural facts
it leans on throughout: every minimal configuration containing a big job is
a big singleton, and any machine that is not big-heavy ("upper class")
carries small-configuration weight of at least 1/2.  The classification
reads the covering solution's integer counts, so a weight >= 1/2 reads
2 * count >= scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .configlp import ClpSolution
from .instances import Instance

ALPHA = 12  # the gap: jobs of size >= T/ALPHA are big


class GapClassError(RuntimeError):
    """A classification invariant failed: an upstream solver bug, never an
    input fault.  Raised, not asserted, so that ``python -O`` keeps it."""


@dataclass(frozen=True)
class GapInstance:
    base: Instance
    tau: int
    gap_size: tuple[int, ...]


@dataclass(frozen=True)
class JobClasses:
    big: frozenset[int]
    small: frozenset[int]


@dataclass(frozen=True)
class MachineClasses:
    """Upper machines carry big-singleton weight >= 1/2; the rest are middle."""

    upper: frozenset[int]
    middle: frozenset[int]


def build_gap_instance(inst: Instance, T: int) -> GapInstance:
    if T <= 0:
        raise ValueError("T must be positive; a zero T short-circuits the pipeline")
    # size < T / ALPHA over integers.  tuple(list), not tuple(generator): see
    # ratlp.LpSolution.
    gap = tuple([job.size if ALPHA * job.size < T else T for job in inst.jobs])
    return GapInstance(base=inst, tau=T, gap_size=gap)


def classify_jobs(gap: GapInstance) -> JobClasses:
    """Partition jobs: big iff the gap size was snapped to T.

    Also checks the structural fact used downstream: a big job alone already
    reaches tau in the gap instance, so no minimal configuration can contain
    a big job alongside anything else.
    """
    T = gap.tau
    big = frozenset(
        j for j, job in enumerate(gap.base.jobs) if ALPHA * job.size >= T
    )
    small = frozenset(range(len(gap.gap_size))) - big
    for j in big:
        if gap.gap_size[j] != T:
            raise GapClassError(f"big job {j} has gap size {gap.gap_size[j]}, not T = {T}")
    for j in small:
        size = gap.base.jobs[j].size
        if gap.gap_size[j] != size or ALPHA * size >= T:
            raise GapClassError(f"small job {j} lost its size or reaches T/{ALPHA}")
    return JobClasses(big=big, small=small)


def classify_machines(
    gap: GapInstance, job_classes: JobClasses, x: ClpSolution
) -> MachineClasses:
    """Threshold-1/2 split on big-singleton weight, with exact mass bookkeeping.

    In the gap instance at tau = T the carried configurations are either big
    singletons or all-small bundles; anything else is a solver bug and is
    rejected loudly.  Middle machines inherit small mass >= 1/2 from their
    unit cover, which is checked rather than assumed.  Masses are counts
    over ``x.scale``, so mass >= 1/2 reads 2 * mass >= scale.
    """
    m = gap.base.machine_count
    scale = x.scale
    big_mass = {i: 0 for i in range(m)}
    small_mass = {i: 0 for i in range(m)}
    for (i, cfg), c in x.counts.items():
        members = set(cfg.jobs)
        if members & job_classes.big:
            if len(cfg.jobs) != 1:
                raise GapClassError(
                    f"machine {i} carries a mixed configuration {cfg.jobs}; "
                    "big jobs must appear as singletons in the gap instance"
                )
            big_mass[i] += c
        else:
            small_mass[i] += c
    upper = frozenset(i for i in range(m) if 2 * big_mass[i] >= scale)
    middle = frozenset(range(m)) - upper
    for i in middle:
        if 2 * small_mass[i] < scale:
            raise GapClassError(
                f"middle machine {i} has small mass {Fraction(small_mass[i], scale)} < 1/2; "
                "the covering solution lost its unit cover"
            )
    return MachineClasses(upper=upper, middle=middle)
