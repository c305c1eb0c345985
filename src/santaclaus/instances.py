"""Problem instances for restricted max-min fair allocation.

An instance has ``m`` machines and ``n`` jobs.  Each job has one positive
integer size and a set of eligible machines; on every other machine its value
is zero.  The objective is an assignment of jobs to eligible machines (each
job to at most one machine) maximising the minimum total size any machine
receives.

This module owns the JSON formats, validity checking, the seeded random
generator used by the test suites and the CLI, and an exhaustive-search
optimum oracle for small instances.  Instances and allocations are immutable
after construction and safe to share between threads; the oracle and the
generator are pure functions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .rat import rat_from_str, rat_to_str

#: Search-space guard for the exhaustive oracle: refuse when m ** n exceeds this.
ORACLE_BUDGET = 10**7


class InstanceFormatError(ValueError):
    """Malformed instance/allocation document; the message names the field."""


class OracleBudgetError(RuntimeError):
    """The instance is too large for the exhaustive optimum oracle."""


@dataclass(frozen=True)
class JobSpec:
    """One job: a positive integer size and the machines that may receive it."""

    size: int
    eligible: frozenset[int]

    def __post_init__(self) -> None:
        # type(...) is int also turns away bool, whose type is its own
        if type(self.size) is not int or self.size < 1:
            raise ValueError("size must be a positive integer")
        # a list or set would break hashing and the set algebra on eligibility
        if not isinstance(self.eligible, frozenset):
            raise ValueError("eligible must be a frozenset")


@dataclass(frozen=True)
class Instance:
    machine_count: int
    jobs: tuple[JobSpec, ...]

    def __post_init__(self) -> None:
        if type(self.machine_count) is not int or self.machine_count < 1:
            raise ValueError("machine_count must be a positive integer")
        # a list would break hashing, which the frozen dataclass promises
        if type(self.jobs) is not tuple or not all(isinstance(job, JobSpec) for job in self.jobs):
            raise ValueError("jobs must be a tuple of JobSpec")
        for k, job in enumerate(self.jobs):
            bad = [i for i in job.eligible if type(i) is not int or not 0 <= i < self.machine_count]
            if bad:
                raise ValueError(f"jobs[{k}]: machine index not an int in range: {sorted(bad)}")

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    # tuple(list), not tuple(generator): see ratlp.LpSolution.
    def sizes(self) -> tuple[int, ...]:
        return tuple([job.size for job in self.jobs])

    def eligible_jobs(self, machine: int) -> tuple[int, ...]:
        return tuple([j for j, job in enumerate(self.jobs) if machine in job.eligible])

    def total_size(self) -> int:
        return sum(job.size for job in self.jobs)


@dataclass(frozen=True)
class Allocation:
    """Integral assignment: job index -> machine index, plus the certified value.

    Jobs absent from ``owner`` are unassigned.  ``min_value`` is the minimum
    machine load the allocation claims; `verify_allocation` recomputes it.
    """

    owner: dict[int, int]
    min_value: Fraction


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, val in pairs:
        if key in doc:
            raise InstanceFormatError(f"document: duplicate key {key!r}")
        doc[key] = val
    return doc


def _load_document(text: str, fields: tuple[str, ...]) -> dict:
    """Decode a JSON object whose objects repeat no key and whose top level
    holds only ``fields``."""
    try:
        # json.loads keeps the last of two equal keys without a word
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"document: malformed JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("document: expected a JSON object")
    for key in doc:
        if key not in fields:
            raise InstanceFormatError(f"document: unknown field {key!r}")
    return doc


def parse_instance(text: str) -> Instance:
    """Decode an instance document, reporting the offending field on error."""
    doc = _load_document(text, ("machines", "jobs"))
    machines = doc.get("machines")
    if not isinstance(machines, int) or isinstance(machines, bool) or machines < 1:
        raise InstanceFormatError("machines: must be a positive integer")
    raw_jobs = doc.get("jobs")
    if not isinstance(raw_jobs, list):
        raise InstanceFormatError("jobs: must be an array")
    jobs = []
    for k, raw in enumerate(raw_jobs):
        if not isinstance(raw, dict):
            raise InstanceFormatError(f"jobs[{k}]: expected an object")
        for key in raw:
            if key not in ("size", "eligible"):
                raise InstanceFormatError(f"jobs[{k}]: unknown field {key!r}")
        size = raw.get("size")
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise InstanceFormatError(f"jobs[{k}].size: size must be positive")
        raw_elig = raw.get("eligible")
        if not isinstance(raw_elig, list):
            raise InstanceFormatError(f"jobs[{k}].eligible: must be an array")
        eligible = set()
        for t, e in enumerate(raw_elig):
            if not isinstance(e, int) or isinstance(e, bool):
                raise InstanceFormatError(f"jobs[{k}].eligible[{t}]: must be an integer")
            if e < 0 or e >= machines:
                raise InstanceFormatError(
                    f"jobs[{k}].eligible[{t}]: machine index out of range"
                )
            eligible.add(e)
        jobs.append(JobSpec(size=size, eligible=frozenset(eligible)))
    return Instance(machine_count=machines, jobs=tuple(jobs))


def serialize_instance(inst: Instance) -> str:
    """Canonical document: fixed key order, eligible sets sorted ascending."""
    doc = {
        "machines": inst.machine_count,
        "jobs": [
            {"size": job.size, "eligible": sorted(job.eligible)} for job in inst.jobs
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def parse_allocation(text: str) -> Allocation:
    doc = _load_document(text, ("owner", "min_value"))
    raw_owner = doc.get("owner")
    if not isinstance(raw_owner, dict):
        raise InstanceFormatError("owner: must be an object")
    owner = {}
    for key, val in raw_owner.items():
        # int() would also read "03", " 3" or "6_0", so two keys could name
        # one job, or a key a job it does not spell.
        if not re.fullmatch("0|[1-9][0-9]*", key):
            raise InstanceFormatError(
                f"owner[{key!r}]: job index must be a non-negative decimal integer "
                "without leading zeros"
            )
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise InstanceFormatError(f"owner[{key!r}]: machine index must be a non-negative integer")
        owner[int(key)] = val
    raw_min = doc.get("min_value")
    if not isinstance(raw_min, str):
        raise InstanceFormatError('min_value: must be a "p/q" string')
    try:
        min_value = rat_from_str(raw_min)
    except ValueError as exc:
        raise InstanceFormatError(f"min_value: {exc}") from exc
    return Allocation(owner=owner, min_value=min_value)


def serialize_allocation(alloc: Allocation) -> str:
    owner = {str(j): alloc.owner[j] for j in sorted(alloc.owner)}
    doc = {"owner": owner, "min_value": rat_to_str(alloc.min_value)}
    return json.dumps(doc, separators=(",", ":"))


def verify_allocation(inst: Instance, alloc: Allocation) -> Fraction:
    """Return the exact minimum machine load of ``alloc`` on ``inst``.

    Raises ValueError naming the job and machine if any job sits on a machine
    outside its eligible set.
    """
    return Fraction(min_load(inst, alloc.owner))


def min_load(inst: Instance, owner: dict[int, int]) -> int:
    """The minimum machine load of the owner map ``owner`` (job -> machine)
    on ``inst``, with the same checks as `verify_allocation`."""
    loads = [0] * inst.machine_count
    for j, i in owner.items():
        if j < 0 or j >= inst.job_count:
            raise ValueError(f"job {j} does not exist")
        if i < 0 or i >= inst.machine_count:
            raise ValueError(f"job {j} assigned to nonexistent machine {i}")
        if i not in inst.jobs[j].eligible:
            raise ValueError(
                f"job {j} assigned to machine {i} but eligible machines are "
                f"{sorted(inst.jobs[j].eligible)}"
            )
        loads[i] += inst.jobs[j].size
    return min(loads)


def exact_optimum(inst: Instance) -> Fraction:
    value, _ = exact_optimum_with_witness(inst)
    return value


def exact_optimum_with_witness(inst: Instance) -> tuple[Fraction, Allocation]:
    """Exhaustive max-min optimum with a witness allocation.

    Enumerates job -> eligible-machine assignments depth first.  Leaving a job
    unassigned never helps the minimum load, so those branches are skipped;
    jobs with empty eligible sets are simply never assignable.  Branches are
    pruned when an optimistic bound (current load plus everything still
    assignable per machine) cannot beat the incumbent.
    """
    m = inst.machine_count
    n = inst.job_count
    if m**n > ORACLE_BUDGET:
        raise OracleBudgetError(
            f"oracle budget exceeded: {m}^{n} assignments > {ORACLE_BUDGET}"
        )
    assignable = [j for j in range(n) if inst.jobs[j].eligible]
    if m == 1:
        owner = {j: 0 for j in assignable}
        value = Fraction(sum(inst.jobs[j].size for j in assignable))
        return value, Allocation(owner=owner, min_value=value)

    # Deepest-impact first: larger jobs earlier makes the bound bite sooner.
    order = sorted(assignable, key=lambda j: (-inst.jobs[j].size, j))
    k_total = len(order)
    # remaining[k][i]: total size of jobs order[k:] eligible on machine i.
    remaining = [[0] * m for _ in range(k_total + 1)]
    for k in range(k_total - 1, -1, -1):
        job = inst.jobs[order[k]]
        for i in range(m):
            remaining[k][i] = remaining[k + 1][i] + (job.size if i in job.eligible else 0)

    best = -1
    best_owner: dict[int, int] = {}
    loads = [0] * m
    stack_owner: dict[int, int] = {}

    def dfs(k: int) -> None:
        nonlocal best, best_owner
        bound = min(loads[i] + remaining[k][i] for i in range(m))
        if bound <= best:
            return
        if k == k_total:
            best = min(loads)
            best_owner = dict(stack_owner)
            return
        j = order[k]
        size = inst.jobs[j].size
        for i in sorted(inst.jobs[j].eligible):
            loads[i] += size
            stack_owner[j] = i
            dfs(k + 1)
            del stack_owner[j]
            loads[i] -= size

    dfs(0)
    value = Fraction(max(best, 0))
    return value, Allocation(owner=best_owner, min_value=value)


def generate_random(
    m: int, n: int, max_size: int, density: Fraction, seed: int
) -> Instance:
    """Seeded random instance; identical arguments give identical instances.

    Per job, the size is drawn uniformly from [1, max_size], then one
    eligibility coin with probability ``density`` is flipped per machine in
    index order.  Jobs may end up with empty eligible sets; they are legal and
    simply never assignable.
    """
    if m < 1 or n < 1 or max_size < 1:
        raise ValueError("m, n and max_size must be at least 1")
    density = Fraction(density)
    if density <= 0 or density > 1:
        raise ValueError("density must be in (0, 1]")
    rng = Random(seed)
    jobs = []
    for _ in range(n):
        size = 1 + rng.randrange(max_size)
        eligible = frozenset(
            i for i in range(m) if rng.randrange(density.denominator) < density.numerator
        )
        jobs.append(JobSpec(size=size, eligible=eligible))
    return Instance(machine_count=m, jobs=tuple(jobs))
