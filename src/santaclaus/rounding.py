"""Loss-bounded rounding of fractional assignments.

Takes a fractional machine-job assignment in which every machine reaches
some value and returns an integral assignment in which every machine loses
at most its largest fractionally-held job size.  The assignment arrives as
integer counts over one scale (for the no-upper branch, the cover master's
``det``), and the rounding stays in integers over that scale; no
`fractions.Fraction` is built unless an error message needs one.  First each
support job's mass is raised to exactly 1 on its lowest-id support machine,
which can only raise machine values.  Then the cycles of the support are
cancelled: in the restricted setting a cycle admits a telescoping
perturbation (the edge at job j moves by +-delta / p_j), which keeps every
job mass and every machine value exact and empties at least one edge, so the
support ends a forest.  `clustering.cancel_cycles` does this on the
size-weighted entries y * p_j, where every cycle edge moves by the same
integer delta.  A cycle passes only through jobs held by two or more
machines, so the canceller runs only when some job is shared, and the
forest check reads only the shared jobs' edges.  Whole entries are assigned
outright; each tree of the remaining strictly fractional edges hangs from
its lowest job, and every machine claims its child jobs largest-first until
the claimed total covers what the loss bound demands.  Child jobs belong to
exactly one machine each, so the claims never collide, and the machine's
children always suffice: its parent edge is the only mass the bound lets it
drop.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .clustering import cancel_cycles
from .configlp import FractionalAssignment

# Unused here: perfbench/layertrace.py's hook patches this binding by name.
from .ratlp import solve_feasibility  # noqa: F401


class RoundingError(ValueError):
    """Bad input, or a rounding postcondition failed.  Raised, not asserted,
    so that ``python -O`` keeps the checks."""


def round_assignment(fa: FractionalAssignment, sizes) -> dict[int, int]:
    """Integral job -> machine map with per-machine loss at most max support size.

    Every quantity is an integer over ``fa.scale``: masses, the size-weighted
    entries y * size * scale that cycle cancelling moves, machine values and
    the loss bound.
    """
    scale = fa.scale
    mass = _validate(fa)
    y: dict[tuple[int, int], int] = {}  # y * scale
    lowest: dict[int, int] = {}
    for (i, j), c in sorted(fa.counts.items()):
        if c > 0:
            y[(i, j)] = c
            lowest.setdefault(j, i)
    for j, i in lowest.items():
        y[(i, j)] += scale - mass[j]
    machines = sorted({i for i, _ in y})
    value = {i: 0 for i in machines}
    max_size = {i: 0 for i in machines}
    weighted: dict[tuple[int, int], int] = {}  # y * size * scale
    for (i, j), c in y.items():
        weighted[(i, j)] = w = c * sizes[j]
        value[i] += w
        max_size[i] = max(max_size[i], sizes[j])

    # Every cycle runs through shared jobs only: with none, the support is
    # already a forest.
    shared = {j for j, h in Counter(j for _, j in weighted).items() if h > 1}
    forest = cancel_cycles(weighted) if shared else weighted
    _assert_forest([e for e in forest if e[1] in shared])
    edges = sorted(forest)

    owner: dict[int, int] = {}
    outright_value = {i: 0 for i in machines}
    jobs_of: dict[int, list[int]] = {}
    machines_of: dict[int, list[int]] = {}
    for i, j in edges:
        if forest[(i, j)] == sizes[j] * scale:
            if j in owner:
                raise RoundingError(f"job {j} assigned outright twice")
            owner[j] = i
            outright_value[i] += sizes[j]
        else:
            jobs_of.setdefault(i, []).append(j)
            machines_of.setdefault(j, []).append(i)

    # Jobs in id order: each job not yet reached is the lowest of its tree.
    seen_jobs: set[int] = set()
    seen_machines: set[int] = set()
    for root in sorted(machines_of):
        if root in seen_jobs:
            continue
        seen_jobs.add(root)
        stack = [root]
        while stack:
            parent = stack.pop()
            for i in machines_of[parent]:
                if i in seen_machines:
                    continue
                seen_machines.add(i)
                kids = [j for j in jobs_of[i] if j not in seen_jobs]
                seen_jobs.update(kids)
                stack.extend(kids)
                need = value[i] - (outright_value[i] + max_size[i]) * scale
                got = 0
                for j in sorted(kids, key=lambda j: (-sizes[j], j)):
                    if got >= need:
                        break
                    if j in owner:
                        raise RoundingError(f"child job {j} claimed twice")
                    owner[j] = i
                    got += sizes[j] * scale
                if got < need:
                    raise RoundingError(f"machine {i}: child jobs fell short of the loss bound")

    integral = {i: 0 for i in machines}
    for j, i in owner.items():
        integral[i] += sizes[j]
    for i in machines:
        if (integral[i] + max_size[i]) * scale < value[i]:
            raise RoundingError(
                f"machine {i}: rounded value {integral[i]} under the bound "
                f"{Fraction(value[i], scale)} - {max_size[i]}"
            )
    return owner


def _validate(fa: FractionalAssignment) -> dict[int, int]:
    """Each job's total mass as a count over ``fa.scale``, after checking
    every entry and total is in [0, 1]."""
    scale = fa.scale
    per_job: dict[int, int] = {}
    for (i, j), c in fa.counts.items():
        if c < 0 or c > scale:
            raise RoundingError(f"y[{i},{j}] = {Fraction(c, scale)} outside [0,1]")
        per_job[j] = per_job.get(j, 0) + c
    for j, mass in sorted(per_job.items()):
        if mass > scale:
            raise RoundingError(f"job {j} carries fractional mass {Fraction(mass, scale)} > 1")
    return per_job


def _assert_forest(edges) -> None:
    parent: dict = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in edges:
        a, b = ("m", i), ("j", j)
        for v in (a, b):
            parent.setdefault(v, v)
        ra, rb = find(a), find(b)
        if ra == rb:
            raise RoundingError("positive support contains a cycle after cycle cancelling")
        parent[ra] = rb
