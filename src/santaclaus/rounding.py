"""Loss-bounded rounding of fractional assignments.

Takes a fractional machine-job assignment in which every machine reaches
some value and returns an integral assignment in which every machine loses
at most its largest fractionally-held job size.  The route is classic: poke
the LP over the assignment's own support once more to land on a vertex, at
which the strictly positive entries form a forest (in the restricted setting
a cycle always admits a telescoping perturbation, so a basic solution cannot
carry one).  Whole entries are assigned outright; in each tree of the
remaining strictly fractional edges, rooted at its lowest job, every machine
claims its child jobs largest-first until the claimed total covers what the
loss bound demands.  Child jobs belong to exactly one machine each, so the
claims never collide, and the machine's children always suffice: its parent
edge is the only mass the bound lets it drop.
"""

from __future__ import annotations

from fractions import Fraction

from .configlp import FractionalAssignment
from .ratlp import LinearProgram, solve_feasibility

ZERO = Fraction(0)


class RoundingError(ValueError):
    """Bad input, or a rounding postcondition failed.  Raised, not asserted,
    so that ``python -O`` keeps the checks."""


def round_assignment(fa: FractionalAssignment, sizes) -> dict[int, int]:
    """Integral job -> machine map with per-machine loss at most max support size."""
    _validate(fa)
    pairs = sorted(fa.y)
    support_of: dict[int, list[int]] = {}
    for i, j in pairs:
        support_of.setdefault(i, []).append(j)
    machines = list(support_of)  # sorted, as pairs are
    value = {
        i: sum((fa.y[(i, j)] * sizes[j] for j in support_of[i]), ZERO) for i in machines
    }
    max_size = {i: max(sizes[j] for j in support_of[i]) for i in machines}

    vertex = _vertex_on_support(fa, pairs, value, sizes)

    owner: dict[int, int] = {}
    positive = [(i, j) for (i, j) in pairs if vertex[(i, j)] > 0]
    _assert_forest(positive)

    outright_value = {i: ZERO for i in machines}
    fractional = []
    for i, j in positive:
        if vertex[(i, j)] == 1:
            if j in owner:
                raise RoundingError(f"job {j} assigned outright twice")
            owner[j] = i
            outright_value[i] += sizes[j]
        else:
            fractional.append((i, j))

    for tree in _trees(fractional):
        tree_jobs = sorted({j for _, j in tree})
        root = tree_jobs[0]
        children = _orient_from(root, tree)
        for i in sorted({m for m, _ in tree}):
            need = value[i] - outright_value[i] - max_size[i]
            if need <= 0:
                continue
            got = ZERO
            kids = sorted(children.get(i, ()), key=lambda j: (-sizes[j], j))
            for j in kids:
                if got >= need:
                    break
                if j in owner:
                    raise RoundingError(f"child job {j} claimed twice")
                owner[j] = i
                got += sizes[j]
            if got < need:
                raise RoundingError(f"machine {i}: child jobs fell short of the loss bound")

    integral = {i: ZERO for i in machines}
    for j, i in owner.items():
        integral[i] += sizes[j]
    for i in machines:
        if integral[i] < value[i] - max_size[i]:
            raise RoundingError(
                f"machine {i}: rounded value {integral[i]} under the bound "
                f"{value[i]} - {max_size[i]}"
            )
    return owner


def _validate(fa: FractionalAssignment) -> None:
    per_job: dict[int, Fraction] = {}
    for (i, j), v in fa.y.items():
        if v < 0 or v > 1:
            raise RoundingError(f"y[{i},{j}] = {v} outside [0,1]")
        per_job[j] = per_job.get(j, ZERO) + v
    for j, mass in sorted(per_job.items()):
        if mass > 1:
            raise RoundingError(f"job {j} carries fractional mass {mass} > 1")


def _vertex_on_support(fa, pairs, value, sizes):
    """A vertex of {y >= 0 on ``pairs``: each job's mass <= 1, each machine's
    value >= ``value[i]``}; rows are the jobs by id, then the machines by id,
    each over the support's columns in pair order."""
    job_rows: dict[int, dict[int, int]] = {}
    machine_rows: dict[int, dict[int, int]] = {}
    for c, (i, j) in enumerate(pairs):
        job_rows.setdefault(j, {})[c] = 1
        machine_rows.setdefault(i, {})[c] = sizes[j]
    lp = LinearProgram(len(pairs))
    for j in sorted(job_rows):
        lp.add_constraint(job_rows[j], "<=", 1)
    for i, row in machine_rows.items():
        lp.add_constraint(row, ">=", value[i])
    sol = solve_feasibility(lp)
    if not sol.is_optimal:
        raise RoundingError("support LP infeasible, although the input point satisfies it")
    values = sol.values
    return {pair: values[c] for c, pair in enumerate(pairs)}


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
            raise RoundingError("positive support contains a cycle; not a vertex")
        parent[ra] = rb


def _trees(edges):
    if not edges:
        return []
    neigh: dict = {}
    for i, j in edges:
        neigh.setdefault(("m", i), []).append(("j", j))
        neigh.setdefault(("j", j), []).append(("m", i))
    seen = set()
    out = []
    for start in sorted(neigh):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        comp_vertices = {start}
        while stack:
            v = stack.pop()
            for u in neigh[v]:
                if u not in comp_vertices:
                    comp_vertices.add(u)
                    seen.add(u)
                    stack.append(u)
        comp = [
            (i, j)
            for i, j in edges
            if ("m", i) in comp_vertices
        ]
        out.append(comp)
    return out


def _orient_from(root_job: int, tree_edges) -> dict[int, list[int]]:
    """Children jobs per machine when the tree hangs from ``root_job``."""
    neigh_m: dict[int, list[int]] = {}
    neigh_j: dict[int, list[int]] = {}
    for i, j in tree_edges:
        neigh_m.setdefault(i, []).append(j)
        neigh_j.setdefault(j, []).append(i)
    children: dict[int, list[int]] = {}
    seen_jobs = {root_job}
    seen_machines: set[int] = set()
    frontier_jobs = [root_job]
    while frontier_jobs:
        next_machines = []
        for j in frontier_jobs:
            for i in sorted(neigh_j.get(j, ())):
                if i in seen_machines:
                    continue
                seen_machines.add(i)
                next_machines.append(i)
        frontier_jobs = []
        for i in next_machines:
            kids = [j for j in sorted(neigh_m.get(i, ())) if j not in seen_jobs]
            children[i] = kids
            for j in kids:
                seen_jobs.add(j)
                frontier_jobs.append(j)
    return children
