"""Super-machine clustering over the big-job support graph.

The weighted bipartite graph between upper-class machines and big jobs (one
edge per positive big-singleton weight) is first made acyclic by rotating
weight around cycles, which preserves every per-machine and per-job total
exactly.  The resulting forest is then cut into clusters.  Every weight is
an integer count over the covering solution's scale (`ClpSolution.scale`),
from the graph through the cancelled forest to the small masses, so a
weight >= 1/2 reads 2 * count >= scale.

A standard cluster ("super machine") is a set of machines plus connector
jobs, each connector sitting between exactly two of the cluster's machines,
so the jobs form the edges of a tree over the machines.  That shape gives the
two combinatorial properties the pipeline needs for free: one fewer job than
machines, and a perfect placement of the jobs onto the machines no matter
which single machine is left out (orient the tree away from it).

A cluster whose machines carry almost no small-configuration weight cannot
feed its left-out machine with small jobs; in that case the machines must all
be paid with big jobs instead.  Such clusters are "saturated": every machine
is matched to a distinct eligible big job (a Hall-style argument guarantees a
matching exists exactly when the small weight falls under 1/2 and the
candidate jobs are free), whose smallest job is as large as any matching
allows, and they drop out of the composite-machine list.  Every matching is
one `configlp.route` max-flow.
Every cluster set is re-validated before it is returned; a failed property is
raised as a defect, never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .configlp import ClpSolution, Configuration, route
from .gapclasses import GapInstance, JobClasses, MachineClasses


class ClusteringError(RuntimeError):
    """A clustering invariant or postcondition failed.  Raised, not asserted, so
    that ``python -O`` keeps it."""


@dataclass(frozen=True)
class Cluster:
    machines: tuple[int, ...]
    jobs: tuple[int, ...]


@dataclass(frozen=True)
class SaturatedCluster:
    machines: tuple[int, ...]
    jobs: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]  # (machine, job) pairs


@dataclass(frozen=True)
class Composite:
    """A super machine or a middle-class singleton, as one matching unit."""

    machines: tuple[int, ...]
    kind: str  # "super" | "middle"


@dataclass
class ClusterSet:
    """The clustering result.  ``composites`` lists the super machines first,
    in the order of ``supers`` (composite d < len(supers) is ``supers[d]``),
    then one singleton per middle machine in machine order."""

    supers: tuple[Cluster, ...]
    saturated: tuple[SaturatedCluster, ...]
    composites: tuple[Composite, ...]
    xstar: ClpSolution
    gap: GapInstance
    job_classes: JobClasses
    machine_classes: MachineClasses


def bipartite_match(left: list[int], adj: dict[int, list[int]]) -> dict[int, int] | None:
    """A matching of every vertex of ``left`` to a distinct neighbour, or
    None: one `route` call, each neighbour a source of supply 1."""
    feeds: dict[int, list[int]] = {}
    for k, u in enumerate(left):
        for v in adj.get(u, ()):
            feeds.setdefault(v, []).append(k)
    flows = route(list(feeds.values()), [1] * len(feeds), [1] * len(left))
    return None if flows is None else {left[k]: v for v, f in zip(feeds, flows) for k in f}


def build_big_graph(
    gap: GapInstance, x: ClpSolution, job_classes: JobClasses, machine_classes: MachineClasses
) -> dict[tuple[int, int], int]:
    """Support graph of the upper machines' big singletons: (machine, job) ->
    count over ``x.scale``, every entry positive."""
    graph: dict[tuple[int, int], int] = {}
    for (i, cfg), c in x.counts.items():
        if c == 0 or i not in machine_classes.upper:
            continue
        if len(cfg.jobs) == 1 and cfg.jobs[0] in job_classes.big:
            graph[(i, cfg.jobs[0])] = graph.get((i, cfg.jobs[0]), 0) + c
    return {e: c for e, c in graph.items() if c > 0}


Vertex = tuple[str, int]


def _find_cycle(adj: dict[Vertex, list[Vertex]]) -> list[tuple[int, int]] | None:
    """First cycle of a DFS from the smallest vertex over sorted neighbour
    lists, as (machine, job) edges; None on a forest."""
    visited: set[Vertex] = set()
    parent: dict[Vertex, Vertex | None] = {}

    def dfs(v) -> list | None:
        visited.add(v)
        for u in adj[v]:
            if u == parent[v]:
                continue
            if u in visited:
                # back edge: walk v up to u
                path = [v]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return path
            parent[u] = v
            found = dfs(u)
            if found is not None:
                return found
        return None

    for start in sorted(adj):
        if start in visited:
            continue
        parent[start] = None
        cycle_vertices = dfs(start)
        if cycle_vertices is not None:
            verts = cycle_vertices + [cycle_vertices[0]]
            edges = []
            for a, b in zip(verts, verts[1:]):
                if a[0] == "m":
                    edges.append((a[1], b[1]))
                else:
                    edges.append((b[1], a[1]))
            return edges
    return None


def cancel_cycles(weights: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Cancel cycles in a bipartite machine-job support until it is a forest.

    Around an (even) cycle, starting from its lexicographically smallest
    edge, the edges alternately lose and gain delta, the least decremented
    integer weight, so every machine total and every job total stays exact
    and at least one edge reaches 0 and is deleted per rotation.  A caller
    that must keep totals of ``y * size(j)`` at machines and of ``y`` at jobs
    passes the size-weighted ``y * size(j)``: each cycle edge then moves y by
    +-delta / size(j), the same at both edges of a job.  The sorted adjacency
    is built once and loses each emptied edge, so every search sees the
    support exactly as it stands.  Returns a new dict.
    """
    weights = dict(weights)
    adj: dict[Vertex, list[Vertex]] = {}
    for i, j in weights:
        adj.setdefault(("m", i), []).append(("j", j))
        adj.setdefault(("j", j), []).append(("m", i))
    for neighbours in adj.values():
        neighbours.sort()
    while True:
        cycle = _find_cycle(adj)
        if cycle is None:
            return weights
        if len(cycle) % 2:
            raise ClusteringError(f"odd cycle {cycle} in a bipartite support graph")
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start]
        # Making the next edge share the starting edge's job fixes the
        # traversal direction deterministically.
        if cycle[1][1] != cycle[0][1]:
            cycle = [cycle[0]] + list(reversed(cycle[1:]))
        if cycle[1][1] != cycle[0][1]:
            raise ClusteringError(f"cycle {cycle} does not start on a shared job")
        delta = min(weights[e] for e in cycle[0::2])
        if delta <= 0:
            raise ClusteringError(f"cycle {cycle} carries a non-positive weight")
        for pos, e in enumerate(cycle):
            weights[e] += -delta if pos % 2 == 0 else delta
        for i, j in cycle[0::2]:
            if weights[(i, j)] == 0:
                del weights[(i, j)]
                adj[("m", i)].remove(("j", j))
                adj[("j", j)].remove(("m", i))


def eliminate_cycles(
    graph: dict[tuple[int, int], int], x: ClpSolution, gap: GapInstance
) -> tuple[dict[tuple[int, int], int], ClpSolution]:
    """Make the big-job support a forest with `cancel_cycles`.

    A big singleton counts 1 toward its machine's cover whatever the job's
    size, so the counts are cancelled as they are: each machine's and each
    job's total weight is kept.  The covering solution is updated in step,
    on ``x``'s scale, so the big-singleton counts always mirror the forest.
    """
    forest = cancel_cycles(graph)
    machines = {i for i, _ in graph}
    jobs = {j for _, j in graph}
    counts = {
        (i, cfg): c
        for (i, cfg), c in x.counts.items()
        if not (len(cfg.jobs) == 1 and cfg.jobs[0] in jobs and i in machines)
    }
    for (i, j), c in forest.items():
        counts[(i, Configuration(jobs=(j,), total_size=gap.tau))] = c
    xstar = ClpSolution(tau=x.tau, counts=counts, scale=x.scale)
    return forest, xstar


def small_mass_by_machine(xstar: ClpSolution, job_classes: JobClasses) -> dict[int, int]:
    """Each machine's small-bundle weight, as a count over ``xstar.scale``."""
    mass: dict[int, int] = {}
    for (i, cfg), c in xstar.counts.items():
        if set(cfg.jobs) <= job_classes.small:
            mass[i] = mass.get(i, 0) + c
    return mass


def extract_clusters(
    forest: dict[tuple[int, int], int],
    xstar: ClpSolution,
    job_classes: JobClasses,
    machine_classes: MachineClasses,
    gap: GapInstance,
) -> ClusterSet:
    """Cut the forest into super machines, saturating small-starved clusters.

    Bottom-up over each tree rooted at its smallest machine: every machine
    starts as its own one-machine cluster, and every job with machine
    children below it promotes exactly one child cluster into its parent's
    (the heaviest edge wins, smallest machine id on ties); the job becomes
    the connector between the two.  Children not promoted are finished
    clusters.  Connector bookkeeping keeps |jobs| = |machines| - 1 invariant
    throughout.

    Clusters whose total small-configuration weight falls below 1/2 are
    repaired jointly afterwards: their machines are matched to distinct
    eligible big jobs that no surviving cluster claims as a connector, the
    flow's sources taken largest first; then, while one exists, a matching
    on jobs strictly larger than the smallest job now matched replaces it.
    Each such machine's load is its one job and no other load depends on
    the choice, so this raises the saturated floor and lowers no load.  A
    failed repair or a failed property check raises, because the final
    allocation could not certify its floor otherwise.
    """
    small_mass = small_mass_by_machine(xstar, job_classes)

    adj_m: dict[int, list[int]] = {}
    adj_j: dict[int, list[int]] = {}
    for i, j in forest:
        adj_m.setdefault(i, []).append(j)
        adj_j.setdefault(j, []).append(i)
    for v in adj_m:
        adj_m[v].sort()
    for v in adj_j:
        adj_j[v].sort()

    emitted: list[dict] = []
    seen_machines: set[int] = set()

    for root in sorted(machine_classes.upper):
        if root in seen_machines:
            continue
        if root not in adj_m:
            raise ClusteringError(
                f"upper machine {root} has no big support edge; classification bug"
            )
        # Orient the tree: BFS from the root, alternating machine/job levels.
        children_jobs: dict[int, list[int]] = {root: []}
        children_machines: dict[int, list[int]] = {}
        order: list[int] = [root]
        seen_jobs: set[int] = set()
        seen_machines.add(root)
        queue = [root]
        while queue:
            i = queue.pop(0)
            children_jobs.setdefault(i, [])
            for j in adj_m.get(i, ()):
                if j in seen_jobs:
                    continue
                seen_jobs.add(j)
                children_jobs[i].append(j)
                children_machines[j] = []
                for w in adj_j.get(j, ()):
                    if w in seen_machines:
                        continue
                    seen_machines.add(w)
                    children_machines[j].append(w)
                    order.append(w)
                    queue.append(w)

        cluster_of: dict[int, dict] = {
            i: {"machines": [i], "jobs": []} for i in order
        }
        # Post-order: children before parents.
        for v in reversed(order):
            mine = cluster_of[v]
            for j in children_jobs.get(v, ()):
                kids = children_machines.get(j, [])
                if not kids:
                    continue  # leaf job: stays free for the repair pool
                best = max(kids, key=lambda w: (forest[(w, j)], -w))
                for w in kids:
                    if w is best:
                        continue
                    emitted.append(cluster_of[w])
                absorbed = cluster_of[best]
                mine["machines"].extend(absorbed["machines"])
                mine["jobs"].extend(absorbed["jobs"])
                mine["jobs"].append(j)
        emitted.append(cluster_of[root])

    uppers = set(machine_classes.upper)
    covered = [i for c in emitted for i in c["machines"]]
    if sorted(covered) != sorted(uppers):
        raise ClusteringError(
            f"clusters cover machines {sorted(covered)}, not the upper machines {sorted(uppers)}"
        )

    keep: list[Cluster] = []
    defects: list[dict] = []
    for c in emitted:
        total_small = sum(small_mass.get(i, 0) for i in c["machines"])
        if 2 * total_small >= xstar.scale:
            keep.append(
                Cluster(machines=tuple(sorted(c["machines"])), jobs=tuple(sorted(c["jobs"])))
            )
        else:
            defects.append(c)
    keep.sort(key=lambda c: c.machines[0])

    saturated: list[SaturatedCluster] = []
    if defects:
        claimed = {j for c in keep for j in c.jobs}
        candidates = set(job_classes.big) - claimed
        inst = gap.base
        left = sorted(i for c in defects for i in c["machines"])
        jobs = sorted(candidates, key=lambda j: (-inst.jobs[j].size, j))
        reach = [[k for k, i in enumerate(left) if i in inst.jobs[j].eligible] for j in jobs]
        # Largest first, so the jobs larger than the smallest one matched are a prefix.
        matching, cut = None, len(jobs)
        while (flows := route(reach[:cut], [1] * cut, [1] * len(left))) is not None:
            matching = {left[k]: j for j, f in zip(jobs, flows) for k in f}
            low = min(inst.jobs[j].size for j in matching.values())
            cut = next(g for g, j in enumerate(jobs) if inst.jobs[j].size <= low)
        if matching is None:
            raise ClusteringError(
                f"clustering postcondition violated: machines {left} of clusters with "
                "small weight below 1/2 have no big-job matching"
            )
        for c in defects:
            pairs = [(i, matching[i]) for i in sorted(c["machines"])]
            saturated.append(
                SaturatedCluster(
                    machines=tuple(sorted(c["machines"])),
                    jobs=tuple(sorted(j for _, j in pairs)),
                    assignment=tuple(pairs),
                )
            )
        saturated.sort(key=lambda c: c.machines[0])

    composites = tuple(
        [Composite(machines=c.machines, kind="super") for c in keep]
        + [Composite(machines=(i,), kind="middle") for i in sorted(machine_classes.middle)]
    )
    clusters = ClusterSet(
        supers=tuple(keep),
        saturated=tuple(saturated),
        composites=composites,
        xstar=xstar,
        gap=gap,
        job_classes=job_classes,
        machine_classes=machine_classes,
    )
    ok, why = check_cluster_properties(clusters, gap)
    if not ok:
        raise ClusteringError(f"clustering postcondition violated: {why}")
    _check_saturated(clusters)
    return clusters


def _check_saturated(clusters: ClusterSet) -> None:
    inst = clusters.gap.base
    used: set[int] = {j for c in clusters.supers for j in c.jobs}
    for c in clusters.saturated:
        if len(c.jobs) != len(c.machines):
            raise ClusteringError(
                f"saturated cluster {c.machines} holds {len(c.jobs)} big jobs, not one per machine"
            )
        for i, j in c.assignment:
            if j in used:
                raise ClusteringError(f"big job {j} claimed twice during saturation")
            used.add(j)
            if i not in inst.jobs[j].eligible:
                raise ClusteringError(f"saturated machine {i} got ineligible job {j}")
            if j not in clusters.job_classes.big:
                raise ClusteringError(f"saturated machine {i} got a small job {j}")


def check_cluster_properties(clusters: ClusterSet, gap: GapInstance) -> tuple[bool, str | None]:
    """The three super-machine properties, checked exactly.

    1. one fewer job than machines;
    2. the jobs can be placed on the machines leaving out any one machine
       (verified by running a bipartite matching per left-out machine);
    3. combined small-configuration weight at least 1/2.
    """
    small_mass = small_mass_by_machine(clusters.xstar, clusters.job_classes)
    scale = clusters.xstar.scale
    inst = gap.base
    for k, cluster in enumerate(clusters.supers):
        if len(cluster.jobs) != len(cluster.machines) - 1:
            return False, (
                f"cluster {k}: property 1 fails, |jobs|={len(cluster.jobs)} "
                f"but |machines|-1={len(cluster.machines) - 1}"
            )
        members = set(cluster.machines)
        for leave_out in cluster.machines:
            targets = members - {leave_out}
            adj = {j: sorted(inst.jobs[j].eligible & targets) for j in cluster.jobs}
            if bipartite_match(list(cluster.jobs), adj) is None:
                return False, (
                    f"cluster {k}: property 2 fails leaving out machine {leave_out}"
                )
        total_small = sum(small_mass.get(i, 0) for i in cluster.machines)
        if 2 * total_small < scale:
            return False, (
                f"cluster {k}: property 3 fails, small weight "
                f"{Fraction(total_small, scale)} < 1/2"
            )
    return True, None
