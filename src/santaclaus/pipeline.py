"""End-to-end certified solver.

The pipeline computes the largest threshold T with a feasible configuration
LP, reshapes the instance through the 12-gap, and, when some job is big,
classifies machines by where the gap instance's covering weight sits.  With
no big job every configuration is small, so no machine can be upper and that
cover LP is not solved.  Then it branches:

* no upper-class machines: every machine's cover is at least half small
  bundles already, so a small-jobs-only cover at rhs 1/2 converts to a
  fractional assignment worth T/2 per machine and rounds to at least 5T/12;
  its master starts from the T search's columns, the local-search
  allocation's bundles among them;
* otherwise: upper machines are clustered into super machines over the big
  support forest, composite machines are matched to disjoint small bundles
  worth at least T/6 (an alternating-tree search for a perfect bundle
  matching, read off as an integral point of the extended assignment
  program), every non-selected super member receives a distinct big job
  from its cluster, and saturated clusters pay every machine with a matched
  big job.  Selection enumeration (`eap.select_by_enumeration`) serves only
  as a test oracle.

Every stage's output is re-validated as it is produced, and the final
allocation is evaluated against the original instance; the run aborts rather
than return anything whose minimum load is not certifiably at least T/12.
Since T bounds the true optimum from above, that certifies a factor-12
approximation on every successful run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .clustering import (
    bipartite_match,
    build_big_graph,
    eliminate_cycles,
    extract_clusters,
)
from .configlp import (
    check_mclp,
    clp_to_alp,
    find_T_with_seeds,
    machine_pools,
    solve_clp_feasibility,
)
from .eap import check_eap, eap_from_matching

# Unused here: perfbench/layertrace.py's hook patches these bindings by name.
from .eap import restrict_eap, select_by_enumeration  # noqa: F401
from .gapclasses import ALPHA, build_gap_instance, classify_jobs, classify_machines
from .instances import Allocation, Instance, verify_allocation
from .matching import find_perfect_matching
from .rat import rat_to_str
from .rounding import round_assignment

ZERO = Fraction(0)


class PipelineError(RuntimeError):
    """A stage postcondition failed; the allocation could not be certified."""


@dataclass
class SolveReport:
    T: Fraction
    branch: str  # "trivial" | "no-upper" | "clustered"
    allocation: Allocation
    certified_ratio_bound: Fraction | None
    counters: dict[str, int] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict:
        doc = {
            "T": rat_to_str(self.T),
            "branch": self.branch,
            "min_value": rat_to_str(self.allocation.min_value),
            "certified_ratio_bound": (
                rat_to_str(self.certified_ratio_bound)
                if self.certified_ratio_bound is not None
                else None
            ),
            "owner": {str(j): i for j, i in sorted(self.allocation.owner.items())},
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        if include_timings:
            doc["timings_ms"] = {
                k: round(self.timings_ms[k], 3) for k in sorted(self.timings_ms)
            }
        return doc

    def canonical_json(self) -> str:
        """Deterministic serialization: everything except wall-clock timings."""
        return json.dumps(self.to_dict(include_timings=False), separators=(",", ":"))


class _Stopwatch:
    def __init__(self) -> None:
        self.timings_ms: dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timings_ms[stage] = self.timings_ms.get(stage, 0.0) + (now - self._mark) * 1000
        self._mark = now


def solve(inst: Instance) -> SolveReport:
    """Run the full pipeline and return a certified allocation report.

    The gap is fixed at ``gapclasses.ALPHA`` = 12, which the certified floors
    (T/2 - T/12 = 5T/12 without upper machines, T/12 otherwise) rely on.
    The pipeline is deterministic: equal instances give equal reports, apart
    from wall-clock timings.
    """
    watch = _Stopwatch()
    counters: dict[str, int] = {}

    T_int, seeds = find_T_with_seeds(inst, counters)
    T = Fraction(T_int)
    watch.lap("find_T")
    if T == 0:
        alloc = Allocation(owner={}, min_value=ZERO)
        return SolveReport(
            T=T,
            branch="trivial",
            allocation=alloc,
            certified_ratio_bound=None,
            counters=counters,
            timings_ms=watch.timings_ms,
        )

    gap = build_gap_instance(inst, T)
    job_classes = classify_jobs(gap)
    # With no big job every configuration is small, so no machine can be
    # upper and the classifying LP would decide nothing.
    machine_classes = None
    if job_classes.big:
        x = solve_clp_feasibility(
            inst, T, pools=machine_pools(inst), sizes=gap.gap_size, seeds=seeds,
            counters=counters,
        )
        if x is None:
            raise PipelineError("gap-instance cover LP infeasible at T; T search bug")
        machine_classes = classify_machines(gap, job_classes, x)
    watch.lap("classify")

    if machine_classes is None or not machine_classes.upper:
        owner = _solve_no_upper(inst, job_classes, T, seeds, counters)
        branch = "no-upper"
        floor = T / 2 - T / ALPHA
    else:
        owner = _solve_clustered(inst, gap, job_classes, machine_classes, x, T, counters)
        branch = "clustered"
        floor = T / ALPHA
    watch.lap("branch")

    alloc = Allocation(owner=owner, min_value=verify_allocation(inst, Allocation(owner, ZERO)))
    if alloc.min_value < floor:
        raise PipelineError(
            f"certification failed: minimum load {alloc.min_value} below the "
            f"{branch} branch floor {floor}"
        )
    ratio = T / alloc.min_value if alloc.min_value > 0 else None
    watch.lap("assemble")
    return SolveReport(
        T=T,
        branch=branch,
        allocation=alloc,
        certified_ratio_bound=ratio,
        counters=counters,
        timings_ms=watch.timings_ms,
    )


def _solve_no_upper(inst, job_classes, T, seeds, counters):
    """Small-only cover at rhs 1/2, then loss-bounded rounding.

    The cover is feasible.  With a big job, the classifying solution
    witnesses it: each machine is middle, so its small weight already
    reaches 1/2.  With none, every configuration is small and the gap sizes
    are the instance's, so the configuration LP at T, whose feasibility the
    T search certified, is itself a small-only cover at rhs 1 >= 1/2.
    Re-solving over the small pool keeps this branch independent of where
    any classifying weights happened to sit.

    The master starts from the T search's ``seeds``: the local-search
    allocation's bundles and the columns of its feasible probes, kept where
    they use small jobs only and re-pruned at T.  When that allocation
    reaches T on small jobs alone, its bundles cover every machine
    disjointly, so the first master solve already has no shortfall; on
    all-unit instances it is optimal, and nothing is priced.
    """
    pools = machine_pools(inst, job_pool=job_classes.small)
    z = solve_clp_feasibility(
        inst, T, pools=pools, sizes=inst.sizes(), cover_rhs=Fraction(1, 2),
        seeds=seeds, counters=counters,
    )
    if z is None:
        raise PipelineError("small-only cover at 1/2 infeasible; classification bug")
    assignment = clp_to_alp(z, inst.sizes())
    owner = round_assignment(assignment, inst.sizes())
    counters["small_rounded_jobs"] = len(owner)
    return owner


def _solve_clustered(inst, gap, job_classes, machine_classes, x, T, counters):
    graph = build_big_graph(gap, x, job_classes, machine_classes)
    forest, xstar = eliminate_cycles(graph, x, gap)
    clusters = extract_clusters(forest, xstar, job_classes, machine_classes, gap)
    counters["supers"] = len(clusters.supers)
    counters["saturated"] = len(clusters.saturated)
    counters["composites"] = len(clusters.composites)
    ok, why = check_mclp(clusters)
    if not ok:
        raise PipelineError(f"composite cover check failed: {why}")

    owner: dict[int, int] = {}

    def give(job: int, machine: int) -> None:
        if job in owner:
            raise PipelineError(f"job {job} assigned twice during assembly")
        owner[job] = machine

    state = find_perfect_matching(clusters, T)
    counters["matching_steps"] = state.steps
    eap = eap_from_matching(state, clusters)
    ok, why = check_eap(eap, clusters, T)
    if not ok:
        raise PipelineError(f"assignment-program check failed: {why}")
    selected = {d: e.member for d, e in state.matched.items()}
    for d, e in sorted(state.matched.items()):
        for j in e.bundle:
            give(j, e.member)

    # Non-selected super members each take a distinct big job of the cluster;
    # super machine d is composite d.
    for d, cluster in enumerate(clusters.supers):
        chosen = selected[d]
        rest = [i for i in cluster.machines if i != chosen]
        adj = {
            j: sorted(inst.jobs[j].eligible & set(rest)) for j in cluster.jobs
        }
        placement = bipartite_match(list(cluster.jobs), adj)
        if len(placement) != len(cluster.jobs):
            raise PipelineError(
                f"big-job placement failed for super machine {cluster.machines}"
            )
        for j, i in sorted(placement.items()):
            give(j, i)

    for cluster in clusters.saturated:
        for i, j in cluster.assignment:
            give(j, i)

    return owner
