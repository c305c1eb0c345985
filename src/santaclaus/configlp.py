"""Configuration-LP family: knapsack pricing, column generation, the T search.

A configuration (bundle) is a set of jobs for one machine.  It is minimal at
threshold tau when its total size reaches tau and dropping any member falls
below tau.  The covering LP over minimal configurations (the configuration
LP) asks for fractional weights so that every machine reaches its cover
requirement while no job is used more than once in total.

Solving works by column generation over one restricted master per cover LP
call.  The master is an exact, fraction-free simplex tableau
(`ratlp.Tableau`), written in one pass from the warm-start columns and kept
for the whole call: pricing's improving columns are appended to it as
B^-1 a at their place in the master's logical column order, a job's row
enters with the first column that uses the job, and each round
re-optimises from the previous optimal basis.  Pricing is a
minimum-knapsack dynamic program over the master's dual values: a column
prices in exactly when its jobs' dual cost is below the machine's cover
dual.  The master hands out its duals as integers, scaled by its basis
determinant; pricing runs the table on them as they are and compares
reduced costs over integers, which keeps every comparison and so every
priced column the same as over the rationals.  Every job dual is
non-negative at an optimal basis (its slack prices at <= 0, and this is
checked), so a machine whose cover dual is 0 has no improving column and is
not priced.  With exact arithmetic, pricing convergence with a positive
shortfall objective is a proof of infeasibility, not a numeric judgement
call.

A solution leaves the master as it holds it: integer counts over one scale,
the master's ``det * bden`` (`ClpSolution`), and no reader turns them back
into rationals.  Its postcondition (`check_cover_solution`), the collapse to
a job-level assignment (`clp_to_alp`, whose `FractionalAssignment` keeps the
same scale), the T search's seed harvest, the classification, clustering
and the composite cover check (`check_mclp`) all compare integer sums
against thresholds multiplied by the scale; a `Fraction` is built only for
an error message.  Bundle totals are integers too, so every minimality test
compares them with ceil(tau), computed once per cover LP.

The same engine serves two covers, both with one cover row per machine: the
configuration LP (cover >= 1) that the T search probes and, when some job is
big, the gap instance is classified by, and the small-jobs-only variant with
cover >= 1/2 used by the no-upper-class branch.

The T search bisects only between two bounds that need no LP.  Below: the
minimum load of a largest-first greedy allocation, improved by a move/swap
local search.  Above: the largest tau at which the assignment LP clipped at
tau is feasible, which a max-flow decides exactly; every configuration-LP
point gives such a flow, so the bound holds, and at tau = 1 the two LPs are
the same, so the flow also decides whether T >= 1.  When the two bounds
meet, T costs no LP at all.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from .instances import Allocation, Instance, verify_allocation
from .rat import ceil_frac
from .ratlp import Tableau, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


class CoverLpError(RuntimeError):
    """The column-generation master broke an invariant: a solver bug, never
    an input fault.  Raised, not asserted, so that ``python -O`` keeps it."""


@dataclass(frozen=True, order=True)
class Configuration:
    """A sorted job bundle and its total size under the sizes it was built with."""

    jobs: tuple[int, ...]
    total_size: int


def is_minimal(jobs: Iterable[int], need: int, sizes: Sequence[int]) -> bool:
    """Whether the bundle reaches ``need`` and no member can be dropped.

    Totals are integers, so ``need`` = ceil(tau) decides the same as tau;
    a rational tau is accepted too.
    """
    tup = tuple(set(jobs))
    total = sum(sizes[j] for j in tup)
    if total < need:
        return False
    return all(total - sizes[j] < need for j in tup)


def prune_to_minimal(
    jobs: Iterable[int],
    need: int,
    sizes: Sequence[int],
    costs: Mapping[int, Fraction] | None = None,
) -> Configuration:
    """Drop removable jobs, largest cost first (ties: smallest index).

    Without costs the job size stands in for the cost, so seeds reuse the
    same deterministic rule.  ``need`` is ceil(tau), as in `is_minimal`.
    """
    chosen = sorted(set(jobs))
    total = sum(sizes[j] for j in chosen)
    if total < need:
        raise ValueError("cannot prune a bundle that does not reach tau")
    while True:
        drop = None
        drop_key = None
        for j in chosen:
            if total - sizes[j] >= need:
                key = costs.get(j, 0) if costs is not None else sizes[j]
                if drop is None or key > drop_key:
                    drop, drop_key = j, key
        if drop is None:
            return Configuration(jobs=tuple(chosen), total_size=total)
        chosen.remove(drop)
        total -= sizes[drop]


def price_min_knapsack(
    pool: Sequence[int],
    sizes: Sequence[int],
    costs: Mapping[int, int],
    tau: Fraction,
) -> Configuration | None:
    """Cheapest subset of ``pool`` with total size >= tau, pruned to minimality.

    ``costs`` (job -> cost, 0 when absent) must be non-negative; they may be
    integers or rationals, and scaling them all by one positive factor
    returns the same configuration, since the table only compares costs.
    Dynamic program over integer size totals capped at ceil(tau); returns
    None when even the whole pool falls short.  Skipping is preferred on cost
    ties during reconstruction, so the raw cover leans on low job indices
    before pruning makes the final call.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    pool = sorted(pool)
    cap = ceil_frac(tau)
    if sum(sizes[j] for j in pool) < cap:
        return None
    cost = [costs.get(j, 0) for j in pool]
    if any(c < 0 for c in cost):
        raise ValueError("pricing costs must be non-negative")
    # Every reachable total costs at most sum(cost) < NO, and an unreachable
    # entry plus a non-negative cost stays >= NO.
    NO = sum(cost) + 1
    # dp[k][s]: cheapest cost of the first k jobs reaching total s (capped).
    dp = [[0] + [NO] * cap]
    for j, c in zip(pool, cost):
        w = sizes[j]
        prev = dp[-1]
        if w < cap:
            dp.append(
                prev[:w]
                + [a if a <= (t := b + c) else t for a, b in zip(prev[w:cap], prev)]
                + [min(prev[cap], min(prev[cap - w:]) + c)]
            )
        else:
            dp.append(prev[:cap] + [min(prev[cap], min(prev) + c)])
    if dp[-1][cap] >= NO:
        return None
    # Reconstruct, preferring "skip" whenever it explains the table entry.
    # Taking job k reaches s < cap only from s - w, and reaches cap from the
    # first matching total in [cap - w, cap].
    chosen = []
    s = cap
    for k in range(len(pool), 0, -1):
        target = dp[k][s]
        prev = dp[k - 1]
        if prev[s] == target:
            continue
        j = pool[k - 1]
        c = cost[k - 1]
        w = sizes[j]
        if s < cap:
            pre = s - w if s >= w and prev[s - w] + c == target else -1
        else:
            lo = max(cap - w, 0)
            pre = next((t for t in range(lo, cap + 1) if prev[t] + c == target), -1)
        if pre < 0:
            raise CoverLpError("knapsack reconstruction failed")
        chosen.append(j)
        s = pre
    return prune_to_minimal(chosen, cap, sizes, costs)


@dataclass
class ClpSolution:
    """Feasible point of a covering LP: (machine, configuration) -> weight.

    Weight ``counts[key] / scale``: integer counts over one positive scale,
    the master's ``det * bden``, which every reader compares against
    thresholds multiplied by the scale.
    """

    tau: Fraction
    counts: dict[tuple[int, Configuration], int]
    scale: int
    cover_rhs: Fraction

    def carried(self, machine: int) -> list[tuple[Configuration, int]]:
        out = [(cfg, c) for (i, cfg), c in self.counts.items() if i == machine]
        out.sort(key=lambda t: t[0])
        return out


def check_cover_solution(
    sol: ClpSolution,
    pools: Mapping[int, Sequence[int]],
    sizes: Sequence[int],
) -> tuple[bool, str | None]:
    """Exact feasibility check: cover, job usage, minimality, eligibility.

    Every machine in ``pools`` must reach ``sol.cover_rhs``.  Sums and
    thresholds are integers over ``sol.scale``.
    """
    scale = sol.scale
    need = ceil_frac(sol.tau)
    cover: dict[int, int] = {}
    usage: dict[int, int] = {}
    for (i, cfg), c in sol.counts.items():
        if c < 0 or c > scale:
            return False, f"weight out of [0,1] on machine {i}"
        pool = set(pools.get(i, ()))
        if not set(cfg.jobs) <= pool:
            return False, f"machine {i} carries a job outside its pool"
        if not is_minimal(cfg.jobs, need, sizes):
            return False, f"machine {i} carries a non-minimal configuration {cfg.jobs}"
        cover[i] = cover.get(i, 0) + c
        for j in cfg.jobs:
            usage[j] = usage.get(j, 0) + c
    rhs = sol.cover_rhs
    for i in sorted(pools):
        covered = cover.get(i, 0)
        if covered * rhs.denominator < rhs.numerator * scale:
            return False, f"machine {i} cover {Fraction(covered, scale)} < {rhs}"
    for j, used in sorted(usage.items()):
        if used > scale:
            return False, f"job {j} used {Fraction(used, scale)} > 1"
    return True, None


def solve_cover_lp(
    pools: Mapping[int, Sequence[int]],
    sizes: Sequence[int],
    tau: Fraction,
    cover_rhs: Fraction = ONE,
    seeds: Mapping[int, Iterable[tuple[int, ...]]] | None = None,
    counters: dict[str, int] | None = None,
) -> ClpSolution | None:
    """Column generation for the covering LP; None means certified infeasible.

    Every machine in ``pools`` gets one cover row, ``>= cover_rhs``, in
    machine order; ``pools[i]`` lists the jobs machine i may bundle
    (eligibility already applied), so a machine with an empty pool makes the
    LP infeasible.  ``seeds`` optionally warm-start the master with job
    bundles re-pruned to minimality at this tau.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    need = ceil_frac(tau)
    machines = sorted(pools)
    cover_row = {i: r for r, i in enumerate(machines)}

    # The master keeps one tableau for the whole call.  Its columns are, in
    # logical order: shortfall a_i, excess e_i, the configurations in
    # creation order, then job slacks s_j by job id.  Every row is an
    # equality whose own a_i or s_j is a unit column, so the master starts on
    # that identity basis (feasible, no phase 1) and the tableau columns of
    # a_i and s_j always hold B^-1: a priced column enters as B^-1 a, and the
    # row of a job seen for the first time touches only new, nonbasic
    # columns, so it enters as written with s_j basic.  Each round then
    # re-optimises from the previous optimal basis.  Pivot tie-breaks read
    # the logical order, so each solve pivots exactly as a solve of the same
    # master written out from scratch in that order, on that basis, would.
    nrows = len(machines)
    base = 2 * nrows

    # Warm start: seeds first, then one greedy column per machine whose pool
    # reaches tau at all, in creation order without repeats.
    start: dict[tuple[int, Configuration], None] = {}
    if seeds:
        for i in sorted(seeds):
            if i not in cover_row:
                continue
            pool = set(pools[i])
            for jobs in sorted(set(tuple(sorted(js)) for js in seeds[i])):
                if not set(jobs) <= pool:
                    continue
                if sum(sizes[j] for j in jobs) >= need:
                    start[(i, prune_to_minimal(jobs, need, sizes))] = None
    for i in machines:
        pool = sorted(pools[i])
        if pool and sum(sizes[j] for j in pool) >= need:
            start[(i, prune_to_minimal(pool, need, sizes))] = None

    # The warm-start master in one pass: cover rows in machine order, then
    # one row per job some start column uses, by job id.
    job_rows = sorted({j for _, cfg in start for j in cfg.jobs})  # jobs with a row
    row_of = {j: nrows + k for k, j in enumerate(job_rows)}
    first_slack = base + len(start)
    rows = [({r: 1, nrows + r: -1}, cover_rhs, r) for r in range(nrows)]
    rows += [({first_slack + k: 1}, ONE, first_slack + k) for k in range(len(job_rows))]
    column_of: dict[tuple[int, Configuration], int] = {}  # in creation order
    for col, (i, cfg) in enumerate(start, base):
        column_of[(i, cfg)] = col
        rows[cover_row[i]][0][col] = 1
        for j in cfg.jobs:
            rows[row_of[j]][0][col] = 1
    master = Tableau.from_rows([-1] * nrows + [0] * (nrows + len(start) + len(job_rows)), rows)

    def add_column(i: int, cfg: Configuration) -> None:
        entries = {row_of[j]: 1 for j in cfg.jobs if j in row_of}
        entries[cover_row[i]] = 1
        col = column_of[(i, cfg)] = master.insert_column(base + len(column_of), entries)
        for j in cfg.jobs:
            if j not in row_of:
                k = bisect_left(job_rows, j)
                job_rows.insert(k, j)
                slack = master.insert_column(base + len(column_of) + k, {})
                row_of[j] = master.add_row({col: 1, slack: 1}, ONE, basic=slack)

    while True:
        if counters is not None:
            counters["master_solves"] = counters.get("master_solves", 0) + 1
        sol = solve_lp(master)
        if not sol.is_optimal:
            raise CoverLpError("shortfall master is always feasible and bounded")

        # Duals times the master's det, so every sign below is exact.
        ys = sol.ys
        mu = {j: ys[r] for j, r in row_of.items()}
        if any(v < 0 for v in mu.values()):
            raise CoverLpError("negative job dual at an optimal master basis")

        improved = False
        for i in machines:
            lam = -ys[cover_row[i]]
            # Job duals are >= 0, so no column prices in where lam is 0.
            if lam <= 0 or not pools[i]:
                continue
            cfg = price_min_knapsack(pools[i], sizes, mu, tau)
            if cfg is None:
                continue
            if lam - sum(mu.get(j, 0) for j in cfg.jobs) > 0:
                if (i, cfg) in column_of:
                    raise CoverLpError("an improving column was already in the master")
                add_column(i, cfg)
                improved = True
        if improved:
            continue

        if sol.objective != 0:  # a positive shortfall
            return None
        xs = sol.xs
        counts = {key: xs[col] for key, col in column_of.items() if xs[col]}
        result = ClpSolution(
            tau=tau, counts=counts, scale=sol.det * sol.bden, cover_rhs=Fraction(cover_rhs)
        )
        ok, why = check_cover_solution(result, pools, sizes)
        if not ok:
            raise CoverLpError(f"cover LP postcondition violated: {why}")
        return result


def machine_pools(inst: Instance, job_pool: Iterable[int] | None = None) -> dict[int, tuple[int, ...]]:
    allowed = set(range(inst.job_count)) if job_pool is None else set(job_pool)
    # tuple(list), not tuple(generator): see ratlp.LpSolution.
    return {
        i: tuple([j for j in inst.eligible_jobs(i) if j in allowed])
        for i in range(inst.machine_count)
    }


def solve_clp_feasibility(
    inst: Instance,
    tau: Fraction,
    pools: Mapping[int, Sequence[int]] | None = None,
    sizes: Sequence[int] | None = None,
    cover_rhs: Fraction = ONE,
    seeds: Mapping[int, Iterable[tuple[int, ...]]] | None = None,
    counters: dict[str, int] | None = None,
) -> ClpSolution | None:
    """Per-machine configuration LP over ``inst`` (one cover row per machine).

    ``pools`` defaults to every machine's eligible jobs, ``sizes`` to the
    instance's own sizes.
    """
    if pools is None:
        pools = machine_pools(inst)
    if sizes is None:
        sizes = inst.sizes()
    return solve_cover_lp(
        pools=pools,
        sizes=sizes,
        tau=tau,
        cover_rhs=cover_rhs,
        seeds=seeds,
        counters=counters,
    )


def find_T(inst: Instance, counters: dict[str, int] | None = None) -> Fraction:
    T, _ = find_T_with_seeds(inst, counters)
    return Fraction(T)


def greedy_allocation(inst: Instance) -> dict[int, int]:
    """Largest-first greedy owner map (job -> machine).

    Jobs go largest first (ties: lower index), each to its least-loaded
    eligible machine (ties: lower index); jobs no machine may take stay
    unassigned.
    """
    loads = [0] * inst.machine_count
    owner: dict[int, int] = {}
    for j in sorted(range(inst.job_count), key=lambda j: (-inst.jobs[j].size, j)):
        job = inst.jobs[j]
        if job.eligible:
            i = min(job.eligible, key=lambda i: (loads[i], i))
            owner[j] = i
            loads[i] += job.size
    return owner


def local_search_allocation(inst: Instance, owner: Mapping[int, int]) -> dict[int, int]:
    """Move/swap local search on an owner map (job -> machine); returns a copy.

    A step moves one job to another of its eligible machines, or swaps two
    jobs between their machines, and must raise the key (minimum load, minus
    the number of machines at it): first the minimum load, then fewer
    machines at it.  Only a step that hands a machine at the minimum more
    load can do that, so only those are scanned.  Each round takes the best
    key; ties go to the first step scanned (receiving machine, moves before
    swaps, giving machine, job indices).  The key rises every round, so the
    search ends, and the minimum load never falls.
    """
    m = inst.machine_count
    sizes = inst.sizes()
    owner = dict(owner)
    loads = [0] * m
    held: list[list[int]] = [[] for _ in range(m)]
    for j, i in sorted(owner.items()):
        loads[i] += sizes[j]
        held[i].append(j)

    def key_after(a: int, b: int, d: int) -> tuple[int, int]:
        """The key once load ``d`` goes from machine a to machine b."""
        loads[a] -= d
        loads[b] += d
        low = min(loads)
        key = (low, -loads.count(low))
        loads[a] += d
        loads[b] -= d
        return key

    while True:
        low = min(loads)
        best_key = (low, -loads.count(low))
        best = None  # (giving machine, receiving machine, job moved to b, job moved to a)
        for b in range(m):
            if loads[b] != low:
                continue
            steps = [
                (a, j, None, sizes[j])
                for a in range(m) if a != b
                for j in held[a] if b in inst.jobs[j].eligible
            ]
            steps += [
                (a, j, k, sizes[j] - sizes[k])
                for a, j, _, _ in steps
                for k in held[b] if sizes[k] < sizes[j] and a in inst.jobs[k].eligible
            ]
            for a, j, k, d in steps:
                if loads[a] - d > low and (key := key_after(a, b, d)) > best_key:
                    best_key, best = key, (a, b, j, k)
        if best is None:
            return owner
        a, b, j, k = best
        for job, src, dst in ((j, a, b), (k, b, a)):
            if job is not None:
                owner[job] = dst
                loads[src] -= sizes[job]
                loads[dst] += sizes[job]
                held[src].remove(job)
                insort(held[dst], job)


def assignment_flow_feasibility(inst: Instance) -> Callable[[int], bool]:
    """Whether the assignment LP clipped at tau is feasible, as a predicate
    on tau.

    That LP asks for a fractional assignment in which every machine receives
    at least tau, counting job j as min(p_j, tau) and using each job at most
    once in total.  It is feasible exactly when the network source -> job j
    (capacity min(p_j, tau)) -> each eligible machine -> sink (capacity tau)
    carries m * tau.  Every configuration-LP point at tau gives such a flow,
    since a minimal configuration holding a job of size >= tau is that job
    alone.  Jobs with the same eligible set are one source, with their
    capacities summed, which changes no cut.  The sources are grouped here,
    once, with each source's sizes sorted and prefix-summed, so a call
    clips a source's capacity at tau with one bisection.  The flow is exact
    over integers: a greedy start, then shortest augmenting paths from every
    source with supply left to a machine still short, where a path may
    shift a source's flow from one of its machines to another.
    """
    m = inst.machine_count
    grouped: dict[frozenset[int], list[int]] = {}
    for job in inst.jobs:
        if job.eligible:
            grouped.setdefault(job.eligible, []).append(job.size)
    machines = [sorted(eligible) for eligible in grouped]
    sources = [sorted(sizes) for sizes in grouped.values()]
    totals = [list(accumulate(sizes, initial=0)) for sizes in sources]

    def feasible(tau: int) -> bool:
        # sum_j min(p_j, tau): the sizes up to tau, then tau for each larger one.
        rest = []
        for sizes, total in zip(sources, totals):
            k = bisect_right(sizes, tau)
            rest.append(total[k] + (len(sizes) - k) * tau)
        return _flow_meets(machines, rest, m, tau)

    return feasible


def _flow_meets(machines: list[list[int]], rest: list[int], m: int, tau: int) -> bool:
    """Whether sources with supplies ``rest``, source g sending to the
    machines ``machines[g]``, can bring every one of ``m`` machines tau."""
    need = [tau] * m
    sent: list[dict[int, int]] = [{} for _ in machines]  # source -> machine -> flow
    for g, elig in enumerate(machines):
        for i in elig:
            d = min(rest[g], need[i])
            if d:
                sent[g][i] = d
                rest[g] -= d
                need[i] -= d
    while any(need):
        # Breadth first over machines; a machine is reached from a source
        # with supply left, or from a reached machine i through a source
        # that sends to i and may send to this machine instead.
        via: dict[int, tuple[int | None, int]] = {}  # machine -> (previous machine, source)
        queue = []
        for g, elig in enumerate(machines):
            if rest[g]:
                for i in elig:
                    if i not in via:
                        via[i] = (None, g)
                        queue.append(i)
        target = None
        for i in queue:
            if need[i]:
                target = i
                break
            for g, elig in enumerate(machines):
                if sent[g].get(i):
                    for k in elig:
                        if k not in via:
                            via[k] = (i, g)
                            queue.append(k)
        if target is None:
            return False
        path = []
        d = need[target]
        i = target
        while True:
            prev, g = via[i]
            path.append((prev, g, i))
            if prev is None:
                d = min(d, rest[g])
                break
            d = min(d, sent[g][prev])
            i = prev
        need[target] -= d
        for prev, g, i in path:
            sent[g][i] = sent[g].get(i, 0) + d
            if prev is None:
                rest[g] -= d
            else:
                sent[g][prev] -= d
    return True


def find_T_with_seeds(
    inst: Instance, counters: dict[str, int] | None = None
) -> tuple[int, dict[int, set[tuple[int, ...]]]]:
    """Largest integer tau with a feasible configuration LP, plus column seeds.

    Integer search is exact: with integer sizes the minimal-configuration
    family is constant on (k, k+1], so feasibility only changes at integers,
    and it is monotone in tau, so T is unique.  The search bisects a bracket
    that needs no LP.  Below: the minimum load of `greedy_allocation`
    improved by `local_search_allocation`, as `verify_allocation` recomputes
    it; its bundles, pruned, are a feasible point at that tau.  Above: the
    largest tau in the bracket at which `assignment_flow_feasibility` holds,
    found by bisection, since the flow's feasibility is monotone in tau
    (sum_j min(p_j, tau) - |M'| tau is concave for every machine subset M').
    The flow bisection starts from the smallest pool total and
    floor(S / m), with S the total size of the jobs some machine may take,
    and runs only when the bracket is open.  At tau = 1 every minimal
    configuration is a single job, so both LPs are the same bipartite
    matching LP there: a flow bound of 0 closes the bracket at T = 0, and
    one >= 1 raises a lower end of 0 to 1.  The allocation's bundles and the
    columns found at each feasible tau seed the master at the next probe,
    re-pruned.  ``counters`` gets the bracket (``t_search_lower``,
    ``t_search_upper``) and the number of LP probes (``clp_solves``, 0 when
    the bracket is closed).
    """
    pools = machine_pools(inst)
    sizes = inst.sizes()
    owner = local_search_allocation(inst, greedy_allocation(inst))
    lo = int(verify_allocation(inst, Allocation(owner=owner, min_value=ZERO)))
    hi = min(
        min(sum(sizes[j] for j in pools[i]) for i in pools),
        sum(job.size for job in inst.jobs if job.eligible) // inst.machine_count,
    )
    if lo > hi:
        raise CoverLpError(f"T search bracket is inverted: greedy {lo} > upper bound {hi}")
    # The allocation gives a flow at its minimum load.
    if lo < hi:
        hi = _largest_holding(lo, hi, assignment_flow_feasibility(inst))
    lo = max(lo, min(hi, 1))
    if counters is not None:
        counters.setdefault("clp_solves", 0)
        counters["t_search_lower"] = lo
        counters["t_search_upper"] = hi
    bundles: dict[int, list[int]] = {i: [] for i in pools}
    for j, i in sorted(owner.items()):
        bundles[i].append(j)
    seeds = {i: {tuple(b)} if b else set() for i, b in bundles.items()}

    def feasible(tau: int) -> bool:
        if counters is not None:
            counters["clp_solves"] += 1
        sol = solve_clp_feasibility(
            inst, Fraction(tau), pools=pools, sizes=sizes, seeds=seeds, counters=counters
        )
        if sol is None:
            return False
        for i, cfg in sol.counts:
            seeds[i].add(cfg.jobs)
        return True

    return _largest_holding(lo, hi, feasible), seeds


def _largest_holding(lo: int, hi: int, holds) -> int:
    """Bisection: the largest tau in [lo, hi] at which ``holds``, a predicate
    that holds at lo and is monotone (true up to some tau, false above)."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class FractionalAssignment:
    """Sparse fractional machine-job assignment.

    Entry ``y[i, j] = counts[i, j] / scale`` over one positive integer scale,
    as in `ClpSolution`.
    """

    counts: dict[tuple[int, int], int]
    scale: int


def clp_to_alp(sol: ClpSolution, sizes: Sequence[int]) -> FractionalAssignment:
    """Collapse configuration weights to job level: y[i,j] = sum of weights of
    machine i's carried configurations containing j, summed as counts over
    the solution's scale.

    Per machine the value is at least cover * tau, so the assignment meets a
    uniform floor of cover_rhs * tau; per job the mass stays within 1 because
    the covering LP already charged each job at most once.
    """
    y: dict[tuple[int, int], int] = {}
    for (i, cfg), c in sol.counts.items():
        if c == 0:
            continue
        for j in cfg.jobs:
            y[(i, j)] = y.get((i, j), 0) + c
    return FractionalAssignment(counts=y, scale=sol.scale)


def check_mclp(clusters) -> tuple[bool, str | None]:
    """Composite-machine cover check: every composite carries small-bundle
    weight of at least 1/2 and no small job is fractionally used above 1.

    Masses are counts over ``clusters.xstar.scale``, so mass >= 1/2 reads
    2 * mass >= scale.
    """
    xstar = clusters.xstar
    scale = xstar.scale
    small = clusters.job_classes.small
    mass: dict[int, int] = {}
    usage: dict[int, int] = {}
    for (i, cfg), c in xstar.counts.items():
        if set(cfg.jobs) <= small:
            mass[i] = mass.get(i, 0) + c
            for j in cfg.jobs:
                usage[j] = usage.get(j, 0) + c
    for d, comp in enumerate(clusters.composites):
        total = sum(mass.get(i, 0) for i in comp.machines)
        if 2 * total < scale:
            return False, (
                f"composite {d} (machines {list(comp.machines)}) small weight "
                f"{Fraction(total, scale)} < 1/2"
            )
    for j in sorted(usage):
        if usage[j] > scale:
            return False, f"small job {j} used {Fraction(usage[j], scale)} > 1"
    return True, None
