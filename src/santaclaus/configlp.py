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

The same engine serves two covers, both with one cover row per machine: the
configuration LP (cover >= 1) that the T search probes and the gap instance
is classified by, and the small-jobs-only variant with cover >= 1/2 used by
the no-upper-class branch.

The T search bisects only between two bounds that need no LP: the minimum
load of a largest-first greedy allocation, below, and the smallest pool total
or the average load, above.  When the two meet, T costs no LP at all.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def is_minimal(jobs: Iterable[int], tau: Fraction, sizes: Sequence[int]) -> bool:
    tup = tuple(set(jobs))
    total = sum(sizes[j] for j in tup)
    if total < tau:
        return False
    return all(total - sizes[j] < tau for j in tup)


def prune_to_minimal(
    jobs: Iterable[int],
    tau: Fraction,
    sizes: Sequence[int],
    costs: Mapping[int, Fraction] | None = None,
) -> Configuration:
    """Drop removable jobs, largest cost first (ties: smallest index).

    Without costs the job size stands in for the cost, so seeds reuse the
    same deterministic rule.  Totals are integers, so they are compared
    with ceil(tau).
    """
    need = ceil_frac(tau)
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
    return prune_to_minimal(chosen, tau, sizes, costs)


@dataclass
class ClpSolution:
    """Feasible point of a covering LP: (machine, configuration) -> weight."""

    tau: Fraction
    weights: dict[tuple[int, Configuration], Fraction]
    cover_rhs: Fraction

    def machine_cover(self, machine: int) -> Fraction:
        return sum(
            (w for (i, _), w in self.weights.items() if i == machine), ZERO
        )

    def carried(self, machine: int) -> list[tuple[Configuration, Fraction]]:
        out = [(cfg, w) for (i, cfg), w in self.weights.items() if i == machine]
        out.sort(key=lambda t: t[0])
        return out


def check_cover_solution(
    sol: ClpSolution,
    pools: Mapping[int, Sequence[int]],
    sizes: Sequence[int],
) -> tuple[bool, str | None]:
    """Exact feasibility check: cover, job usage, minimality, eligibility.

    Every machine in ``pools`` must reach ``sol.cover_rhs``.
    """
    cover: dict[int, Fraction] = {}
    usage: dict[int, Fraction] = {}
    for (i, cfg), w in sol.weights.items():
        if w < 0 or w > 1:
            return False, f"weight out of [0,1] on machine {i}"
        pool = set(pools.get(i, ()))
        if not set(cfg.jobs) <= pool:
            return False, f"machine {i} carries a job outside its pool"
        if not is_minimal(cfg.jobs, sol.tau, sizes):
            return False, f"machine {i} carries a non-minimal configuration {cfg.jobs}"
        cover[i] = cover.get(i, ZERO) + w
        for j in cfg.jobs:
            usage[j] = usage.get(j, ZERO) + w
    for i in sorted(pools):
        covered = cover.get(i, ZERO)
        if covered < sol.cover_rhs:
            return False, f"machine {i} cover {covered} < {sol.cover_rhs}"
    for j, used in sorted(usage.items()):
        if used > 1:
            return False, f"job {j} used {used} > 1"
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
                if sum(sizes[j] for j in jobs) >= tau:
                    start[(i, prune_to_minimal(jobs, tau, sizes))] = None
    for i in machines:
        pool = sorted(pools[i])
        if pool and sum(sizes[j] for j in pool) >= tau:
            start[(i, prune_to_minimal(pool, tau, sizes))] = None

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
        values = sol.values
        weights = {}
        for key, col in column_of.items():
            w = values[col]
            if w != 0:
                weights[key] = w
        result = ClpSolution(tau=tau, weights=weights, cover_rhs=Fraction(cover_rhs))
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


def find_T_with_seeds(
    inst: Instance, counters: dict[str, int] | None = None
) -> tuple[int, dict[int, set[tuple[int, ...]]]]:
    """Largest integer tau with a feasible configuration LP, plus column seeds.

    Integer search is exact: with integer sizes the minimal-configuration
    family is constant on (k, k+1], so feasibility only changes at integers,
    and it is monotone in tau, so T is unique.  The search bisects a bracket
    that needs no LP.  Below: the minimum load of `greedy_allocation`, as
    `verify_allocation` recomputes it; its bundles, pruned, are a feasible
    point at that tau.  Above: the smallest pool total, and floor(S / m) with
    S the total size of the jobs some machine may take, since every machine
    covers tau from its own pool and the m covers share those jobs.  A greedy
    minimum load of 0 is no information, so the search then probes tau = 1
    first.  The greedy bundles and the columns found at each feasible tau
    seed the master at the next probe, re-pruned.  ``counters`` gets the
    bracket (``t_search_lower``, ``t_search_upper``) and the number of LP
    probes (``clp_solves``, 0 when the bracket is closed).
    """
    pools = machine_pools(inst)
    sizes = inst.sizes()
    owner = greedy_allocation(inst)
    lo = int(verify_allocation(inst, Allocation(owner=owner, min_value=ZERO)))
    hi = min(
        min(sum(sizes[j] for j in pools[i]) for i in pools),
        sum(job.size for job in inst.jobs if job.eligible) // inst.machine_count,
    )
    if counters is not None:
        counters.setdefault("clp_solves", 0)
        counters["t_search_lower"] = lo
        counters["t_search_upper"] = hi
    if lo > hi:
        raise CoverLpError(f"T search bracket is inverted: greedy {lo} > upper bound {hi}")
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
        for (i, cfg), _ in sol.weights.items():
            seeds[i].add(cfg.jobs)
        return True

    if lo == 0 and hi > 0:
        # The greedy leaves some machine empty: fall back to probing tau = 1.
        if not feasible(1):
            return 0, seeds
        lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo, seeds


@dataclass(frozen=True)
class FractionalAssignment:
    """Sparse fractional machine-job assignment with a per-machine value floor."""

    y: dict[tuple[int, int], Fraction]
    target: Fraction


def clp_to_alp(sol: ClpSolution, sizes: Sequence[int]) -> FractionalAssignment:
    """Collapse configuration weights to job level: y[i,j] = sum of weights of
    machine i's carried configurations containing j.

    Per machine the value is at least cover * tau, so the assignment meets a
    uniform floor of cover_rhs * tau; per job the mass stays within 1 because
    the covering LP already charged each job at most once.
    """
    y: dict[tuple[int, int], Fraction] = {}
    for (i, cfg), w in sol.weights.items():
        if w == 0:
            continue
        for j in cfg.jobs:
            y[(i, j)] = y.get((i, j), ZERO) + w
    return FractionalAssignment(y=y, target=sol.cover_rhs * sol.tau)


def check_mclp(clusters, xstar: ClpSolution | None = None) -> tuple[bool, str | None]:
    """Composite-machine cover check: every composite carries small-bundle
    weight of at least 1/2 and no small job is fractionally used above 1.
    """
    if xstar is None:
        xstar = clusters.xstar
    small = clusters.job_classes.small
    half = Fraction(1, 2)
    for d, comp in enumerate(clusters.composites):
        mass = ZERO
        for i in comp.machines:
            for cfg, w in xstar.carried(i):
                if set(cfg.jobs) <= small:
                    mass += w
        if mass < half:
            return False, f"composite {d} (machines {list(comp.machines)}) small weight {mass} < 1/2"
    usage: dict[int, Fraction] = {}
    for (i, cfg), w in xstar.weights.items():
        if set(cfg.jobs) <= small:
            for j in cfg.jobs:
                usage[j] = usage.get(j, ZERO) + w
    for j in sorted(usage):
        if usage[j] > 1:
            return False, f"small job {j} used {usage[j]} > 1"
    return True, None
