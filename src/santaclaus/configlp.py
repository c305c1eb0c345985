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
B^-1 a, a job's row enters with the first column that uses the job, and
each round re-optimises from the previous optimal basis.  Pricing is a
minimum-knapsack dynamic program over the master's dual values: a column
prices in exactly when its jobs' dual cost is below the machine's cover
dual.  The master hands out its duals as integers, scaled by its basis
determinant, and pricing runs on them as they are, which keeps every
comparison and so every priced column the same as over the rationals.  The
program runs over cost breakpoints, not sizes, and builds none at or above
the machine's cover dual, so a machine with no improving column costs one
forward pass; a scaled cover dual is at most the master's det, usually
small, so few costs lie below it.  Every job dual is non-negative at an
optimal basis (its slack prices at <= 0, and this is checked), so a
machine whose cover dual is <= 0 has no improving column and is not
priced.  With exact arithmetic, pricing convergence with a positive
shortfall objective is a proof of infeasibility, not a numeric judgement
call.

A solution leaves the master as it holds it: integer counts over one scale,
the master's ``det`` (`ClpSolution`), and no reader turns them back
into rationals.  Its postcondition (`check_cover_solution`), the collapse to
a job-level assignment (`clp_to_alp`, whose `FractionalAssignment` keeps the
same scale), the T search's seed harvest, the classification, clustering
and the composite cover check (`check_mclp`) all compare integer sums
against thresholds multiplied by the scale; a `Fraction` is built only for
an error message.  Bundle totals are integers, and so is the tau a cover LP
is solved at, so every minimality test compares integers.

Every cover LP is the configuration LP in equality form (Bansal and
Sviridenko): each machine takes exactly one unit of configurations, and
only a job that two or more pools hold has a row, use <= 1; `solve_cover_lp`
says why this is the same LP.  The T search probes it over the instance's
sizes, and the pipeline solves it once more at T over the gap instance's
sizes; that one solution classifies machines and feeds either branch.

The T search probes only between two bounds that need no LP.  Below: the
minimum load of an integral allocation, since its bundles, pruned, are a
configuration-LP point there.  A largest-first greedy allocation, improved
by a move/swap local search, gives the first.  Above: the smallest pool
total and floor(S / m), lowered by a bisection with `price_refute`, the
package's one proof of infeasibility that needs no LP.  Each machine takes
the jobs it cannot be covered without, and the rest are priced in halves,
then by size clipped at tau, each with a call to `route`, the package's one
max-flow (clustering's matchings call it too), whose failure, a Farkas
certificate, names machines that need more than their jobs are worth.  The
clipped prices refute every tau at which the assignment LP clipped at tau
is infeasible, and at tau = 1 that LP is the configuration LP, so the upper
end also decides whether T >= 1.  While the bounds differ, a depth-first
search with a fixed node budget looks for an allocation whose minimum load
is one higher.  The configuration LP's integrality gap is almost always 0,
so the first LP probe goes just above the lower end, and only a feasible
one leads to a bisection.  When the two bounds meet, T costs no LP at all.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Iterator, Mapping, Sequence

from .instances import Instance, min_load
from .ratlp import Tableau, solve_lp

# Nodes that all of one T search's integral-search attempts share.
LOWER_SEARCH_BUDGET = 2000


class CoverLpError(RuntimeError):
    """The column-generation master broke an invariant: a solver bug, never
    an input fault.  Raised, not asserted, so that ``python -O`` keeps it."""


@dataclass(frozen=True, order=True)
class Configuration:
    """A sorted job bundle and its total size under the sizes it was built with."""

    jobs: tuple[int, ...]
    total_size: int


def is_minimal(jobs: Iterable[int], need: int, sizes: Sequence[int]) -> bool:
    """Whether the bundle reaches ``need`` and no member can be dropped."""
    tup = tuple(set(jobs))
    total = sum(sizes[j] for j in tup)
    if total < need:
        return False
    return all(total - sizes[j] < need for j in tup)


def prune_to_minimal(
    jobs: Iterable[int],
    need: int,
    sizes: Sequence[int],
    costs: Mapping[int, int] | None = None,
) -> Configuration:
    """Drop removable jobs, largest cost first (ties: smallest index).

    Without costs the job size stands in for the cost, so seeds reuse the
    same deterministic rule.
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
    tau: int,
    below: int,
) -> Configuration | None:
    """Cheapest subset of ``pool`` with total size >= tau, pruned to
    minimality, if it costs less than ``below``; None otherwise, and when
    even the whole pool falls short.

    ``costs`` (job -> cost, 0 when absent) must be non-negative and
    ``below`` positive; they may be integers or rationals, and scaling them
    all by one positive factor returns the same configuration, since the
    program only adds and compares costs.

    A job that costs ``below`` or more is in no cover that costs less, so
    the program runs over the rest of the pool, sorted.  With totals capped
    at tau, let D[k][s] be the least cost at which the first k of those jobs
    reach the total s.  The program keeps D[k]'s breakpoints: one
    ``(cost, bits)`` level per cost at which the set of reachable totals
    grows, where bit s of ``bits`` is set when D[k][s] <= cost.  A job of
    size w and cost c shifts every level's totals by w, capped at tau, and
    merges the copy in at cost + c; at c = 0 it ORs the copy into every
    level.  No level at or above ``below`` is built, nor one above the first
    level that reaches tau: costs only grow with k, so no cover from a
    longer prefix costs more than that level.  A level list is therefore
    never longer than tau + 1, and it stays short when few costs lie below
    ``below``.

    Reconstruction reads D just as a table over every size total would, so
    it returns that table's configuration.  It goes back from D[K][tau] and skips job k
    whenever D[k-1][s] explains the entry, so the raw cover leans on low job
    indices before pruning makes the final call.  Taking job k reaches
    s < tau only from s - w, and reaches tau from the lowest total in
    [tau - w, tau] that the first k - 1 jobs reach at the entry's cost less
    c.  No entry it reads costs more than D[K][tau], so each is in a level.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if below <= 0:
        raise ValueError("the pricing bound must be positive")
    pool = sorted(pool)
    cost = [costs.get(j, 0) for j in pool]
    if any(c < 0 for c in cost):
        raise ValueError("pricing costs must be non-negative")
    jobs = [(j, c) for j, c in zip(pool, cost) if c < below]
    if sum(sizes[j] for j, _ in jobs) < tau:
        return None
    top = 1 << tau  # the capped total tau
    low = top - 1  # the totals below tau
    prev = [(0, 1)]
    levels = [prev]  # levels[k]: D[k]'s breakpoints; only the last may reach tau
    for j, c in jobs:
        w = sizes[j]
        cut = tau - w if w < tau else 0  # the least total that job j lifts to tau
        out = []
        last = 0  # the totals of the last level out holds
        if c == 0:
            for v, b in prev:
                b |= (b << w) & low | (top if b >> cut else 0)
                if b != last:
                    out.append((v, b))
                    last = b
                    if b & top:
                        break
        else:
            # Merge prev with its copy shifted by w at cost + c: each level
            # holds the totals of both at or below its cost.
            moved = 0  # the copy's totals so far
            q = 0  # the next level of prev to shift, whose copy costs u
            u = c
            for v, own in prev:
                while u < v:  # a copied level alone at cost u
                    x = prev[q][1]
                    q += 1
                    moved = (x << w) & low | (top if x >> cut else 0)
                    b = last | moved
                    if b != last:
                        out.append((u, b))
                        last = b
                        if b & top:
                            break
                    u = prev[q][0] + c
                else:
                    if u == v:  # the copied level at cost v joins prev's
                        x = prev[q][1]
                        q += 1
                        moved = (x << w) & low | (top if x >> cut else 0)
                        u = prev[q][0] + c if q < len(prev) else below
                    b = own | moved
                    if b != last:
                        out.append((v, b))
                        last = b
                        if b & top:
                            break
                    continue
                break  # a copied level reached tau
            else:  # the copied levels above prev's last
                while u < below:
                    x = prev[q][1]
                    q += 1
                    b = last | (x << w) & low | (top if x >> cut else 0)
                    if b != last:
                        out.append((u, b))
                        last = b
                        if b & top:
                            break
                    u = prev[q][0] + c if q < len(prev) else below
        prev = out
        levels.append(prev)
    target, bits = prev[-1]
    if not bits & top:
        return None

    chosen = []
    s = tau
    for k in range(len(jobs), 0, -1):
        # D[k][s] == target, D[k-1][s] >= target, and D[k-1][t] + c >= target
        # for every t from which job k reaches s; so at both lookups a total
        # the first k - 1 jobs reach at cost <= x costs exactly x.
        reached = levels[k - 1]
        b = 0
        for v, bits in reached:
            if v > target:
                break
            b = bits
        if b >> s & 1:
            continue
        j, c = jobs[k - 1]
        w = sizes[j]
        target -= c
        b = 0
        for v, bits in reached:
            if v > target:
                break
            b = bits
        if s < tau:
            pre = s - w if s >= w and b >> (s - w) & 1 else -1
        else:
            lo = tau - w if w < tau else 0
            b >>= lo
            pre = lo + (b & -b).bit_length() - 1 if b else -1
        if pre < 0:
            raise CoverLpError("knapsack reconstruction failed")
        chosen.append(j)
        s = pre
    return prune_to_minimal(chosen, tau, sizes, costs)


@dataclass
class ClpSolution:
    """Feasible point of a covering LP: (machine, configuration) -> weight.

    Weight ``counts[key] / scale``: integer counts over one positive scale,
    the master's ``det``, which every reader compares against thresholds
    multiplied by the scale.
    """

    tau: int
    counts: dict[tuple[int, Configuration], int]
    scale: int

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

    Every machine in ``pools`` must reach cover 1 and every job, private
    ones too, stay within use 1.  Sums and thresholds are integers over
    ``sol.scale``.
    """
    scale = sol.scale
    pool_sets = {i: set(pool) for i, pool in pools.items()}
    cover: dict[int, int] = {}
    usage: dict[int, int] = {}
    for (i, cfg), c in sol.counts.items():
        if c < 0 or c > scale:
            return False, f"weight out of [0,1] on machine {i}"
        if not pool_sets.get(i, frozenset()).issuperset(cfg.jobs):
            return False, f"machine {i} carries a job outside its pool"
        if not is_minimal(cfg.jobs, sol.tau, sizes):
            return False, f"machine {i} carries a non-minimal configuration {cfg.jobs}"
        cover[i] = cover.get(i, 0) + c
        for j in cfg.jobs:
            usage[j] = usage.get(j, 0) + c
    for i in sorted(pools):
        covered = cover.get(i, 0)
        if covered < scale:
            return False, f"machine {i} cover {Fraction(covered, scale)} < 1"
    for j, used in sorted(usage.items()):
        if used > scale:
            return False, f"job {j} used {Fraction(used, scale)} > 1"
    return True, None


def solve_cover_lp(
    pools: Mapping[int, Sequence[int]],
    sizes: Sequence[int],
    tau: int,
    seeds: Mapping[int, Iterable[tuple[int, ...]]] | None = None,
    counters: dict[str, int] | None = None,
) -> ClpSolution | None:
    """Column generation for the covering LP at the integer threshold
    ``tau``; None means certified infeasible.

    Every machine in ``pools`` gets one cover row, in machine order: its
    weights plus its shortfall a_i equal 1.  ``pools[i]`` lists the jobs
    machine i may bundle (eligibility already applied), so a machine with an
    empty pool makes the LP infeasible.  Only a job that two or more pools
    hold gets a row, use <= 1.  The LP with cover >= 1 and every job's row
    is feasible at the same taus: scaling a point's weights on each machine
    down to cover 1 only lowers job use, and at cover 1 no private job is
    used above 1.  So a positive least shortfall, once pricing converges,
    certifies infeasibility.  A cover dual may be negative; pricing skips it.
    ``seeds`` optionally warm-start the master with job bundles re-pruned to
    minimality at this tau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    machines = sorted(pools)
    cover_row = {i: r for r, i in enumerate(machines)}
    holders = Counter(chain.from_iterable(pools.values()))  # a repeat in a pool adds a row

    # The master keeps one tableau for the whole call.  Its columns are, by
    # id: shortfall a_i, the warm-start configurations, the warm-start
    # contested jobs' slacks s_j by job id, then each priced configuration
    # followed by the slacks of the contested jobs it brings in.  Every row
    # is an equality whose own a_i or s_j is a unit column, so the master
    # starts on that identity basis (feasible, no phase 1) and the tableau
    # columns of a_i and s_j always hold B^-1: a priced column enters as
    # B^-1 a, and the row of a job seen for the first time touches only new,
    # nonbasic columns, so it enters as written with s_j basic.  Each round
    # then re-optimises from the previous optimal basis.  Pivot tie-breaks
    # read the column id, so each solve pivots exactly as a solve of the
    # same master written out from scratch, on that basis, would.
    nrows = len(machines)

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
    # one row per contested job some start column uses, by job id.
    job_rows = sorted({j for _, cfg in start for j in cfg.jobs if holders[j] > 1})
    row_of = {j: nrows + k for k, j in enumerate(job_rows)}
    first_slack = nrows + len(start)
    rows = [({r: 1}, 1, r) for r in range(nrows)]
    rows += [({first_slack + k: 1}, 1, first_slack + k) for k in range(len(job_rows))]
    column_of: dict[tuple[int, Configuration], int] = {}  # in creation order
    for col, (i, cfg) in enumerate(start, nrows):
        column_of[(i, cfg)] = col
        rows[cover_row[i]][0][col] = 1
        for j in row_of.keys() & cfg.jobs:
            rows[row_of[j]][0][col] = 1
    master = Tableau.from_rows([-1] * nrows + [0] * (len(start) + len(job_rows)), rows)

    def add_column(i: int, cfg: Configuration) -> None:
        entries = {row_of[j]: 1 for j in cfg.jobs if j in row_of}
        entries[cover_row[i]] = 1
        col = column_of[(i, cfg)] = master.insert_column(entries)
        for j in cfg.jobs:
            if j not in row_of and holders[j] > 1:
                slack = master.insert_column({})
                row_of[j] = master.add_row({col: 1, slack: 1}, 1, basic=slack)

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
            # Job duals are >= 0, so no column prices in where lam <= 0.
            if lam <= 0 or not pools[i]:
                continue
            cfg = price_min_knapsack(pools[i], sizes, mu, tau, lam)
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
        result = ClpSolution(tau=tau, counts=counts, scale=sol.det)
        ok, why = check_cover_solution(result, pools, sizes)
        if not ok:
            raise CoverLpError(f"cover LP postcondition violated: {why}")
        return result


def machine_pools(inst: Instance) -> dict[int, tuple[int, ...]]:
    return {i: inst.eligible_jobs(i) for i in range(inst.machine_count)}


def solve_clp_feasibility(
    inst: Instance,
    tau: int,
    pools: Mapping[int, Sequence[int]] | None = None,
    sizes: Sequence[int] | None = None,
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


def integral_allocation_at(
    inst: Instance, tau: int, budget: int
) -> tuple[dict[int, int] | None, int]:
    """An owner map (job -> machine) with every machine's load >= tau, found
    by a depth-first search of at most ``budget`` nodes, a non-negative int;
    returns it, or None, with the number of nodes visited.

    Jobs go largest first (ties: lower index).  Each job branches onto its
    eligible machines still below tau, least loaded first (ties: lower
    index), and last onto no short machine: the first eligible machine
    already at tau, or none.  A node is pruned when some short machine,
    given every undecided job it may take, stays below tau, or when the
    short machines' total deficit exceeds the undecided jobs' total size.
    Once no machine is short, each undecided job goes to its first eligible
    machine.  With an unlimited budget the search is exact: None then means
    no allocation reaches tau.  A node is one job placed, so the node count
    and the answer are deterministic.  The stack is explicit, so the depth
    is not bound by Python's recursion limit: three flat arrays indexed by
    depth hold each job's options, the index of its next option and the
    machine it is on (-1 for none).  A job's size leaves the undecided
    totals ``rest`` once, on entering its depth, whatever option it tries,
    and returns to them on leaving it.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    # type(...) is int also turns away bool; a negative or fractional budget
    # would never meet the node count and so search without limit
    if type(budget) is not int or budget < 0:
        raise ValueError("budget must be a non-negative integer")
    m = inst.machine_count
    order = sorted(
        (j for j in range(inst.job_count) if inst.jobs[j].eligible),
        key=lambda j: (-inst.jobs[j].size, j),
    )
    size = [inst.jobs[j].size for j in order]
    eligible = [sorted(inst.jobs[j].eligible) for j in order]
    tail = list(accumulate(reversed(size), initial=0))[::-1]  # undecided total
    loads = [0] * m
    rest = [0] * m  # total size of the undecided jobs each machine may take
    for s, elig in zip(size, eligible):
        for i in elig:
            rest[i] += s
    deficit = m * tau  # sum over short machines of tau - load
    if min(rest) < tau or deficit > tail[0]:
        return None, 0

    n = len(order)
    options: list[list[int]] = [[]] * n  # per depth: short machines by load, then one at tau or -1
    ahead = [0] * n  # per depth, the index of the next option to try
    chosen = [-1] * n  # per depth, the machine the job is on, -1 for none
    nodes = 0
    k = -1
    descend = True
    while True:
        if descend:  # enter depth k + 1
            k += 1
            s = size[k]
            elig = eligible[k]
            short = []
            full = -1  # the first eligible machine already at tau
            for e in elig:
                rest[e] -= s
                if loads[e] < tau:
                    short.append(e)
                elif full < 0:
                    full = e
            if len(short) > 1:
                short.sort(key=loads.__getitem__)  # stable: ties stay in index order
            short.append(full)
            options[k] = short
            ahead[k] = 0
            descend = False
        else:
            s = size[k]
            elig = eligible[k]
            i = chosen[k]
            if i >= 0:  # undo the option last tried at this depth
                loads[i] -= s
                if loads[i] < tau:
                    deficit += min(s, tau - loads[i])
                chosen[k] = -1
        q = ahead[k]
        if q == len(options[k]):  # every option tried: leave this depth
            for e in elig:
                rest[e] += s
            k -= 1
            if k < 0:
                return None, nodes
            continue
        if nodes == budget:
            return None, nodes
        nodes += 1
        ahead[k] = q + 1
        i = options[k][q]
        if i >= 0:
            if loads[i] < tau:
                deficit -= min(s, tau - loads[i])
            loads[i] += s
            chosen[k] = i
        if deficit > tail[k + 1]:
            continue
        for e in elig:
            if loads[e] + rest[e] < tau:
                break
        else:
            if deficit == 0:
                owner = {order[d]: c for d, c in enumerate(chosen[: k + 1]) if c >= 0}
                owner.update((order[d], eligible[d][0]) for d in range(k + 1, n))
                return dict(sorted(owner.items())), nodes
            descend = True


def route(
    machines: list[list[int]], supply: list[int], demand: list[int]
) -> list[dict[int, int]] | None:
    """The package's one flow routine.  Source g sends at most ``supply[g]``
    to the machines ``machines[g]``, and machine i must receive exactly
    ``demand[i]``.  Returns each source's flow as machine -> amount, or None
    when no flow meets every demand.  Exact over integers: a greedy start,
    then shortest augmenting paths, searched in an explicit loop.  The
    search reaches a machine's sources through an index of them by machine,
    in ascending order, built only once the greedy start leaves a demand
    unmet."""
    rest = list(supply)
    need = list(demand)
    sent: list[dict[int, int]] = [{} for _ in machines]  # source -> machine -> flow
    for g, elig in enumerate(machines):
        for i in elig:
            d = min(rest[g], need[i])
            if d:
                sent[g][i] = d
                rest[g] -= d
                need[i] -= d
    feeds: list[list[int]] | None = None  # machine -> the sources that may send to it
    while any(need):
        if feeds is None:
            feeds = [[] for _ in need]
            for g, elig in enumerate(machines):
                for i in elig:
                    feeds[i].append(g)
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
            for g in feeds[i]:
                if sent[g].get(i):
                    for k in machines[g]:
                        if k not in via:
                            via[k] = (i, g)
                            queue.append(k)
        if target is None:
            return None
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
    return [{i: d for i, d in flow.items() if d} for flow in sent]


def forced_residual(
    pools: Mapping[int, Sequence[int]], sizes: Sequence[int], tau: int
) -> tuple | None:
    """Step 1 of `price_refute`: the forced (job, machine) pairs in order, and
    each remaining machine's pool and need; None when a pool falls short."""
    need = dict.fromkeys(pools, tau)
    pools = {i: list(pool) for i, pool in pools.items()}
    total = {i: sum(sizes[j] for j in pool) for i, pool in pools.items()}
    forced = []
    todo = list(need)  # machines to check, again each time their pool shrinks
    for i in todo:
        if i not in need:
            continue
        slack = total[i] - need[i]
        if slack < 0:
            return None
        # forcing j lowers S_i and n_i alike, so i's slack stays put
        for j in [j for j in pools[i] if sizes[j] > slack]:
            forced.append((j, i))
            need[i] -= sizes[j]
            for k, pool in pools.items():
                if j in pool:
                    pool.remove(j)
                    total[k] -= sizes[j]
                    todo.append(k)
        if need[i] <= 0:
            del need[i], pools[i]
    return forced, pools, need


def price_flows(sizes: Sequence[int], tau: int, pools: dict, need: dict) -> Iterator[tuple]:
    """Steps 2 and 3 of `price_refute` on a `forced_residual` residual, lazily,
    as `route` input: priced jobs' machines and prices, and cheapest covers
    by machine index up to the last machine left (0 for one that left)."""
    held: dict[int, list[int]] = {}  # job -> the machines whose pool holds it
    m = max(pools, default=-1) + 1
    covers = [0] * m
    for i, pool in pools.items():
        free = half = 0  # Z_i and H_i
        for j in pool:
            held.setdefault(j, []).append(i)
            if 2 * sizes[j] < tau:
                free += sizes[j]
            elif half < sizes[j] < tau:
                half = sizes[j]
        covers[i] = 0 if free >= need[i] else 1 if free + half >= need[i] else 2
    jobs = sorted(held)
    mu = [min(2, 2 * sizes[j] // tau) for j in jobs]
    yield [held[j] for j, c in zip(jobs, mu) if c], [c for c in mu if c], covers
    clipped = {j: min(sizes[j], tau) for j in jobs}
    covers = [0] * m
    for i, pool in pools.items():
        bits = 1  # bit s: some subset's clipped total is s
        for j in pool:
            bits |= bits << clipped[j]
        bits >>= need[i]
        covers[i] = need[i] + (bits & -bits).bit_length() - 1
    yield [held[j] for j in jobs], list(clipped.values()), covers


def price_refute(pools: Mapping[int, Sequence[int]], sizes: Sequence[int], tau: int) -> bool:
    """Whether a proof with no LP refutes the configuration LP at ``tau``
    over machine pools ``pools``, in three steps on residual pools and needs
    n_i, each need starting at tau.

    1. Forced jobs.  With S_i machine i's pool total, S_i < n_i refutes; a
       job with p_j > S_i - n_i is in every cover, so every LP point gives it
       wholly to i: n_i falls by p_j and j leaves every pool, until nothing
       changes, and a machine with n_i <= 0 leaves.  The residual LP is
       feasible exactly when the original is.
    2. Halves, mu_j = min(2, floor(2 p_j / tau)): with Z_i the free jobs'
       total and H_i the largest job of price 1, the cheapest cover kappa_i
       is 0 if Z_i >= n_i, else 1 if Z_i + H_i >= n_i, else 2.
    3. Sizes clipped at tau, mu_j = min(p_j, tau): kappa_i is the least
       clipped subset total that reaches n_i.

    Prices refute when some machines M' need more than their jobs N(M') are
    worth, sum_{M'} kappa_i > mu(N(M')), a Farkas certificate: an LP point
    pays at least kappa_i per machine but uses each job at most once.  By
    Hall's theorem, `route` fails exactly when such an M' exists.

    The proof refutes every tau at which the assignment LP clipped at tau,
    in which every machine receives tau counting job j as min(p_j, tau) and
    each job is used at most once, is infeasible: a flow of step 3 gives each
    remaining machine at least its need, and each forced job, clipped, added
    to its machine tops every machine up to tau.  The proof need not be
    monotone in tau.
    """
    residual = forced_residual(pools, sizes, tau)
    return residual is None or any(
        route(*flow) is None for flow in price_flows(sizes, tau, *residual[1:])
    )


def find_T_with_seeds(
    inst: Instance, counters: dict[str, int] | None = None
) -> tuple[int, dict[int, set[tuple[int, ...]]]]:
    """Largest integer tau with a feasible configuration LP, plus column seeds.

    Integer search is exact: with integer sizes the minimal-configuration
    family is constant on (k, k+1], so feasibility only changes at integers,
    and it is monotone in tau, so T is unique.  The search works in a
    bracket that needs no LP.  An allocation's minimum load, as
    `instances.min_load` recomputes it, is a lower end: its bundles, pruned,
    are a feasible point at that tau.  The first allocation is
    `greedy_allocation` improved by `local_search_allocation`.  Above: the
    smallest pool total and floor(S / m), with S the total size of the jobs
    some machine may take; while the bracket is open, a bisection lowers it
    to a tau r that `price_refute` does not refute.  The proof need not be
    monotone in tau, but r is still an upper bound on T: either r is the
    starting upper end, or the proof refuted r + 1, and the configuration
    LP's feasibility is monotone.  The proof refutes every tau at which the
    assignment LP clipped at tau is infeasible, and that LP's feasibility is
    monotone (sum_j min(p_j, tau) - |M'| tau is concave for every machine
    subset M'), so r is never above the largest tau at which that LP is
    feasible.  At tau = 1 every minimal configuration is a single job, so
    both LPs are the same bipartite matching LP there: if the configuration
    LP is infeasible at 1, the proof refutes every tau >= 1 and r is 0, so
    an upper end of 0 closes the bracket at T = 0, and one >= 1 raises a
    lower end of 0 to 1.  While the bracket is open,
    `integral_allocation_at` tries the lower end plus one, all attempts
    sharing ``LOWER_SEARCH_BUDGET`` nodes; each allocation it finds replaces
    the last and raises the lower end to its minimum load, which must stay
    within the bracket.  The integrality gap is almost always 0, so the
    search then probes the lower end plus one first with the configuration
    LP: infeasible there, T is the lower end; otherwise it bisects the rest
    of the bracket.  The last allocation's bundles and the columns found at
    each feasible tau seed the master at the next probe, re-pruned.
    ``counters`` gets the bracket (``t_search_lower``, ``t_search_upper``,
    after the integral search), the integral search's nodes
    (``lower_search_nodes``), the number of LP probes (``clp_solves``) and of
    taus the upper end's bisection refuted (``price_proofs``).
    """
    pools = machine_pools(inst)
    sizes = inst.sizes()
    owner = local_search_allocation(inst, greedy_allocation(inst))
    lo = min_load(inst, owner)
    hi = min(
        min(sum(sizes[j] for j in pools[i]) for i in pools),
        sum(job.size for job in inst.jobs if job.eligible) // inst.machine_count,
    )
    if lo > hi:
        raise CoverLpError(f"T search bracket is inverted: greedy {lo} > upper bound {hi}")
    refuted = []  # the taus the upper end's bisection refuted

    def unrefuted(tau: int) -> bool:
        if price_refute(pools, sizes, tau):
            refuted.append(tau)
            return False
        return True

    # The allocation is a feasible point at its minimum load.
    hi = _largest_holding(lo, hi, unrefuted)
    lo = max(lo, min(hi, 1))
    spent = 0
    while lo < hi:
        found, nodes = integral_allocation_at(inst, lo + 1, LOWER_SEARCH_BUDGET - spent)
        spent += nodes
        if found is None:
            break
        owner = found
        load = min_load(inst, owner)
        if not lo < load <= hi:
            raise CoverLpError(
                f"T search lower end out of range: integral search {load} "
                f"not in ({lo}, {hi}]"
            )
        lo = load
    if counters is not None:
        counters.setdefault("clp_solves", 0)
        counters["price_proofs"] = len(refuted)
        counters["lower_search_nodes"] = spent
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
            inst, tau, pools=pools, sizes=sizes, seeds=seeds, counters=counters
        )
        if sol is None:
            return False
        for i, cfg in sol.counts:
            seeds[i].add(cfg.jobs)
        return True

    if lo < hi and feasible(lo + 1):
        lo = _largest_holding(lo + 1, hi, feasible)
    return lo, seeds


def _largest_holding(lo: int, hi: int, holds) -> int:
    """Bisection over [lo, hi] with a predicate ``holds`` known, without a
    call, to hold at lo.  The result r is lo or a tau at which ``holds`` was
    true, and r is hi or ``holds`` was false at r + 1; so when ``holds`` is
    true up to some tau and false above, r is the largest tau at which it
    holds."""
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


def clp_to_alp(sol: ClpSolution) -> FractionalAssignment:
    """Collapse configuration weights to job level: y[i,j] = sum of weights of
    machine i's carried configurations containing j, summed as counts over
    the solution's scale.

    Each carried configuration reaches tau, so a machine's value is at least
    its configuration weight times tau; per job the mass stays within 1
    because the covering LP already charged each job at most once.
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
