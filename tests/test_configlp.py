from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import ceil

from santaclaus.configlp import (
    Configuration,
    check_cover_solution,
    clp_to_alp,
    find_T,
    find_T_with_seeds,
    forced_residual,
    greedy_allocation,
    integral_allocation_at,
    is_minimal,
    local_search_allocation,
    machine_pools,
    price_flows,
    price_min_knapsack,
    price_refute,
    prune_to_minimal,
    route,
    solve_clp_feasibility,
    solve_cover_lp,
)
from santaclaus.instances import (
    Allocation,
    Instance,
    JobSpec,
    exact_optimum,
    generate_random,
    verify_allocation,
)
from santaclaus.pipeline import solve
from santaclaus.ratlp import LinearProgram, solve_feasibility
from conftest import (
    all_minimal_configs,
    clp_from_weights,
    min_cover_subsets,
    tiny_instance,
    weights_of,
)

F = Fraction


# ------------------------------------------------------------- pricing

def above_total(pool, costs):
    """A pricing bound above the pool's total cost, so that pricing returns
    the plain minimum."""
    return sum(costs.get(j, 0) for j in set(pool)) + 1


def test_pricing_matches_subset_enumeration():
    sizes = [3, 5, 7]
    costs = {0: F(1, 5), 1: F(3, 10), 2: F(1, 2)}
    cfg = price_min_knapsack([0, 1, 2], sizes, costs, 8, above_total([0, 1, 2], costs))
    best, sets = min_cover_subsets([0, 1, 2], sizes, costs, 8)
    assert best == F(1, 2)
    assert sorted(cfg.jobs) in [sorted(s) for s in sets]
    assert cfg.jobs == (0, 1)  # the {3,5} cover at cost 1/2


def test_pricing_short_pool_returns_none():
    assert price_min_knapsack([0, 1], [2, 3], {}, 6, 1) is None


def test_pricing_zero_costs_prunes_to_minimal():
    sizes = [3, 5, 7]
    cfg = price_min_knapsack([0, 1, 2], sizes, {}, 5, 1)
    assert is_minimal(cfg.jobs, 5, sizes)
    assert len(cfg.jobs) == 1 and sizes[cfg.jobs[0]] >= 5


def test_pricing_randomized_against_oracle():
    from random import Random

    rng = Random(99)
    for _ in range(60):
        n = rng.randint(1, 7)
        sizes = [rng.randint(1, 9) for _ in range(n)]
        costs = {j: F(rng.randint(0, 6), rng.randint(1, 4)) for j in range(n)}
        tau = rng.randint(1, 20)
        cfg = price_min_knapsack(list(range(n)), sizes, costs, tau, above_total(range(n), costs))
        best, _ = min_cover_subsets(list(range(n)), sizes, costs, tau)
        if best is None:
            assert cfg is None
        else:
            got = sum((costs[j] for j in cfg.jobs), F(0))
            assert got == best
            assert is_minimal(cfg.jobs, tau, sizes)



def test_pricing_with_mixed_denominators_matches_brute_force():
    # the DP compares rational costs as they are; run at the integer need
    # ceil(tau), the configuration it returns must cost the true minimum over
    # every subset of the pool that reaches the rational tau, and be minimal
    # at tau, since totals are integers
    from random import Random

    rng = Random(5)
    palette = [F(1, 3), F(2, 7), F(5, 6), F(3, 4), F(4, 5), F(1), F(0), F(7, 11)]
    for trial in range(80):
        n = rng.randint(4, 10)
        sizes = [rng.randint(1, 8) for _ in range(n)]
        pool = sorted(rng.sample(range(n), rng.randint(1, min(n, 8))))
        costs = {j: rng.choice(palette) for j in range(n) if rng.random() < 0.9}
        tau = F(rng.randint(1, 25), rng.choice([1, 1, 2, 3]))
        cfg = price_min_knapsack(pool, sizes, costs, ceil(tau), above_total(pool, costs))
        best, _ = min_cover_subsets(pool, sizes, costs, tau)
        if best is None:
            assert cfg is None, f"trial {trial}"
            continue
        assert set(cfg.jobs) <= set(pool), f"trial {trial}"
        got = sum((costs.get(j, F(0)) for j in cfg.jobs), F(0))
        assert got == best, f"trial {trial}"
        assert is_minimal(cfg.jobs, tau, sizes), f"trial {trial}"

def reference_min_knapsack(pool, sizes, costs, tau):
    """The pricing DP as first written: costs scaled by their common
    denominator, a table of None for unreachable totals, and reconstruction
    by scanning every earlier total for one that explains the entry."""
    from math import lcm

    pool = sorted(pool)
    cap = ceil(tau)
    if sum(sizes[j] for j in pool) < cap:
        return None
    raw = [F(costs.get(j, 0)) for j in pool]
    scale = lcm(*[c.denominator for c in raw])
    icost = [c.numerator * (scale // c.denominator) for c in raw]
    K = len(pool)
    dp = [[None] * (cap + 1) for _ in range(K + 1)]
    dp[0][0] = 0
    for k in range(1, K + 1):
        c = icost[k - 1]
        w = sizes[pool[k - 1]]
        prev, cur = dp[k - 1], dp[k]
        for s in range(cap + 1):
            base = prev[s]
            if base is None:
                continue
            if cur[s] is None or base < cur[s]:
                cur[s] = base
            s2 = min(s + w, cap)
            if cur[s2] is None or base + c < cur[s2]:
                cur[s2] = base + c
    if dp[K][cap] is None:
        return None
    chosen = []
    s = cap
    for k in range(K, 0, -1):
        if dp[k - 1][s] is not None and dp[k - 1][s] == dp[k][s]:
            continue
        j, c = pool[k - 1], icost[k - 1]
        pre = None
        for s_pre in range(cap + 1):
            base = dp[k - 1][s_pre]
            if min(cap, s_pre + sizes[j]) == s and base is not None and base + c == dp[k][s]:
                pre = s_pre
                break
        assert pre is not None
        chosen.append(j)
        s = pre
    return prune_to_minimal(chosen, tau, sizes, dict(zip(pool, icost)))


def pricing_agrees_with_reference(pool, sizes, costs, tau, below):
    """Whether pricing below ``below`` returns the reference's configuration
    when its least cover costs less than ``below``, and None otherwise."""
    expected = reference_min_knapsack(pool, sizes, costs, tau)
    if expected is not None and sum(costs.get(j, 0) for j in expected.jobs) >= below:
        expected = None
    return price_min_knapsack(pool, sizes, costs, ceil(tau), below) == expected


def test_pricing_matches_reference_dp():
    # the breakpoint program must return the very configuration the
    # size-table DP returns whenever its least cover costs less than the
    # bound, and None exactly when it costs at least the bound: at every
    # bound from 1 to one past the pool's total cost, and, for costs up to
    # 2**40, whose breakpoint lists are long, at the bounds around the least
    # cost; integer costs and the same costs over a common denominator must
    # price alike; the rational tau is priced at its integer need ceil(tau);
    # a bound <= 0 is refused
    from random import Random

    rng = Random(17)
    zero = big = short = scaled = wide = 0
    for trial in range(800):
        kind = trial % 4
        n = rng.randint(6, 14) if kind == 3 else rng.randint(1, 9)
        sizes = [rng.randint(1, 12) for _ in range(n)]
        pool = sorted(rng.sample(range(n), rng.randint(1, n)))
        tau = F(rng.randint(1, 30), rng.choice([1, 1, 2, 3]))
        if kind == 0:
            costs = {j: 0 for j in pool if rng.random() < 0.5}  # zero or absent
        elif kind == 3:
            costs = {j: rng.choice([0, rng.randint(1, 2**40)]) for j in pool}
        else:
            costs = {j: rng.choice([0, 0, rng.randint(1, 9)]) for j in pool}
        expected = reference_min_knapsack(pool, sizes, costs, tau)
        total = above_total(pool, costs)
        least = None if expected is None else sum(costs.get(j, 0) for j in expected.jobs)
        assert price_min_knapsack(pool, sizes, costs, ceil(tau), total) == expected, trial
        if kind == 3:
            bounds = {1, total} | ({least - 1, least, least + 1} - {0} if least else set())
        else:
            bounds = range(1, total + 1)
        for below in bounds:
            assert pricing_agrees_with_reference(pool, sizes, costs, tau, below), (trial, below)
        for below in (0, -1):
            try:
                price_min_knapsack(pool, sizes, costs, ceil(tau), below)
            except ValueError:
                pass
            else:
                raise AssertionError(f"trial {trial}: bound {below} accepted")
        if kind == 2:
            den = rng.randint(2, 9)
            costs_over = {j: F(c, den) for j, c in costs.items()}
            total_over = above_total(pool, costs_over)
            assert price_min_knapsack(pool, sizes, costs_over, ceil(tau), total_over) == expected, trial
            if least:
                for below in (F(least, den), F(2 * least + 1, 2 * den)):
                    assert pricing_agrees_with_reference(pool, sizes, costs_over, tau, below), (
                        trial, below
                    )
            scaled += 1
        zero += not any(costs.values())
        big += any(sizes[j] >= tau for j in pool)
        short += expected is None
        wide += kind == 3 and len(set(costs.values()) - {0}) >= 6
    assert min(zero, big, short, scaled, wide) >= 20, (zero, big, short, scaled, wide)


def test_pricing_in_scale_t_searches_matches_reference_dp(monkeypatch):
    # every pricing call of the T search on three scale instances, whose
    # master duals run to tens of bits, against the reference DP
    import santaclaus.configlp as clp

    real = clp.price_min_knapsack
    calls = []

    def checked(pool, sizes, costs, tau, below):
        calls.append(below)
        assert pricing_agrees_with_reference(pool, sizes, costs, tau, below), (pool, tau, below)
        return real(pool, sizes, costs, tau, below)

    monkeypatch.setattr(clp, "price_min_knapsack", checked)
    for seed in (1, 2, 3):
        find_T_with_seeds(generate_random(m=12, n=48, max_size=20, density=F(1, 2), seed=seed))
    assert len(calls) >= 300 and max(calls).bit_length() >= 20, (len(calls), max(calls))


def test_prune_drops_largest_cost_first():
    sizes = [4, 4, 4]
    costs = {0: F(1), 1: F(3), 2: F(2)}
    cfg = prune_to_minimal([0, 1, 2], F(4), sizes, costs)
    assert cfg.jobs == (0,)


# ------------------------------------------------------------- cover LP

def test_clp_symmetric_pair_feasible_at_4():
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    sol = solve_clp_feasibility(inst, 4)
    assert sol is not None
    ok, why = check_cover_solution(sol, machine_pools(inst), inst.sizes())
    assert ok, why


def test_clp_symmetric_pair_infeasible_at_5():
    # exhaustive check at n=2: the only configuration covering 5 is {both};
    # two unit covers would use each job twice.
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    assert all_minimal_configs([0, 1], inst.sizes(), F(5)) == [(0, 1)]
    assert solve_clp_feasibility(inst, 5) is None


def test_clp_single_machine_single_cover():
    inst = tiny_instance([(3, [0]), (4, [0])], machines=1)
    sol = solve_clp_feasibility(inst, 7)
    assert sol is not None
    assert weights_of(sol) == {(0, Configuration(jobs=(0, 1), total_size=7)): F(1)}


def every_row_lp_feasible(pools, sizes, tau):
    """The configuration LP written out whole, no pricing involved: every
    minimal configuration is a column, every machine gets a ``>=`` cover row
    and every job some column uses a ``<=`` row."""
    cols = []
    for i in sorted(pools):
        for jobs in all_minimal_configs(list(pools[i]), sizes, F(tau)):
            cols.append((i, jobs))
    lp = LinearProgram(len(cols))
    for i in sorted(pools):
        row = {c: F(1) for c, (ii, _) in enumerate(cols) if ii == i}
        if not row:
            lp.add_constraint({}, ">=", F(1))  # uncoverable machine
        else:
            lp.add_constraint(row, ">=", F(1))
    for j in range(len(sizes)):
        row = {c: F(1) for c, (_, jobs) in enumerate(cols) if j in jobs}
        if row:
            lp.add_constraint(row, "<=", F(1))
    return solve_feasibility(lp).is_optimal


def test_clp_agrees_with_full_column_lp():
    # independent route: enumerate every minimal configuration and hand the
    # whole LP to the simplex, no pricing involved.
    for seed in range(12):
        inst = generate_random(m=3, n=5, max_size=7, density=F(1, 2), seed=seed)
        pools = machine_pools(inst)
        for tau in (2, 4, 6):
            by_pricing = solve_clp_feasibility(inst, tau) is not None
            by_enumeration = every_row_lp_feasible(pools, inst.sizes(), tau)
            assert by_pricing == by_enumeration, f"seed {seed} tau {tau}"


def all_small_shape(rng, private):
    """The benchmark's all-small shape: unit jobs only, on 3 or 4 machines,
    ``rng.choice(private)`` private jobs per machine plus 0-3 shared by all."""
    m = rng.randint(3, 4)
    jobs = [
        JobSpec(size=1, eligible=frozenset([i]))
        for i in range(m)
        for _ in range(rng.choice(private))
    ]
    jobs += [JobSpec(size=1, eligible=frozenset(range(m))) for _ in range(rng.randrange(4))]
    return Instance(machine_count=m, jobs=tuple(jobs))


def mostly_private_shapes(rng, rounds, private):
    """Per round, one all-small-shaped instance and one sparse random one:
    most jobs are private to one machine, or to none."""
    for _ in range(rounds):
        yield all_small_shape(rng, private)
        yield generate_random(
            m=rng.randint(3, 4), n=rng.randint(5, 8), max_size=7, density=F(1, 3),
            seed=rng.getrandbits(32),
        )


def taus_up_to_the_least_pool(pools, sizes):
    """Every tau from 1 to the least pool total + 1, which is infeasible."""
    return range(1, min(sum(sizes[j] for j in pool) for pool in pools.values()) + 2)


def test_cover_lp_without_private_job_rows_agrees_with_every_row_lp():
    # the master gives no row to a job only one pool holds, and writes each
    # cover as an equality; it must still decide feasibility as the LP with
    # cover >= 1 and a row for every job does.  The all-small shape has 3-6
    # private jobs per machine here, not 14-18, so that enumerating every
    # minimal configuration stays cheap.
    from random import Random

    rng = Random(26)
    feasible = infeasible = 0
    for inst in mostly_private_shapes(rng, 20, range(3, 7)):
        pools, sizes = machine_pools(inst), inst.sizes()
        taus = taus_up_to_the_least_pool(pools, sizes)
        for tau in taus:
            got = solve_cover_lp(pools, sizes, tau) is not None
            assert got == every_row_lp_feasible(pools, sizes, tau), (inst, tau)
            feasible += got
            infeasible += not got and tau < taus[-1]  # although every pool reaches tau
    assert min(feasible, infeasible) >= 10, (feasible, infeasible)


def test_master_rows_are_covers_and_contested_jobs(monkeypatch):
    # each solution covers every machine exactly once, and every master
    # handed to the simplex has a shortfall column and an equality cover row
    # per machine, no excess column, and a row only for contested jobs (two
    # or more pools hold them) that some column uses
    import santaclaus.configlp as clp
    from random import Random

    real = clp.solve_lp
    masters = []

    def recording(tableau):
        masters.append((len(tableau.rows), [dict(col) for col in tableau.columns], tableau.cost[:]))
        return real(tableau)

    monkeypatch.setattr(clp, "solve_lp", recording)
    rng = Random(26)
    contested_rows = 0
    for inst in mostly_private_shapes(rng, 12, range(14, 19)):
        pools, sizes = machine_pools(inst), inst.sizes()
        m = len(pools)
        contested = {j for j in range(len(sizes)) if sum(j in p for p in pools.values()) > 1}
        for tau in taus_up_to_the_least_pool(pools, sizes):
            masters.clear()
            sol = solve_cover_lp(pools, sizes, tau)
            if sol is not None:
                for i in pools:
                    assert sum(c for (k, _), c in sol.counts.items() if k == i) == sol.scale
            greedy = [
                (i, prune_to_minimal(pools[i], tau, sizes))
                for i in sorted(pools) if sum(sizes[j] for j in pools[i]) >= tau
            ]
            for k, (nrows, columns, cost) in enumerate(masters):
                assert columns[:m] == [{r: 1} for r in range(m)] and cost[:m] == [-1] * m
                assert all(set(col.values()) == {1} for col in columns[m:])
                assert not any(cost[m:])
                configs = [col for col in columns[m:] if min(col) < m]
                slacks = [col for col in columns[m:] if min(col) >= m]
                assert all(sum(r < m for r in col) == 1 for col in configs)
                assert sorted(r for col in slacks for r in col) == list(range(m, nrows))
                assert {r for col in configs for r in col if r >= m} == set(range(m, nrows))
                assert nrows - m <= len(contested)
                if k == 0:  # the warm start: each machine's greedy column
                    assert [(min(col), len(col) - 1) for col in configs] == [
                        (i, len(contested.intersection(cfg.jobs))) for i, cfg in greedy
                    ], (inst, tau)
                    used = {j for _, cfg in greedy for j in cfg.jobs}
                    assert nrows - m == len(contested & used), (inst, tau)
            job_rows = masters[-1][0] - m
            if sol is not None:
                carried = {j for _, cfg in sol.counts for j in cfg.jobs}
                assert job_rows >= len(contested & carried), (inst, tau)
            contested_rows += job_rows
    assert contested_rows >= 10, contested_rows


def test_cover_rows_come_from_pool_keys():
    # every key of pools gets a cover row: a machine with nothing to bundle
    # makes the LP infeasible even when the other machines are easy to cover
    assert solve_cover_lp(pools={0: (0,), 1: ()}, sizes=[3], tau=3) is None
    sol = solve_cover_lp(pools={0: (0,)}, sizes=[3], tau=3)
    assert sol is not None and sum(w for (i, _), w in weights_of(sol).items() if i == 0) == 1


def test_check_cover_names_short_machine():
    cfg = Configuration(jobs=(0,), total_size=3)
    sol = clp_from_weights({(0, cfg): F(1)}, 3)
    assert check_cover_solution(sol, {0: (0,)}, [3]) == (True, None)
    ok, why = check_cover_solution(sol, {0: (0,), 1: (0,)}, [3])
    assert not ok and why == "machine 1 cover 0 < 1"
    half = clp_from_weights({(0, cfg): F(1, 2)}, 3)
    ok, why = check_cover_solution(half, {0: (0,)}, [3])
    assert not ok and why == "machine 0 cover 1/2 < 1"


# ------------------------------------------------------------- find_T

def test_find_T_single_machine():
    inst = tiny_instance([(3, [0]), (4, [0])], machines=1)
    assert exact_optimum(inst) == 7
    assert find_T(inst) == 7


def test_find_T_symmetric_pair():
    inst = tiny_instance([(4, [0, 1]), (4, [0, 1])], machines=2)
    assert exact_optimum(inst) == 4
    assert find_T(inst) == 4


def test_find_T_uncoverable_machine():
    inst = tiny_instance([(5, [0])], machines=2)
    assert find_T(inst) == 0


def test_find_T_relaxation_bound_and_monotone_feasibility():
    for seed in range(10):
        inst = generate_random(m=3, n=4, max_size=5, density=F(2, 3), seed=seed)
        T = int(find_T(inst))
        assert T >= exact_optimum(inst)
        # feasible on every integer below T, infeasible just above
        for tau in range(1, T + 1):
            assert solve_clp_feasibility(inst, tau) is not None, (seed, tau)
        assert solve_clp_feasibility(inst, T + 1) is None


def test_carried_configurations_are_minimal():
    for seed in range(8):
        inst = generate_random(m=2, n=5, max_size=6, density=F(1, 2), seed=seed)
        T = int(find_T(inst))
        if T == 0:
            continue
        sol = solve_clp_feasibility(inst, T)
        for (i, cfg), w in weights_of(sol).items():
            assert 0 < w <= 1
            assert is_minimal(cfg.jobs, T, inst.sizes())


def plain_bisection_T(inst):
    """The unbracketed search: bisect [1, total size] with one LP per probe."""
    if solve_clp_feasibility(inst, 1) is None:
        return 0
    lo, hi = 1, inst.total_size()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if solve_clp_feasibility(inst, mid) is not None:
            lo = mid
        else:
            hi = mid - 1
    return lo


def bracket_shapes(rng):
    """One small instance of each benchmark workload's shape, a random sparse
    one that often leaves a machine with an empty pool, and one whose largest
    job the greedy puts on machine 0 although it is machine 1's only job."""
    yield generate_random(
        m=rng.randint(2, 4), n=rng.randint(4, 9), max_size=20, density=F(1, 2),
        seed=rng.getrandbits(32),
    )

    def coin():
        return frozenset(i for i in range(3) if rng.randrange(4) < 3)

    jobs = [JobSpec(size=18 + rng.randrange(6), eligible=coin()) for _ in range(2)]
    jobs += [JobSpec(size=1, eligible=coin()) for _ in range(rng.randint(4, 9))]
    yield Instance(machine_count=3, jobs=tuple(jobs))
    m = rng.randint(2, 3)
    jobs = [
        JobSpec(size=1, eligible=frozenset([i]))
        for i in range(m)
        for _ in range(rng.randint(0, 5))
    ]
    jobs += [JobSpec(size=1, eligible=frozenset(range(m))) for _ in range(rng.randrange(4))]
    yield Instance(machine_count=m, jobs=tuple(jobs))
    yield generate_random(
        m=3, n=rng.randint(2, 6), max_size=6, density=F(1, 3), seed=rng.getrandbits(32)
    )
    m = rng.randint(2, 3)
    jobs = [JobSpec(size=rng.randint(5, 9), eligible=frozenset([0, 1]))]
    jobs += [JobSpec(size=rng.randint(1, 5), eligible=frozenset([0])) for _ in range(rng.randint(0, 3))]
    jobs += [JobSpec(size=rng.randint(1, 5), eligible=frozenset([2])) for _ in range(m - 2)]
    yield Instance(machine_count=m, jobs=tuple(jobs))


def greedy_min_load(inst):
    return verify_allocation(inst, Allocation(owner=greedy_allocation(inst), min_value=F(0)))


def trivial_upper_bound(inst):
    """The smallest pool total and floor(S / m): the bracket's upper end
    before the prices lower it."""
    pools = machine_pools(inst)
    sizes = inst.sizes()
    return min(
        min(sum(sizes[j] for j in pools[i]) for i in pools),
        sum(job.size for job in inst.jobs if job.eligible) // inst.machine_count,
    )


def test_bracketed_find_T_matches_plain_bisection():
    from random import Random

    rng = Random(2024)
    checked = empty_pool = greedy_raised = priced_below = closed = 0
    while checked < 220:
        for inst in bracket_shapes(rng):
            counters = {}
            T, _ = find_T_with_seeds(inst, counters)
            assert T == plain_bisection_T(inst), inst
            lo, hi = counters["t_search_lower"], counters["t_search_upper"]
            assert lo <= T <= hi
            # the upper end decides T >= 1, so a lower end of 0 is a closed bracket
            assert not lo == 0 < hi, inst
            checked += 1
            empty_pool += any(not p for p in machine_pools(inst).values())
            greedy_raised += greedy_min_load(inst) == 0 < lo
            priced_below += hi < trivial_upper_bound(inst)
            closed += lo == hi
    # the corner cases the bracket must get right all occur
    counts = (empty_pool, greedy_raised, priced_below, closed)
    assert min(counts) >= 10, counts


def hall_feasible(inst, tau):
    """Every machine subset M' has sum over the jobs eligible on M' of
    min(p_j, tau) >= |M'| * tau, by enumerating the subsets."""
    m = inst.machine_count
    for mask in range(1, 1 << m):
        subset = {i for i in range(m) if mask >> i & 1}
        reach = sum(min(job.size, tau) for job in inst.jobs if job.eligible & subset)
        if reach < len(subset) * tau:
            return False
    return True


def shared_source_shape(rng):
    """Jobs of mixed sizes on a few shared eligible sets, so that the jobs on
    one set fall on both sides of most tau."""
    m = rng.randint(2, 4)
    sets = [frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(rng.randint(1, 3))]
    jobs = [JobSpec(size=rng.randint(1, 12), eligible=rng.choice(sets)) for _ in range(rng.randint(3, 10))]
    return Instance(machine_count=m, jobs=tuple(jobs))


def clipped_flow_feasible(inst, tau):
    """The assignment LP clipped at tau, by one `route` call: job j sends
    min(p_j, tau) to its eligible machines, and each machine receives tau."""
    jobs = [job for job in inst.jobs if job.eligible]
    return route(
        [sorted(job.eligible) for job in jobs],
        [min(job.size, tau) for job in jobs],
        [tau] * inst.machine_count,
    ) is not None


def test_upper_end_lies_between_T_and_the_hall_subset_oracle():
    # the bracket's upper end r is at least T and at most the largest tau at
    # which the clipped assignment LP is feasible, which the subset oracle
    # gives (and the test-local flow matches); when r is below the starting
    # upper end, the prices refute r + 1, and r is often strictly tighter
    # than the oracle
    from random import Random

    rng = Random(7)
    below = 0
    for _ in range(60):
        for inst in [*bracket_shapes(rng), shared_source_shape(rng)]:
            if inst.machine_count > 4:
                continue
            bound = max(t for t in range(inst.total_size() + 1) if hall_feasible(inst, t))
            for tau in range(1, bound + 2):
                assert clipped_flow_feasible(inst, tau) == (tau <= bound), (inst, tau)
            counters = {}
            T, _ = find_T_with_seeds(inst, counters)
            upper = counters["t_search_upper"]
            assert T <= upper <= bound, inst
            if upper < trivial_upper_bound(inst):
                assert price_refute(machine_pools(inst), inst.sizes(), upper + 1), inst
            below += upper < bound
    assert below >= 10, below


def test_route_meets_demands_exactly_when_hall_holds():
    # random grouped sources with supplies 0-4 and demands 0-3; the last
    # machine is fed by no source in every other case.  A flow must keep to
    # each source's supply and machines and deliver each demand exactly;
    # None must come back exactly when some machine subset S asks for more
    # than the sources feeding S hold
    from random import Random

    rng = Random(11)
    answered = {True: 0, False: 0}
    for case in range(400):
        m = rng.randint(1, 5)
        fed = range(m - 1) if case % 2 and m > 1 else range(m)
        machines = [sorted(rng.sample(fed, rng.randint(1, len(fed)))) for _ in range(rng.randint(0, 4))]
        supply = [rng.randint(0, 4) for _ in machines]
        demand = [rng.randint(0, 3) for _ in range(m)]
        args = ([list(e) for e in machines], list(supply), list(demand))
        flows = route(*args)
        assert args == (machines, supply, demand)  # inputs untouched
        hall = all(
            sum(demand[i] for i in range(m) if mask >> i & 1)
            <= sum(s for e, s in zip(machines, supply) if any(mask >> i & 1 for i in e))
            for mask in range(1, 1 << m)
        )
        assert (flows is not None) == hall, (machines, supply, demand)
        answered[hall] += 1
        if flows is None:
            continue
        got = [0] * m
        for e, s, flow in zip(machines, supply, flows):
            assert set(flow) <= set(e) and all(d > 0 for d in flow.values())
            assert sum(flow.values()) <= s
            for i, d in flow.items():
                got[i] += d
        assert got == demand
    assert min(answered.values()) >= 100, answered


def test_route_reroutes_along_a_long_chain_without_recursion():
    # source k feeds machines k and k+1, and a last source feeds machine 0:
    # the greedy start leaves machine n short, and the one augmenting path
    # shifts every source one machine along the whole chain
    n = 1500
    machines = [[k, k + 1] for k in range(n)] + [[0]]
    flows = route(machines, [1] * (n + 1), [1] * (n + 1))
    assert flows == [{k + 1: 1} for k in range(n)] + [{0: 1}]


def local_key(inst, owner):
    """(minimum load, minus the number of machines at it)."""
    loads = [0] * inst.machine_count
    for j, i in owner.items():
        loads[i] += inst.jobs[j].size
    return min(loads), -loads.count(min(loads))


def test_local_search_is_valid_never_worse_and_locally_optimal():
    from random import Random

    rng = Random(11)
    raised = 0
    for _ in range(40):
        for inst in bracket_shapes(rng):
            greedy = greedy_allocation(inst)
            owner = local_search_allocation(inst, greedy)
            value = verify_allocation(inst, Allocation(owner=owner, min_value=F(0)))
            assert set(owner) == set(greedy)
            assert greedy_min_load(inst) <= value, inst
            raised += greedy_min_load(inst) < value
            # no single move or swap raises the key any further
            key = local_key(inst, owner)
            for j, a in owner.items():
                for b in inst.jobs[j].eligible - {a}:
                    assert local_key(inst, {**owner, j: b}) <= key, (inst, j, b)
                    for k, c in owner.items():
                        if c == b and a in inst.jobs[k].eligible:
                            swapped = {**owner, j: b, k: a}
                            assert local_key(inst, swapped) <= key, (inst, j, k)
    assert raised >= 10, raised


def test_bracket_contains_optimum_and_T():
    for seed in range(40):
        inst = generate_random(m=3, n=7, max_size=12, density=F(2, 3), seed=seed)
        counters = {}
        T = find_T(inst, counters)
        lo, hi = counters["t_search_lower"], counters["t_search_upper"]
        assert lo <= exact_optimum(inst) <= T <= hi, seed


def test_greedy_allocation_is_largest_first_least_loaded():
    inst = tiny_instance([(2, [0, 1]), (5, [0, 1]), (3, [0, 1]), (4, []), (3, [1])], machines=2)
    # 5 -> 0; 3 (job 2) -> 1; 3 (job 4) -> 1; 2 -> 0; job 3 has no machine
    assert greedy_allocation(inst) == {1: 0, 2: 1, 4: 1, 0: 0}


def test_closed_bracket_makes_no_probe_and_certifies():
    jobs = [(1, [i]) for i in range(3) for _ in range(5)] + [(1, [0, 1, 2])] * 3
    inst = tiny_instance(jobs, machines=3)
    report = solve(inst)
    c = report.counters
    assert c["clp_solves"] == 0
    assert c["t_search_lower"] == c["t_search_upper"] == report.T == 6
    assert report.allocation.min_value >= report.T / 12
    assert verify_allocation(inst, report.allocation) == report.allocation.min_value
    # an uncoverable machine closes the bracket at 0, still with the counter
    trivial = solve(tiny_instance([(5, [0])], machines=2))
    assert trivial.branch == "trivial"
    assert trivial.counters == {
        "clp_solves": 0,
        "lower_search_nodes": 0,
        "price_proofs": 0,
        "t_search_lower": 0,
        "t_search_upper": 0,
    }


def test_inverted_bracket_raises_under_python_O():
    # the bracket check must not be a bare assert: under -O a greedy load the
    # verifier "confirms" above the trivial upper bound still has to stop the
    # search with a named error
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
from fractions import Fraction
import santaclaus.configlp as clp
from santaclaus.instances import generate_random
assert sys.flags.optimize, "not running under -O"
clp.min_load = lambda inst, owner: 10**6
inst = generate_random(m=3, n=6, max_size=9, density=Fraction(2, 3), seed=1)
try:
    clp.find_T(inst)
except clp.CoverLpError as exc:
    print("raised:", exc)
else:
    sys.exit("the inverted bracket went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: T search bracket is inverted: greedy 1000000 > upper bound" in proc.stdout


def test_integral_search_matches_exact_optimum():
    from random import Random

    rng = Random(19)
    found = refused = 0
    for _ in range(60):
        shapes = list(bracket_shapes(rng))
        shapes.append(generate_random(
            m=rng.randint(1, 4), n=rng.randint(1, 8), max_size=12,
            density=F(rng.randint(1, 3), 4), seed=rng.getrandbits(32),
        ))
        for inst in shapes:
            opt = int(exact_optimum(inst))
            for tau in range(1, opt + 3):
                owner, nodes = integral_allocation_at(inst, tau, 10**9)
                if tau <= opt:
                    assert owner is not None, (inst, tau)
                    value = verify_allocation(inst, Allocation(owner=owner, min_value=F(0)))
                    assert value >= tau, (inst, tau)
                    found += 1
                else:
                    assert owner is None, (inst, tau)
                    refused += 1
    assert min(found, refused) >= 300, (found, refused)


def test_integral_search_budget_is_exact_and_deterministic():
    inst = generate_random(m=4, n=14, max_size=20, density=F(1, 2), seed=10)
    owner, nodes = integral_allocation_at(inst, 31, 10**9)
    assert owner is not None and nodes == 81
    # one node short of the search's path: None, after exactly the budget
    assert integral_allocation_at(inst, 31, 80) == (None, 80)
    assert integral_allocation_at(inst, 31, 80) == (None, 80)
    assert integral_allocation_at(inst, 31, 81) == (owner, 81)


def test_integral_search_refuses_a_bad_budget():
    # a negative or fractional budget never meets the node count, so it
    # would search without limit (94 nodes at tau 34, 29 at tau 33); a bool
    # is refused as JobSpec refuses it for a size
    inst = generate_random(m=4, n=14, max_size=20, density=F(1, 2), seed=0)
    for tau, budget in ((34, -1), (34, 5.5), (33, 2.5), (33, F(3)), (33, True), (33, "7")):
        try:
            integral_allocation_at(inst, tau, budget)
        except ValueError as exc:
            assert "budget" in str(exc), (tau, budget)
        else:
            raise AssertionError(f"budget {budget!r} accepted at tau {tau}")
    assert integral_allocation_at(inst, 34, 0) == (None, 0)


def test_integral_search_is_not_bound_by_recursion_depth():
    # every one of 2,000 jobs is placed before both machines reach tau, so
    # the search is 2,000 deep: a recursive one would pass Python's limit
    inst = tiny_instance([(1, [0, 1])] * 2000, machines=2)
    owner, nodes = integral_allocation_at(inst, 1000, 10**9)
    assert nodes == 2000
    assert verify_allocation(inst, Allocation(owner=owner, min_value=F(0))) == 1000


def reference_integral_allocation_at(
    inst: Instance, tau: int, budget: int
) -> tuple[dict[int, int] | None, int]:
    """`integral_allocation_at` as it was written on a stack of iterators and
    a list of placed choices, before it moved to flat per-depth arrays: the
    oracle for its answers and node counts."""
    if tau <= 0:
        raise ValueError("tau must be positive")
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

    def options(k: int) -> list[int | None]:
        short = [i for i in eligible[k] if loads[i] < tau]
        short.sort(key=loads.__getitem__)  # stable: ties stay in index order
        return short + [next((i for i in eligible[k] if loads[i] >= tau), None)]

    nodes = 0
    stack = [iter(options(0))]  # per depth, the choices not yet tried
    placed: list[int | None] = []  # per depth, the choice being tried
    while stack:
        k = len(stack) - 1
        s = size[k]
        elig = eligible[k]
        if len(placed) > k:  # undo the choice last tried at this depth
            i = placed.pop()
            for e in elig:
                rest[e] += s
            if i is not None:
                loads[i] -= s
                deficit += min(s, max(tau - loads[i], 0))
        i = next(stack[-1], -1)
        if i == -1:
            stack.pop()
            continue
        if nodes == budget:
            return None, nodes
        nodes += 1
        for e in elig:
            rest[e] -= s
        if i is not None:
            deficit -= min(s, max(tau - loads[i], 0))
            loads[i] += s
        placed.append(i)
        if deficit > tail[k + 1] or any(loads[e] + rest[e] < tau for e in elig):
            continue
        if deficit == 0:
            owner = {order[q]: c for q, c in enumerate(placed) if c is not None}
            owner.update((order[q], eligible[q][0]) for q in range(k + 1, len(order)))
            return dict(sorted(owner.items())), nodes
        stack.append(iter(options(k + 1)))
    return None, nodes


def test_integral_search_matches_the_iterator_stack_reference():
    # the same (owner, nodes) as the reference on every tau up to past the
    # smallest pool total and every budget, from none to unlimited
    from random import Random

    rng = Random(27)
    shapes = [inst for _ in range(30) for inst in bracket_shapes(rng)]
    shapes += [
        generate_random(
            m=rng.randint(1, 6), n=rng.randint(1, 20), max_size=20,
            density=F(rng.randint(1, 3), 4), seed=rng.getrandbits(32),
        )
        for _ in range(120)
    ]
    outcomes = Counter()
    for inst in shapes:
        sizes = inst.sizes()
        top = min(sum(sizes[j] for j in pool) for pool in machine_pools(inst).values())
        for tau in range(1, top + 3):
            for budget in (0, 1, 7, 80, 2000, 10**9):
                owner, nodes = integral_allocation_at(inst, tau, budget)
                expected = reference_integral_allocation_at(inst, tau, budget)
                assert (owner, nodes) == expected, (inst, tau, budget)
                assert owner is None or list(owner.items()) == list(expected[0].items())
                kind = "found" if owner is not None else "spent" if nodes == budget else "refuted"
                outcomes[kind] += 1
    assert min(outcomes.values()) >= 5000, outcomes


def test_lower_end_above_upper_bound_raises_under_python_O():
    # an integral allocation the verifier "confirms" above the upper end
    # must stop the search with a named error, not be clipped to the bound
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
from fractions import Fraction
import santaclaus.configlp as clp
from santaclaus.instances import generate_random
assert sys.flags.optimize, "not running under -O"
real = clp.min_load
calls = []
def load(inst, owner):
    calls.append(owner)
    return real(inst, owner) if len(calls) == 1 else 10**6
clp.min_load = load
inst = generate_random(m=4, n=14, max_size=20, density=Fraction(1, 2), seed=10)
try:
    clp.find_T(inst)
except clp.CoverLpError as exc:
    print("raised:", exc)
else:
    sys.exit("the lower end above the upper bound went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert (
        "raised: T search lower end out of range: integral search 1000000 not in (28, 31]"
        in proc.stdout
    )


def test_first_probe_is_just_above_the_lower_end(monkeypatch):
    import santaclaus.configlp as clp
    from random import Random

    real = clp.solve_clp_feasibility
    probes = []

    def recording(inst, tau, **kwargs):
        sol = real(inst, tau, **kwargs)
        probes.append((tau, sol is not None))
        return sol

    monkeypatch.setattr(clp, "solve_clp_feasibility", recording)
    rng = Random(7)
    budget = clp.LOWER_SEARCH_BUDGET
    at_lower = above_lower = closed = beyond_halves = 0
    # the prices close most brackets at T, so it takes 320 rounds to see ten
    # brackets that only the LP closes at lo + 1
    for k in range(320):
        # without the integral search, the local search's lower end often
        # sits below T
        monkeypatch.setattr(clp, "LOWER_SEARCH_BUDGET", budget * (k % 2))
        for inst in bracket_shapes(rng):
            probes.clear()
            counters = {}
            T, _ = find_T_with_seeds(inst, counters)
            lo, hi = counters["t_search_lower"], counters["t_search_upper"]
            assert counters["clp_solves"] == len(probes)
            # the prices run only on the upper end: they would settle no probe
            pools, sizes = machine_pools(inst), inst.sizes()
            assert not any(price_refute(pools, sizes, tau) for tau, _ in probes), inst
            if lo == hi:
                assert probes == [], inst
                if hi < trivial_upper_bound(inst):
                    # the prices closed the bracket, and the plain LP agrees
                    assert counters["price_proofs"] >= 1, inst
                    assert real(inst, hi + 1) is None, inst
                    closed += 1
                    beyond_halves += not halves_refute_reference(inst, hi + 1)
                continue
            assert probes[0][0] == lo + 1, inst
            if T == lo:
                # one infeasible probe, and nothing else
                assert probes == [(lo + 1, False)], inst
                at_lower += 1
            else:
                above_lower += 1
    assert min(at_lower, above_lower, closed) >= 10, (at_lower, above_lower, closed)
    # forced jobs and clipped-size prices close brackets the halves alone do not
    assert beyond_halves >= 5, beyond_halves


def unit_clustered_shape(rng):
    """Three machines, two big jobs of size 18-23 and 6-18 unit jobs, on 3/4
    eligibility coins: the shape on which the halves prices refute most."""
    def coin():
        return frozenset(i for i in range(3) if rng.randrange(4) < 3)

    jobs = [JobSpec(size=18 + rng.randrange(6), eligible=coin()) for _ in range(2)]
    jobs += [JobSpec(size=1, eligible=coin()) for _ in range(rng.randint(6, 18))]
    return Instance(machine_count=3, jobs=tuple(jobs))


def halves_refute_reference(inst, tau):
    """The halves check on the whole pools, with no forced jobs: prices
    min(2, floor(2 p_j / tau)), each machine's cover priced in closed form
    against tau (2 when it has no cover), and one `route` call."""
    m = inst.machine_count
    free, half = [0] * m, [0] * m
    sources, supply = [], []
    for job in inst.jobs:
        if 2 * job.size < tau:
            for i in job.eligible:
                free[i] += job.size
            continue
        if job.size < tau:
            for i in job.eligible:
                half[i] = max(half[i], job.size)
        sources.append(sorted(job.eligible))
        supply.append(1 if job.size < tau else 2)
    covers = [0 if z >= tau else 1 if z + h >= tau else 2 for z, h in zip(free, half)]
    return route(sources, supply, covers) is None


def subset_totals(jobs, sizes):
    """Every subset total of ``jobs``, by enumeration."""
    totals = {0}
    for j in jobs:
        totals |= {t + sizes[j] for t in totals}
    return totals


def test_price_refutation_is_a_sound_farkas_proof():
    # at every tau up to one past the clipped-flow bound: each job step 1
    # forces is in every cover of its machine at that machine's residual
    # need, and the residual is a fixed point; on the residual, each
    # machine's cover price under the halves and under the clipped sizes
    # equals the pricing DP's cheapest cover, and each route call fails
    # exactly when a brute force over machine subsets finds M' whose covers
    # cost more than the jobs N(M') are worth; whenever the proof fires, the
    # unseeded configuration LP is infeasible; and it fires whenever the
    # halves on the whole pools or the clipped assignment flow refute tau
    from random import Random

    rng = Random(23)
    fired = [0, 0, 0]  # by the step that refutes
    held = forcings = 0
    for _ in range(40):
        shapes = [*bracket_shapes(rng), unit_clustered_shape(rng)]
        shapes.append(generate_random(
            m=rng.randint(1, 4), n=rng.randint(1, 10), max_size=20,
            density=F(rng.randint(1, 3), 4), seed=rng.getrandbits(32),
        ))
        for inst in shapes:
            m = inst.machine_count
            sizes = inst.sizes()
            machine_pool = machine_pools(inst)
            bound = max(
                (t for t in range(1, inst.total_size() + 1) if clipped_flow_feasible(inst, t)),
                default=0,
            )
            for tau in range(1, bound + 2):
                residual = forced_residual(machine_pool, sizes, tau)
                step = 0
                if residual is not None:
                    forced, pools, need = residual
                    forcings += len(forced)
                    want_pools = {i: list(inst.eligible_jobs(i)) for i in range(m)}
                    want_need = dict.fromkeys(range(m), tau)
                    for j, i in forced:
                        rest = [k for k in want_pools[i] if k != j]
                        assert j in want_pools[i], (inst, tau, j, i)
                        assert max(subset_totals(rest, sizes)) < want_need[i], (inst, tau, j, i)
                        want_need[i] -= sizes[j]
                        for pool in want_pools.values():
                            if j in pool:
                                pool.remove(j)
                        if want_need[i] <= 0:
                            del want_pools[i], want_need[i]
                    assert (pools, need) == (want_pools, want_need), (inst, tau)
                    for i in need:
                        # a fixed point: each pool reaches its need, and no
                        # job is in every cover
                        assert 0 < need[i] <= max(subset_totals(pools[i], sizes)), (inst, tau)
                        for j in pools[i]:
                            rest = [k for k in pools[i] if k != j]
                            assert max(subset_totals(rest, sizes)) >= need[i], (inst, tau, j)
                    jobs = sorted(set().union(*pools.values()))
                    prices = [
                        {j: min(2, 2 * sizes[j] // tau) for j in jobs},
                        {j: min(sizes[j], tau) for j in jobs},
                    ]
                    flows = list(price_flows(sizes, tau, pools, need))
                    assert len(flows) == 2
                    step = None
                    for k, (mu, (sources, supply, covers)) in enumerate(zip(prices, flows), 2):
                        priced = [j for j in jobs if mu[j]]
                        assert sources == [
                            sorted(i for i in pools if j in pools[i]) for j in priced
                        ], (inst, tau, k)
                        assert supply == [mu[j] for j in priced], (inst, tau, k)
                        kappa = [0] * m
                        for i in need:
                            cfg = price_min_knapsack(
                                pools[i], sizes, mu, need[i], above_total(pools[i], mu)
                            )
                            kappa[i] = sum(mu[j] for j in cfg.jobs)
                        # route's demand, by machine, up to the last one left
                        assert covers + [0] * (m - len(covers)) == kappa, (inst, tau, k)
                        hall_fails = any(
                            sum(kappa[i] for i in range(m) if mask >> i & 1)
                            > sum(mu[j] for j in jobs
                                  if any(mask >> i & 1 and j in pools[i] for i in pools))
                            for mask in range(1, 1 << m)
                        )
                        assert (route(sources, supply, covers) is None) == hall_fails
                        if hall_fails and step is None:
                            step = k - 1
                refuted = price_refute(machine_pool, sizes, tau)
                assert refuted == (step is not None), (inst, tau)
                if refuted:
                    assert solve_clp_feasibility(inst, tau) is None, (inst, tau)
                    fired[step] += 1
                else:
                    held += 1
                if halves_refute_reference(inst, tau) or not clipped_flow_feasible(inst, tau):
                    assert refuted, (inst, tau)
    assert min(*fired, held, forcings) >= 10, (fired, held, forcings)


# ------------------------------------------------------------- clp -> alp

def test_clp_to_alp_direct_sum():
    inst = tiny_instance([(3, [0]), (4, [0])], machines=1)
    sol = solve_clp_feasibility(inst, 7)
    fa = clp_to_alp(sol)
    assert weights_of(fa) == {(0, 0): F(1), (0, 1): F(1)}
    # machine 0's value reaches the floor tau
    assert sum(w * inst.jobs[j].size for (_, j), w in weights_of(fa).items()) == 7


def test_clp_to_alp_additivity():
    sol_weights = {
        (0, Configuration(jobs=(0, 1), total_size=7)): F(1, 2),
        (0, Configuration(jobs=(0, 2), total_size=8)): F(1, 2),
    }
    sol = clp_from_weights(sol_weights, 7)
    y = weights_of(clp_to_alp(sol))
    assert y[(0, 0)] == 1
    assert y[(0, 1)] == F(1, 2)
    assert y[(0, 2)] == F(1, 2)


def test_check_mclp_thresholds():
    from santaclaus.clustering import Cluster, ClusterSet, Composite
    from santaclaus.configlp import check_mclp
    from santaclaus.gapclasses import build_gap_instance, classify_jobs

    inst = tiny_instance([(20, [0, 1])] + [(1, [0]), (1, [1])] * 7, machines=2)
    gap = build_gap_instance(inst, 14)
    jc = classify_jobs(gap)
    bundle0 = Configuration(jobs=(1, 3, 5, 7, 9, 11, 13), total_size=7)
    bundle1 = Configuration(jobs=(2, 4, 6, 8, 10, 12, 14), total_size=7)

    def clusterset(w0, w1):
        x = clp_from_weights({(0, bundle0): w0, (1, bundle1): w1}, 14)
        return ClusterSet(
            supers=(Cluster(machines=(0, 1), jobs=(0,)),),
            saturated=(),
            composites=(Composite(machines=(0, 1), kind="super"),),
            xstar=x,
            gap=gap,
            job_classes=jc,
            machine_classes=None,
        )

    ok, _ = check_mclp(clusterset(F(3, 5), F(0)))  # 0.6: clears the bar
    assert ok
    ok, _ = check_mclp(clusterset(F(1, 4), F(1, 4)))  # 0.5: closed inequality
    assert ok
    ok, why = check_mclp(clusterset(F(1, 5), F(1, 5)))  # 0.4: named violation
    assert not ok and "composite 0" in why


def test_clp_to_alp_meets_target_on_samples():
    sizes_checked = 0
    for seed in range(10):
        inst = generate_random(m=2, n=4, max_size=6, density=F(3, 4), seed=seed)
        T = int(find_T(inst))
        if T == 0:
            continue
        sol = solve_clp_feasibility(inst, T)
        fa = clp_to_alp(sol)
        per_machine = {}
        per_job = {}
        for (i, j), v in weights_of(fa).items():
            assert 0 <= v <= 1
            assert i in inst.jobs[j].eligible
            per_machine[i] = per_machine.get(i, F(0)) + v * inst.jobs[j].size
            per_job[j] = per_job.get(j, F(0)) + v
        for i in range(inst.machine_count):
            assert per_machine.get(i, F(0)) >= sol.tau
        for j, mass in per_job.items():
            assert mass <= 1
        sizes_checked += 1
    assert sizes_checked > 0


def test_cover_postcondition_survives_python_O():
    # load-bearing checks must not be bare asserts: under -O a sabotaged
    # check_cover_solution still has to stop the cover LP with a named error
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
import santaclaus.configlp as clp
assert sys.flags.optimize, "not running under -O"
clp.check_cover_solution = lambda sol, pools, sizes: (False, "sabotaged")
try:
    clp.solve_cover_lp(pools={0: (0,)}, sizes=[3], tau=3)
except clp.CoverLpError as exc:
    print("raised:", exc)
else:
    sys.exit("the sabotaged postcondition went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: cover LP postcondition violated: sabotaged" in proc.stdout


def test_negative_job_dual_raises_under_python_O():
    # every job dual is >= 0 at an optimal master basis, which is what lets
    # pricing skip a machine whose cover dual is 0; under -O a sabotaged
    # optimise that hands out a negative job dual must stop the cover LP
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import dataclasses
import sys
import santaclaus.configlp as clp
import santaclaus.ratlp as ratlp
assert sys.flags.optimize, "not running under -O"
real_optimise = ratlp.Tableau.optimise

def sabotaged(self):
    sol = real_optimise(self)
    ys = list(sol.ys)
    ys[-1] = -1  # the newest job row
    return dataclasses.replace(sol, ys=tuple(ys))

ratlp.Tableau.optimise = sabotaged
try:
    clp.solve_cover_lp(pools={0: (0, 1, 2), 1: (1, 2)}, sizes=[2, 2, 3], tau=3)
except clp.CoverLpError as exc:
    print("raised:", exc)
else:
    sys.exit("the negative job dual went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: negative job dual at an optimal master basis" in proc.stdout
