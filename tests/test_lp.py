from fractions import Fraction

import pytest

import santaclaus.ratlp as ratlp
from santaclaus.ratlp import LinearProgram, Tableau, _pivot, solve_feasibility, solve_lp
from conftest import enumerate_lp_vertices

F = Fraction


def _objective(sol):
    """The optimum c.x, read off the solution's integer fields."""
    return F(sol.objective, sol.det)


def _duals(sol):
    """The row duals y, read off the solution's integer fields."""
    return tuple(F(y, sol.det) for y in sol.ys)


def _slack_tableau(objective, rows, nvars):
    """``maximize objective.x  s.t.  rows, x >= 0`` for ``<=`` rows as a
    `Tableau` on its slack basis: the structural columns, then one slack per
    row, each row basic on its slack.  Every rhs must be an integer."""
    t = Tableau()
    for c in range(nvars + len(rows)):
        t.insert_column({}, objective.get(c, 0))
    for r, (coeffs, relation, rhs) in enumerate(rows):
        assert relation == "<="
        t.add_row({**coeffs, nvars + r: 1}, rhs, basic=nvars + r)
    return t


def test_single_constraint():
    rows = [({0: F(1)}, "<=", F(10)), ({0: F(1)}, "<=", F(3))]
    sol = solve_lp(_slack_tableau({0: F(1)}, rows, 1))
    assert sol.status == "optimal"
    assert sol.values[:1] == (F(3),)
    assert _objective(sol) == 3


def test_contradictory_bounds_infeasible():
    lp = LinearProgram(1)
    lp.add_constraint({0: F(1)}, ">=", F(1))
    lp.add_constraint({0: F(1)}, "<=", F(0))
    assert solve_feasibility(lp).status == "infeasible"


def test_two_variable_optimum_matches_vertex_enumeration():
    objective = {0: F(1), 1: F(1)}
    rows = [({0: F(2), 1: F(2)}, "<=", F(5))]
    sol = solve_lp(_slack_tableau(objective, rows, 2))
    best, _ = enumerate_lp_vertices(objective, rows, 2)
    assert sol.status == "optimal"
    assert _objective(sol) == best == F(5, 2)


def test_unbounded():
    sol = solve_lp(_slack_tableau({0: F(1)}, [({0: F(-1)}, "<=", F(1))], 1))
    assert sol.status == "unbounded"


def test_negative_rhs_rejected():
    # every LP the package builds has x >= 0 and rhs >= 0; a negative rhs
    # would start the slack basis infeasible, so it is refused up front
    lp = LinearProgram(2)
    with pytest.raises(ValueError):
        lp.add_constraint({0: F(1), 1: F(-1)}, ">=", F(-3))
    assert lp.constraints == []


def test_equality_rows_rejected():
    # a feasibility LP has only <= and >= rows: each starts basic on its
    # slack or its shortfall
    lp = LinearProgram(1)
    with pytest.raises(ValueError):
        lp.add_constraint({0: F(1)}, "=", F(1))
    assert lp.constraints == []


def test_feasibility_forced_assignment():
    # one machine, one job of size 5, target 5: y must be 1
    lp = LinearProgram(1)
    lp.add_constraint({0: F(1)}, "<=", F(1))
    lp.add_constraint({0: F(5)}, ">=", F(5))
    sol = solve_feasibility(lp)
    assert sol.status == "optimal"
    assert sol.values == (F(1),)


def test_feasibility_disjoint_cover():
    # two machines with disjoint singleton columns, weights must reach 1 each
    lp = LinearProgram(2)
    lp.add_constraint({0: F(1)}, ">=", F(1))
    lp.add_constraint({1: F(1)}, ">=", F(1))
    lp.add_constraint({0: F(1)}, "<=", F(1))
    lp.add_constraint({1: F(1)}, "<=", F(1))
    sol = solve_feasibility(lp)
    assert sol.status == "optimal"
    assert sol.values == (F(1), F(1))


def test_duals_certify_optimum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
    rows = [({0: F(1), 1: F(1)}, "<=", F(4)), ({0: F(1), 1: F(3)}, "<=", F(6))]
    sol = solve_lp(_slack_tableau({0: F(3), 1: F(2)}, rows, 2))
    assert sol.status == "optimal"
    y = _duals(sol)
    # dual feasibility for a maximization with <= rows: y >= 0, A^T y >= c
    assert all(v >= 0 for v in y)
    assert y[0] + y[1] >= 3
    assert y[0] + 3 * y[1] >= 2
    # strong duality
    assert y[0] * 4 + y[1] * 6 == _objective(sol)
    # complementary slackness on the returned point
    x = sol.values
    if x[0] + x[1] < 4:
        assert y[0] == 0
    if x[0] + 3 * x[1] < 6:
        assert y[1] == 0


def test_determinism_identical_bytes():
    def run():
        rows = [
            ({0: F(1), 1: F(1)}, "<=", F(3)),
            ({1: F(1), 2: F(1)}, "<=", F(2)),
            ({0: F(1), 2: F(1)}, "<=", F(4)),
        ]
        return solve_lp(_slack_tableau({0: F(2), 1: F(1), 2: F(1)}, rows, 3))

    a, b = run(), run()
    assert a == b


def _check_random_lps(seed, make_rhs):
    """Small random LPs against the exhaustive vertex oracle; ``make_rhs(rng)``
    draws each row's rhs.  Each trial checks a random ``<=``/``>=`` system
    through `solve_feasibility` (same status, and a returned point is one of
    the oracle's vertices and meets every row exactly) and a random
    maximisation over ``<=`` rows on a `Tableau`, each row multiplied by its
    rhs's denominator (the oracle's optimum, with duals that certify it)."""
    from random import Random

    rng = Random(seed)
    for trial in range(120):
        nvars = rng.choice([1, 2, 3])
        # keep the region bounded so the oracle's vertex scan is conclusive
        bounds = [({v: F(1)}, "<=", F(10)) for v in range(nvars)]

        def random_rows(relations):
            rows = []
            for _ in range(rng.choice([1, 2, 3])):
                coeffs = {v: F(rng.randint(-2, 3)) for v in range(nvars)}
                coeffs = {v: a for v, a in coeffs.items() if a != 0}
                rows.append((coeffs, rng.choice(relations), make_rhs(rng)))
            return rows + bounds

        rows = random_rows(["<=", ">="])
        lp = LinearProgram(nvars)
        for coeffs, rel, rhs in rows:
            lp.add_constraint(coeffs, rel, rhs)
        sol = solve_feasibility(lp)
        oracle = enumerate_lp_vertices({}, rows, nvars)
        if oracle is None:
            assert sol.status == "infeasible", f"trial {trial}"
        else:
            assert sol.status == "optimal", f"trial {trial}"
            x = sol.values
            assert len(x) == nvars and list(x) in oracle[1], f"trial {trial}"
            for coeffs, rel, rhs in rows:
                lhs = sum((a * x[v] for v, a in coeffs.items()), F(0))
                assert lhs <= rhs if rel == "<=" else lhs >= rhs, f"trial {trial}"

        objective = {v: F(rng.randint(-3, 4)) for v in range(nvars)}
        rows = [
            ({v: a * rhs.denominator for v, a in coeffs.items()}, rel, rhs * rhs.denominator)
            for coeffs, rel, rhs in random_rows(["<="])
        ]
        sol = solve_lp(_slack_tableau(objective, rows, nvars))
        best, _ = enumerate_lp_vertices(objective, rows, nvars)
        assert sol.status == "optimal", f"trial {trial}"
        assert _objective(sol) == best, f"trial {trial}"
        # duals certify the optimum exactly: y >= 0, A^T y >= c, y.b = c.x
        y = _duals(sol)
        assert all(v >= 0 for v in y), f"trial {trial}"
        for v in range(nvars):
            priced = sum((y[r] * coeffs.get(v, 0) for r, (coeffs, _, _) in enumerate(rows)), F(0))
            assert priced >= objective[v], f"trial {trial}"
        dual_obj = sum((a * rhs for a, (_, _, rhs) in zip(y, rows)), F(0))
        assert dual_obj == _objective(sol), f"trial {trial}"


def test_random_lps_agree_with_vertex_enumeration():
    _check_random_lps(2024, lambda rng: F(rng.randint(0, 6)))


def test_random_lps_with_rational_rhs_agree_with_vertex_enumeration():
    # solve_feasibility multiplies each row by its rhs's denominator, since
    # the tableau takes only integer right-hand sides
    _check_random_lps(4242, lambda rng: F(rng.randint(0, 36), rng.randint(1, 6)))


def _random_master_rounds(rng, ngroups, exact_cover, cover_rhs, njobs):
    """Grow a kept master the way column generation does and yield it after
    every round: cover rows first, then each configuration followed by the
    slacks of the jobs it brings in, a job's row added with the first column
    that uses it.  Rows name columns by the id `Tableau.insert_column`
    returns."""
    master = Tableau()
    for _ in range(ngroups):
        master.insert_column({}, F(-1))
    for _ in range(0 if exact_cover else ngroups):
        master.insert_column({})
    for g in range(ngroups):
        cover = {g: F(1)} if exact_cover else {g: F(1), ngroups + g: F(-1)}
        master.add_row(cover, cover_rhs, basic=g)
    configs = set()
    row_of = {}
    for _ in range(rng.randint(2, 6)):
        for _ in range(rng.randint(1, 3)):
            g = rng.randrange(ngroups)
            jobs = tuple(sorted(rng.sample(range(njobs), rng.randint(1, 3))))
            if (g, jobs) in configs:
                continue
            configs.add((g, jobs))
            entries = {row_of[j]: F(1) for j in jobs if j in row_of}
            entries[g] = F(1)
            col = master.insert_column(entries)
            for j in jobs:
                if j not in row_of:
                    slack = master.insert_column({})
                    row_of[j] = master.add_row({col: F(1), slack: F(1)}, F(1), basic=slack)
        yield master


def _fresh(master):
    """The master's rows and columns written out from scratch by
    `Tableau.from_rows`, in id order, on the identity basis of its rows'
    unit columns."""
    rows = [(row, rhs, u) for (row, _, rhs), u in zip(master.constraints, master.unit)]
    return Tableau.from_rows(master.cost, rows)


def _check_kept_masters(seed):
    """After every round the kept tableau re-optimises from its old basis; a
    fresh solve over the same rows and columns, from the identity basis,
    must agree, and the kept duals must certify the optimum on every
    present column."""
    from random import Random

    rng = Random(seed)
    for trial in range(60):
        ngroups = rng.randint(1, 3)
        exact_cover = rng.random() < 0.4
        cover_rhs = rng.choice([1, 2])
        for master in _random_master_rounds(rng, ngroups, exact_cover, cover_rhs, njobs=6):
            kept = solve_lp(master)
            fresh = solve_lp(_fresh(master))
            assert kept.status == fresh.status == "optimal", f"trial {trial}"
            assert _objective(kept) == _objective(fresh), f"trial {trial}"
            y = _duals(kept)
            assert sum((a * b for a, b in zip(y, master.rhs)), F(0)) == _objective(kept)
            for c, column in enumerate(master.columns):
                reduced = master.cost[c] - sum((y[r] * a for r, a in column.items()), F(0))
                assert reduced <= 0, f"trial {trial}: column {c} prices in"


def test_kept_master_matches_fresh_solves():
    _check_kept_masters(7)


def test_bland_fallback_reaches_the_optimum_and_certifying_duals(monkeypatch):
    # with the Dantzig limit at 0 every pivot takes Bland's rule (the
    # lowest-id improving column): the random LPs must still reach the
    # vertex oracle's optimum with certifying duals, and the kept masters
    # the fresh solves' optimum with duals that price no column in
    pivots = _record_pivots(monkeypatch)
    monkeypatch.setattr(ratlp, "DANTZIG_PIVOT_LIMIT", 0)
    _check_random_lps(2024, lambda rng: F(rng.randint(0, 6)))
    _check_random_lps(4242, lambda rng: F(rng.randint(0, 36), rng.randint(1, 6)))
    _check_kept_masters(7)
    assert len(pivots) > 500  # Bland's rule really pivots


def _growth_rounds(rng, ngroups, njobs):
    """Rounds of cover-master growth as operations that name columns by id:
    ("column", entries, cost) appends a column; ("row", coeffs, rhs, basic)
    appends a row in basic form on its fresh unit column ``basic``."""
    first = [("column", {}, -1) for _ in range(ngroups)]
    first += [("column", {}, 0) for _ in range(ngroups)]
    first += [("row", {g: 1, ngroups + g: -1}, rng.randint(1, 2), g) for g in range(ngroups)]
    rounds = [first]
    ncols, nrows = 2 * ngroups, ngroups
    configs, row_of = set(), {}
    for _ in range(rng.randint(2, 6)):
        ops = []
        for _ in range(rng.randint(1, 4)):
            g = rng.randrange(ngroups)
            jobs = tuple(sorted(rng.sample(range(njobs), rng.randint(1, 3))))
            if (g, jobs) in configs:
                continue
            configs.add((g, jobs))
            entries = {row_of[j]: 1 for j in jobs if j in row_of}
            entries[g] = 1
            col = ncols
            ops.append(("column", entries, 0))
            ncols += 1
            for j in jobs:
                if j not in row_of:
                    ops.append(("column", {}, 0))
                    ops.append(("row", {col: 1, ncols: 1}, 1, ncols))
                    row_of[j] = nrows
                    ncols += 1
                    nrows += 1
        rounds.append(ops)
    return rounds


def _grow(t, ops):
    for op in ops:
        if op[0] == "column":
            assert t.insert_column(*op[1:]) == t.variable_count - 1
        else:
            assert t.add_row(*op[1:]) == len(t.rows) - 1


def _record_pivots(monkeypatch):
    """Make every pivot append its (row, entering column id) to the
    returned list."""
    pivots = []

    def recording(rows, xb, z, basis, det, r, c):
        pivots.append((r, c))
        return _pivot(rows, xb, z, basis, det, r, c)

    monkeypatch.setattr(ratlp, "_pivot", recording)
    return pivots


def test_kept_master_pivots_as_from_rows_in_id_order(monkeypatch):
    # a master grown round by round, re-optimised after each round, holds
    # the tableau that the same LP written out by from_rows in id order
    # reaches by the same pivots; from there both take the same pivots to
    # the same basis, det, xb, values and duals
    from random import Random

    pivots = _record_pivots(monkeypatch)
    rng = Random(31)
    total = 0
    for trial in range(80):
        kept, taken = Tableau(), []
        for ops in _growth_rounds(rng, rng.randint(1, 3), njobs=7):
            _grow(kept, ops)
            fresh = _fresh(kept)
            z = [0] * fresh.variable_count
            for r, c in taken:
                fresh.det = _pivot(fresh.rows, fresh.xb, z, fresh.basis, fresh.det, r, c)
            fresh.basic = set(fresh.basis)
            assert _tableau_state(fresh) == _tableau_state(kept), f"trial {trial}"
            a = solve_lp(kept)
            kept_pivots, pivots[:] = list(pivots), []
            b = solve_lp(fresh)
            assert kept_pivots == pivots, f"trial {trial}"
            taken += pivots
            total += len(pivots)
            pivots.clear()
            assert a.is_optimal and b.is_optimal, f"trial {trial}"
            assert _tableau_state(fresh) == _tableau_state(kept), f"trial {trial}"
            assert a == b, f"trial {trial}"
    assert total > 200  # the masters really pivot


def test_kept_master_rejects_rows_out_of_basic_form():
    master = Tableau()
    master.insert_column({}, F(-1))
    master.insert_column({})
    master.add_row({0: F(1)}, F(1), basic=0)
    with pytest.raises(ValueError):
        master.add_row({0: F(1), 1: F(1)}, F(1), basic=1)  # touches basic column 0
    with pytest.raises(ValueError):
        master.add_row({1: F(1)}, F(-1), basic=1)  # negative rhs
    with pytest.raises(ValueError):
        master.add_row({1: F(1)}, F(1, 2), basic=1)  # non-integer rhs
    assert len(master.rows) == 1


def _tableau_state(t):
    return (t.rows, t.xb, t.det, t.basis, t.basic, t.unit, t.rhs, t.columns, t.cost)


def test_from_rows_builds_the_incremental_tableau_in_one_pass(monkeypatch):
    # a master grown column by column and row by row, and the same LP
    # written out by from_rows in id order, must be the same tableau cell
    # for cell and take the same pivots to the same solution
    from random import Random

    pivots = _record_pivots(monkeypatch)
    rng = Random(53)
    total = 0
    for trial in range(60):
        grown = Tableau()
        for ops in _growth_rounds(rng, rng.randint(1, 3), njobs=7):
            _grow(grown, ops)
        built = _fresh(grown)
        assert _tableau_state(built) == _tableau_state(grown), f"trial {trial}"
        a = solve_lp(grown)
        grown_pivots, pivots[:] = list(pivots), []
        b = solve_lp(built)
        assert grown_pivots == pivots, f"trial {trial}"
        total += len(pivots)
        pivots.clear()
        assert a.is_optimal and b.is_optimal, f"trial {trial}"
        assert _tableau_state(built) == _tableau_state(grown), f"trial {trial}"
        assert a == b, f"trial {trial}"
    assert total > 100  # the tableaus really pivot


def test_from_rows_rejects_rows_out_of_basic_form():
    Tableau.from_rows([-1, 0], [({0: 1, 1: -1}, 2, 0)])  # well formed
    with pytest.raises(ValueError):
        Tableau.from_rows([-1, 0], [({0: 1, 1: -1}, -1, 0)])  # negative rhs
    with pytest.raises(ValueError):
        Tableau.from_rows([-1, 0], [({0: 1, 1: -1}, F(1, 2), 0)])  # non-integer rhs
    with pytest.raises(ValueError):
        Tableau.from_rows([-1, 0], [({0: 1, 1: F(3, 2)}, 1, 0)])  # non-integer coefficient
    with pytest.raises(ValueError):
        Tableau.from_rows([F(1, 2), 0], [({0: 1, 1: 1}, 1, 0)])  # non-integer cost
    with pytest.raises(ValueError):
        Tableau.from_rows([0, 0], [({0: 2, 1: 1}, 1, 0)])  # basic coefficient 2
    with pytest.raises(ValueError):
        # the basic column of row 0 has an entry in row 1 too
        Tableau.from_rows([0, 0, 0], [({0: 1}, 1, 0), ({0: 1, 1: 1}, 1, 1)])
    with pytest.raises(ValueError):
        Tableau.from_rows([0, 0], [({0: 1, 1: 1}, 1, 0), ({0: 1, 1: 1}, 1, 0)])  # one basic column, two rows


def _dense_bareiss(rows, xb, z, det, r, c):
    """The textbook Bareiss step on entry (r, c), every cell rewritten as
    ``(p * a - f * b) / det`` with the division checked exact."""
    w, p, wb = rows[r], rows[r][c], xb[r]

    def exact(num):
        q, rest = divmod(num, det)
        assert rest == 0
        return q

    new_rows = [
        list(w) if k == r else [exact(p * a - row[c] * b) for a, b in zip(row, w)]
        for k, row in enumerate(rows)
    ]
    new_xb = [wb if k == r else exact(p * v - rows[k][c] * wb) for k, v in enumerate(xb)]
    new_z = [exact(p * a - z[c] * b) for a, b in zip(z, w)]
    return new_rows, new_xb, new_z, p


def test_sparse_pivot_matches_dense_bareiss():
    # random integer tableaus pivoted at random on positive entries, on an
    # entry equal to det about half the time: every step of _pivot leaves
    # rows, xb, z, basis and det as the dense Bareiss update does, including
    # the steps with p == det > 1, where the sparse path must still divide
    from random import Random

    rng = Random(97)
    kept_det = kept_det_above_1 = changed_det = 0
    for trial in range(150):
        nrows, ncols = rng.randint(2, 6), rng.randint(3, 9)
        rows = [
            [rng.choice([0, 0, 0, 1, 2, -1, 3, -2]) for _ in range(ncols)] + [int(r == k) for k in range(nrows)]
            for r in range(nrows)
        ]
        basis = [ncols + r for r in range(nrows)]
        xb = [rng.randint(0, 9) for _ in range(nrows)]
        z = [rng.randint(-4, 4) for _ in range(ncols + nrows)]
        det = 1
        for _ in range(rng.randint(1, 8)):
            entries = [
                (r, c)
                for r in range(nrows)
                for c in range(ncols + nrows)
                if c not in basis and rows[r][c] > 0
            ]
            if not entries:
                break
            at_det = [(r, c) for r, c in entries if rows[r][c] == det]
            r, c = rng.choice(at_det if at_det and rng.random() < 0.5 else entries)
            expected = _dense_bareiss(rows, xb, z, det, r, c)
            p = rows[r][c]
            if p == det:
                kept_det += 1
                kept_det_above_1 += det > 1
            else:
                changed_det += 1
            det = _pivot(rows, xb, z, basis, det, r, c)
            assert (rows, xb, z, det) == expected, f"trial {trial}"
            assert basis[r] == c
    assert kept_det > 300 and kept_det_above_1 > 100 and changed_det > 200


def _basis_inverse_times(master):
    """|det B| and B^-1 [A | b], columns by id, for the master's basis, by
    Fraction Gauss-Jordan elimination over the original columns, independent
    of the tableau's own arithmetic."""
    n = len(master.rhs)
    mat = [
        [F(master.columns[c].get(r, 0)) for c in master.basis]
        + [F(column.get(r, 0)) for column in master.columns]
        + [master.rhs[r]]
        for r in range(n)
    ]
    det = F(1)
    for c in range(n):
        piv = next(r for r in range(c, n) if mat[r][c] != 0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        mat[c] = [a * inv for a in mat[c]]
        for r in range(n):
            if r != c and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
    return abs(det), [row[n:] for row in mat]


def test_kept_master_tableau_is_integer_over_basis_determinant():
    # after every solve of a master grown round by round, each tableau entry
    # is an int and the tableau is exactly |det B| * B^-1 [A | b]
    from random import Random

    rng = Random(11)
    for trial in range(40):
        ngroups = rng.randint(1, 3)
        cover_rhs = rng.choice([1, 2])
        for master in _random_master_rounds(rng, ngroups, False, cover_rhs, njobs=6):
            assert solve_lp(master).is_optimal, f"trial {trial}"
            assert all(type(a) is int for row in master.rows for a in row), f"trial {trial}"
            assert all(type(a) is int for a in master.xb), f"trial {trial}"
            det, inverse = _basis_inverse_times(master)
            assert master.det == det, f"trial {trial}"
            expected = [[a * det for a in row] for row in inverse]
            held = [row + [xb] for row, xb in zip(master.rows, master.xb)]
            assert held == expected, f"trial {trial}"


def test_inserted_column_is_det_times_basis_inverse_times_a():
    # a 0/1 column inserted into a kept master after pivots must enter as
    # det * B^-1 a, as the Fraction elimination of _basis_inverse_times
    # computes it from the original columns: empty, one-row and many-row
    # columns, each also after pivots that left det above 1
    from collections import Counter
    from random import Random

    rng = Random(19)
    above_1 = Counter()
    for trial in range(100):
        cover_rhs = rng.choice([1, 2])
        for master in _random_master_rounds(rng, rng.randint(1, 3), False, cover_rhs, njobs=6):
            assert solve_lp(master).is_optimal, f"trial {trial}"
            nrows = len(master.rows)
            for size in (0, 1, rng.randint(min(2, nrows), nrows)):
                ones = dict.fromkeys(rng.sample(range(nrows), size), 1)
                c = master.insert_column(ones)
                det, inverse = _basis_inverse_times(master)
                assert master.columns[c] == ones, f"trial {trial}"
                assert [row[c] for row in master.rows] == [det * row[c] for row in inverse], (
                    f"trial {trial}"
                )
                above_1[min(size, 2)] += master.det > 1
    assert min(above_1[0], above_1[1], above_1[2]) >= 10, above_1


def test_inserted_column_must_be_zero_one():
    master = Tableau()
    master.insert_column({}, F(-1))
    master.add_row({0: 1}, F(1), basic=0)
    for coeffs in ({0: 2}, {0: -1}, {0: 0}):
        with pytest.raises(ValueError):
            master.insert_column(coeffs)
    assert master.variable_count == 1 and master.rows == [[1]]


def test_non_integer_coefficient_or_cost_rejected():
    lp = LinearProgram(1)
    with pytest.raises(ValueError):
        lp.add_constraint({0: F(1, 2)}, "<=", F(1))
    assert lp.constraints == []

    master = Tableau()
    master.insert_column({}, F(-1))  # an integral Fraction is fine
    master.insert_column({})
    master.add_row({0: F(1), 1: F(-1)}, F(2), basic=0)
    with pytest.raises(ValueError):
        master.insert_column({0: F(2, 3)})
    with pytest.raises(ValueError):
        master.insert_column({0: 1}, F(5, 2))
    master.insert_column({})
    with pytest.raises(ValueError):
        master.add_row({1: F(3, 2), 2: F(1)}, F(1), basic=2)
    assert master.variable_count == 3 and len(master.rows) == 1


def test_simplex_checks_survive_python_O():
    # the exact row-feasibility and duality checks are the only guard on the
    # tableau arithmetic: under -O a _pivot that leaves one entry off by one
    # must still stop a feasibility solve, whose >= row makes it pivot, with
    # LpError
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
from fractions import Fraction
import santaclaus.ratlp as ratlp
assert sys.flags.optimize, "not running under -O"
real_pivot = ratlp._pivot

def sabotaged(rows, xb, z, basis, det, r, c):
    det = real_pivot(rows, xb, z, basis, det, r, c)
    xb[r] += 1
    return det

ratlp._pivot = sabotaged
lp = ratlp.LinearProgram(2)
lp.add_constraint({0: 1, 1: 1}, ">=", 4)
lp.add_constraint({0: 1, 1: 3}, "<=", 6)
try:
    ratlp.solve_feasibility(lp)
except ratlp.LpError as exc:
    print("raised:", exc)
else:
    sys.exit("the sabotaged pivot went unnoticed")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: optimal solution violates a constraint" in proc.stdout
