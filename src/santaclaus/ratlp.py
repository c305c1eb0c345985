"""Exact linear programming: primal simplex on kept fraction-free tableaus.

Every LP in the package reads ``maximize c.x  s.t.  rows, x >= 0`` with
integer coefficients and costs and a non-negative integer right-hand side
on every row, and is solved as a `Tableau`: an equality-form LP kept in
basic form, which starts on an identity basis of unit columns and so never
needs a phase 1.  It comes from one of two places:

* column generation builds its cover master with `Tableau.from_rows` and
  keeps it between solves, adding each priced column as B^-1 a and each new
  row in basic form, and `solve_lp` re-optimises from the basis the previous
  solve left;
* `solve_feasibility` takes a `LinearProgram` of ``<=`` and ``>=`` rows with
  rational right-hand sides, scales each row by its right-hand side's
  denominator, and builds the same kind of tableau with `Tableau.from_rows`:
  a slack or surplus column per row and a shortfall column of cost -1 per
  ``>=`` row, each row basic on its slack or its shortfall.  The rows are
  feasible exactly when the least total shortfall, the optimum, is 0.

The tableau is fraction-free (Edmonds/Bareiss integer-preserving
Gauss-Jordan): it holds the integers ``det * B^-1 [A | b]``, where
``det = |det B|``, and each pivot divides exactly by the previous
determinant.  Every reduced-cost sign and ratio-test comparison reads the
same as over the rationals ``B^-1 [A | b]``, so pivoting is deterministic
and identical to an exact-rational simplex (Dantzig entering, falling back
to Bland's anti-cycling rule).

A column is known by its id, the order it arrived in, and every tie-break
(Dantzig's and Bland's entering column, the ratio test's smallest basic
variable) reads the column id.  Columns are appended, so adding one costs
an append per row and never renumbers the basis.

An optimal `LpSolution` carries integers: ``x * det`` and ``y * det``.
Column-generation pricing compares signs on those directly, and the cover
LP hands its ``xs`` on with the scale ``det`` as integer weights to every
reader downstream; the `fractions.Fraction` values are built only when
read.  Dual values drive pricing, so every optimal solve checks the
original rows exactly and checks strong duality, over integers, and raises
`LpError` (not an ``assert``, which ``python -O`` strips) when either fails.

The tableau's rows are stored dense, but the work follows the nonzeros:
`Tableau.from_rows` writes each row of A once, a column added later is a
0/1 column whose entry in each row is a sum of that row's unit-column
entries (one 0 per row when it is empty), and a pivot whose entry equals
``det`` (every pivot while ``det`` is 1, and most pivots of the cover
masters) updates only the pivot row's nonzero columns of the rows it
touches.  A pivot that changes ``det`` rescales every row.  The LPs this
package builds stay small (tens of rows, at most a few hundred columns),
which keeps exact arithmetic affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Mapping

ZERO = Fraction(0)

RELATIONS = ("<=", ">=")

# Steepest-coefficient (Dantzig) entering keeps pivot counts low; after this
# many pivots the rule degrades to Bland's, whose anti-cycling property
# guarantees termination from any basis.  Both rules are deterministic.
DANTZIG_PIVOT_LIMIT = 2000


class LpError(RuntimeError):
    """The simplex failed an exact check on its own result: a solver bug,
    never an input fault.  Raised, not asserted, so that ``python -O`` keeps
    it."""


def _integer(a, what: str) -> int:
    if type(a) is int:
        return a
    f = Fraction(a)
    if f.denominator != 1:
        raise ValueError(f"{what} {a} is not an integer")
    return f.numerator


def _rhs(b) -> int:
    b = _integer(b, "right-hand side")
    if b < 0:
        raise ValueError("right-hand side must be non-negative")
    return b


@dataclass
class LinearProgram:
    """The rows ``<=`` or ``>=``, x >= 0, with every right-hand side >= 0: a
    system that `solve_feasibility` finds a vertex of.

    Constraint rows are sparse maps from variable index to an integer
    coefficient; right-hand sides may be any non-negative rational.
    """

    variable_count: int
    constraints: list[tuple[dict[int, int], str, Fraction]] = field(default_factory=list)

    def add_constraint(self, coeffs: Mapping[int, int], relation: str, rhs) -> None:
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError("right-hand side must be non-negative")
        row = {}
        for v, a in coeffs.items():
            if v < 0 or v >= self.variable_count:
                raise ValueError(f"variable index {v} out of range")
            a = _integer(a, "coefficient")
            if a != 0:
                row[v] = a
        self.constraints.append((row, relation, rhs))


@dataclass(frozen=True)
class LpSolution:
    """A solve's outcome; an optimal one holds integers over a common scale.

    ``xs`` holds ``x * det`` per column, ``objective`` holds ``c.x * det``
    and ``ys`` holds ``y * det`` per row.  The rational `values` are built
    on first read, so a caller that only compares signs never makes a
    `Fraction`.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    xs: tuple[int, ...] | None = None
    objective: int | None = None
    ys: tuple[int, ...] | None = None
    det: int = 1

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    # tuple(list), not tuple(generator): CPython builds the latter at a
    # guessed size and resizes it, so it skips the per-size tuple free lists
    # on the way in but joins them on the way out.  Only a full garbage
    # collection empties those lists, and an integer tableau allocates too
    # few tracked objects to trigger one often, so peak memory would grow
    # with every solve.
    @cached_property
    def values(self) -> tuple[Fraction, ...] | None:
        if self.xs is None:
            return None
        det = self.det
        return tuple([Fraction(v, det) if v else ZERO for v in self.xs])


class Tableau:
    """``maximize cost.x  s.t.  A x = b, x >= 0``, kept in basic form.

    ``rows`` hold the integers ``det * B^-1 A`` and ``xb`` the integers
    ``det * B^-1 b``, with ``det = |det B| > 0`` and ``b`` an integer
    right-hand side.  Every row owns a unit column: one whose
    original column is the unit vector of that row.  Its tableau column is
    therefore ``det`` times the row's column of B^-1, which brings a column
    inserted later into basic form (B^-1 a) and reads the row's dual off the
    reduced costs.

    A column is known by its id, the order it arrived in: ``columns``,
    ``cost`` and every row are indexed by id, and a new column is appended,
    so ``basis`` and ``unit`` never shift.  Every pivot tie-break reads the
    column id, so a tableau grown column by column pivots exactly as the
    same LP written out by `from_rows` in id order.  Rows are appended,
    since no pivot rule reads row order.

    `from_rows` builds a tableau on the identity basis in one pass;
    `insert_column` and `add_row` serve the columns and rows that arrive
    after it.
    """

    def __init__(self) -> None:
        self.rows: list[list[int]] = []  # det * B^-1 A, by column id
        self.xb: list[int] = []  # per row, det * B^-1 b
        self.det = 1  # |det B|
        self.basis: list[int] = []  # per row, the column basic there
        self.basic: set[int] = set()  # the same columns, as a set
        self.unit: list[int] = []  # per row, its unit column
        self.rhs: list[int] = []  # per row, the original b
        self.columns: list[dict[int, int]] = []  # original A, row -> a
        self.cost: list[int] = []

    @classmethod
    def from_rows(cls, cost, rows) -> "Tableau":
        """The tableau of ``maximize cost.x  s.t.  rows, x >= 0`` on the
        identity basis of its rows' basic columns.

        ``cost`` lists the integer column costs by column id.  Each row is a
        triple ``(coeffs, rhs, basic)``: integer coefficients by column id,
        an integer right-hand side >= 0, and the column basic in the row,
        which must have coefficient 1 there and no entry in any other row.
        Then B = I and ``det`` is 1, so the tableau rows are the rows of A
        and ``xb`` is ``b``, written in one pass.
        """
        t = cls()
        n = len(cost)
        t.cost = [_integer(c, "cost") for c in cost]
        t.columns = columns = [{} for _ in range(n)]
        for r, (coeffs, rhs, basic) in enumerate(rows):
            t.rhs.append(_rhs(rhs))
            row = [0] * n
            for c, a in coeffs.items():
                row[c] = columns[c][r] = _integer(a, "coefficient")
            t.rows.append(row)
            t.basis.append(basic)
        for r, basic in enumerate(t.basis):
            if columns[basic] != {r: 1}:
                raise ValueError("a row's basic column must be a unit column of that row only")
        t.xb = list(t.rhs)
        t.basic = set(t.basis)
        t.unit = list(t.basis)
        return t

    @property
    def variable_count(self) -> int:
        return len(self.columns)

    @property
    def constraints(self) -> list[tuple[dict[int, int], str, int]]:
        """The original rows, as equalities over every column id."""
        rows: list[dict[int, int]] = [{} for _ in self.rhs]
        for c, col in enumerate(self.columns):
            for r, a in col.items():
                rows[r][c] = a
        return [(row, "=", b) for row, b in zip(rows, self.rhs)]

    def insert_column(self, coeffs: Mapping[int, int], cost=0) -> int:
        """Append the 0/1 column with a 1 in each row of ``coeffs`` (row ->
        1) and integer ``cost``, entering the tableau as B^-1 a; it starts
        nonbasic.  Returns its id.

        Each row's entry of ``det * B^-1 a`` is the sum of its entries in the
        unit columns of the column's rows, read by one `operator.itemgetter`
        call.  The package inserts only configurations and empty job slacks,
        so 0/1 columns are all it accepts.
        """
        if not {1}.issuperset(coeffs.values()):
            raise ValueError("an inserted column must be a 0/1 column")
        cost = _integer(cost, "cost")
        if not coeffs:
            for row in self.rows:
                row.append(0)
        elif len(coeffs) == 1:
            (r,) = coeffs
            u = self.unit[r]
            for row in self.rows:
                row.append(row[u])
        else:
            get = itemgetter(*[self.unit[r] for r in coeffs])
            for row in self.rows:
                row.append(sum(get(row)))
        c = len(self.columns)
        self.columns.append(dict.fromkeys(coeffs, 1))
        self.cost.append(cost)
        return c

    def add_row(self, coeffs: Mapping[int, int], rhs, basic: int) -> int:
        """Append the row ``coeffs . x = rhs`` (column id -> a) with column
        ``basic`` basic in it and return the row's index.

        ``basic`` must be a column with coefficient 1 here and no entry in
        any other row, and no other basic column may appear: then the row is
        already in basic form, ``det`` does not change, and the basis stays
        primal feasible.
        """
        rhs = _rhs(rhs)
        coeffs = {c: _integer(a, "coefficient") for c, a in coeffs.items()}
        if coeffs.get(basic) != 1 or self.columns[basic] or basic in self.basic:
            raise ValueError("the basic column must be a fresh unit column of the row")
        if any(c in self.basic for c in coeffs):
            raise ValueError("a new row may touch no basic column but its own")
        r = len(self.rows)
        row = [0] * len(self.cost)
        for c, a in coeffs.items():
            row[c] = self.det * a
            self.columns[c][r] = a
        self.rows.append(row)
        self.xb.append(self.det * rhs)
        self.basis.append(basic)
        self.basic.add(basic)
        self.unit.append(basic)
        self.rhs.append(rhs)
        return r

    def optimise(self) -> LpSolution:
        """Re-optimise from the current basis, which must be primal feasible."""
        status, z = self._simplex()
        if status == "unbounded":
            return LpSolution(status="unbounded")
        det = self.det
        # x = xs / det, exactly.
        xs = [0] * len(self.cost)
        for v, c in zip(self.xb, self.basis):
            xs[c] = v

        # Exact feasibility of every original row.
        activity = [0] * len(self.rhs)
        for col, v in zip(self.columns, xs):
            if v:
                for r, a in col.items():
                    activity[r] += a * v
        if activity != [det * b for b in self.rhs] or any(v < 0 for v in xs):
            raise LpError("optimal solution violates a constraint; simplex bug")

        # Row r's unit column u prices at z[u] / det = cost[u] - y_r.
        ys = [det * self.cost[u] - z[u] for u in self.unit]  # y * det
        objective = sum(c * v for c, v in zip(self.cost, xs) if v)  # * det
        if sum(y * b for y, b in zip(ys, self.rhs)) != objective:
            raise LpError("duality gap at optimum; simplex bug")
        # tuple(list), not tuple(generator): see LpSolution.
        return LpSolution(
            status="optimal",
            xs=tuple(xs),
            objective=objective,
            ys=tuple(ys),
            det=det,
        )

    def _simplex(self):
        """Primal simplex from the current basic form; returns the status and
        the final reduced-cost row, and leaves the final basis and ``det``.

        The reduced-cost row ``z`` holds ``det * (cost - cost_B B^-1 A)``, so
        its signs and order are those of the rational reduced costs.
        Dantzig entering (largest reduced cost, lowest id on ties) until
        DANTZIG_PIVOT_LIMIT, then Bland's rule (lowest-id improving column);
        the ratio test cross-multiplies, and leaving rows break ratio ties on
        the basic variable of lowest id, completing Bland's anti-cycling
        guarantee.
        """
        rows, xb, basis, cost = self.rows, self.xb, self.basis, self.cost
        det = self.det
        z = [det * c for c in cost]
        for row, b in zip(rows, basis):
            cb = cost[b]
            if cb:
                z = [zj - cb * a for zj, a in zip(z, row)]
        pivots = 0
        while True:
            best = max(z, default=0)
            if best <= 0:
                status = "optimal"
                break
            if pivots < DANTZIG_PIVOT_LIMIT:
                enter = z.index(best)
            else:
                enter = next(j for j, zj in enumerate(z) if zj > 0)
            pivots += 1
            # Ratio test xb/a, compared as cross products (every a > 0); ties
            # resolved by the basic variable of lowest id.
            leave = -1
            for r, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, num, den = r, xb[r], a
                        continue
                    lhs = xb[r] * den
                    rhs = num * a
                    if lhs < rhs or lhs == rhs and basis[r] < basis[leave]:
                        leave, num, den = r, xb[r], a
            if leave < 0:
                status = "unbounded"
                break
            self.det = det = _pivot(rows, xb, z, basis, det, leave, enter)
        self.basic = set(basis)
        return status, z


def solve_feasibility(lp: LinearProgram) -> LpSolution:
    """A vertex of the rows of ``lp``, or "infeasible".

    Each row is first multiplied by its right-hand side's denominator, which
    leaves every coefficient and right-hand side an integer and the
    structural solutions as they were.  The tableau's columns, by id, are
    the structural ones, one per row (a slack, +1, on a ``<=`` row; a
    surplus, -1, on a ``>=`` row) and a shortfall (+1, cost -1) per ``>=``
    row.  Each row starts basic on its slack or its shortfall, and the solve
    maximises minus the total shortfall, which is 0 exactly when the rows
    are feasible.  The solution holds the structural columns' values and no
    duals.
    """
    n, rows = lp.variable_count, lp.constraints
    first = n + len(rows)  # the first shortfall column
    ge = [r for r, (_, relation, _) in enumerate(rows) if relation == ">="]
    shortfall = {r: first + k for k, r in enumerate(ge)}
    tableau_rows = []
    for r, (row, relation, b) in enumerate(rows):
        d = b.denominator
        coeffs = {v: a * d for v, a in row.items()}
        coeffs[n + r] = 1 if relation == "<=" else -1
        if r in shortfall:
            coeffs[shortfall[r]] = 1
        tableau_rows.append((coeffs, b.numerator, shortfall.get(r, n + r)))
    sol = solve_lp(Tableau.from_rows([0] * first + [-1] * len(ge), tableau_rows))
    if not sol.is_optimal:
        raise LpError("the shortfall LP came out unbounded, although its objective is bounded by 0")
    if sol.objective:
        return LpSolution(status="infeasible")
    return LpSolution(status="optimal", xs=sol.xs[:n], objective=0, det=sol.det)


def solve_lp(tableau: Tableau) -> LpSolution:
    """Re-optimise ``tableau`` from its kept basis, and keep the final one."""
    return tableau.optimise()


def _pivot(rows, xb, z, basis, det, r, c) -> int:
    """Bareiss pivot on entry (r, c); returns the new ``det``.

    The new determinant is the pivot entry p; every other row (with its
    ``xb`` entry, and the reduced-cost row ``z`` too) becomes
    ``(p * row - f * w) / det``, where w is the pivot row and f the row's
    entry in column c, and the division is exact; the pivot row itself is
    unchanged.  The ratio test pivots only on p > 0, so ``det`` stays
    positive.

    When p equals ``det`` an entry becomes ``a - f * b / det``: only the
    pivot row's nonzero columns move, each ``f * b`` is itself a multiple of
    ``det`` (since ``det * a`` is), and a row with f = 0 keeps every entry.
    Those entries are updated in place.  Otherwise every entry of every row
    is rescaled.
    """
    w = rows[r]
    p = w[c]
    wb = xb[r]
    if p == det:
        nonzero = [(j, b) for j, b in enumerate(w) if b]
        for k, other in enumerate(rows):
            f = other[c]
            if f and k != r:
                for j, b in nonzero:
                    other[j] -= f * b // det
                xb[k] -= f * wb // det
        f = z[c]
        if f:
            for j, b in nonzero:
                z[j] -= f * b // det
        basis[r] = c
        return p
    for k, other in enumerate(rows):
        if k == r:
            continue
        f = other[c]
        if f:
            rows[k] = [(p * a - f * b) // det for a, b in zip(other, w)]
            xb[k] = (p * xb[k] - f * wb) // det
        else:
            rows[k] = [p * a // det for a in other]
            xb[k] = p * xb[k] // det
    f = z[c]
    if f:
        z[:] = [(p * a - f * b) // det for a, b in zip(z, w)]
    else:
        z[:] = [p * a // det for a in z]
    basis[r] = c
    return p
