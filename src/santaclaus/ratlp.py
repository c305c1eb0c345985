"""Exact linear programming: dense primal simplex on kept fraction-free tableaus.

Every LP in the package reads ``maximize c.x  s.t.  rows, x >= 0`` with
integer coefficients and costs and a non-negative rational right-hand side
on every row.  `solve_lp` accepts two forms:

* a `LinearProgram` (rows ``<=``, ``>=`` or ``=``) is put in standard form
  with slack, surplus and artificial columns and solved by two-phase simplex;
* a `Tableau` is an equality-form LP that its caller keeps between solves.
  Column generation adds each priced column to its master as B^-1 a and each
  new row in basic form, and `solve_lp` re-optimises from the basis the
  previous solve left, with no rebuild and no phase 1.

The tableau is fraction-free (Edmonds/Bareiss integer-preserving
Gauss-Jordan): it holds the integers ``det * B^-1 [A | b * bden]``, where
``det = |det B|`` and ``bden`` is the common denominator of the right-hand
side, and each pivot divides exactly by the previous determinant.  Every
reduced-cost sign and ratio-test comparison reads the same as over the
rationals ``B^-1 [A | b]``, so pivoting is deterministic and identical to an
exact-rational simplex (Dantzig entering, falling back to Bland's
anti-cycling rule).  Only the returned primal and dual values are
`fractions.Fraction`.  Dual values drive column-generation pricing, so every
optimal solve checks the original rows exactly and checks strong duality,
and raises `LpError` (not an ``assert``, which ``python -O`` strips) when
either fails.

The tableau is dense; the LPs this package builds stay small (tens of rows,
at most a few hundred columns), which keeps exact arithmetic affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping

ZERO = Fraction(0)

RELATIONS = ("<=", ">=", "=")

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


@dataclass
class LinearProgram:
    """``maximize c.x  s.t.  rows, x >= 0`` with every right-hand side >= 0.

    ``objective`` and constraint rows are sparse maps from variable index to
    an integer coefficient; right-hand sides may be any non-negative
    rational.
    """

    variable_count: int
    objective: dict[int, int] = field(default_factory=dict)
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
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    dual_values: tuple[Fraction, ...] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class Tableau:
    """``maximize cost.x  s.t.  A x = b, x >= 0``, kept in basic form.

    ``rows`` hold the integers ``det * B^-1 [A | b * bden]``, rhs last, with
    ``det = |det B| > 0`` and ``bden`` the common denominator of ``b``.
    Every row owns a unit column: one whose original column is the unit
    vector of that row.  Its tableau column is therefore ``det`` times the
    row's column of B^-1, which brings a column inserted later into basic
    form (B^-1 a) and reads the row's dual off the reduced costs.  Columns
    are inserted at the position the caller names, so their order, which
    every pivot tie-break reads, does not depend on when they arrived; rows
    are appended, since no pivot rule reads row order.  Banned columns
    (artificials) never enter.
    """

    def __init__(self) -> None:
        self.rows: list[list[int]] = []  # det * B^-1 [A | b * bden]
        self.det = 1  # |det B|
        self.bden = 1  # common denominator of the rhs
        self.basis: list[int] = []  # per row, the column basic there
        self.unit: list[int] = []  # per row, its unit column
        self.rhs: list[Fraction] = []  # per row, the original b
        self.columns: list[dict[int, int]] = []  # original A, row -> a
        self.cost: list[int] = []
        self.banned: set[int] = set()

    @property
    def variable_count(self) -> int:
        return len(self.columns)

    @property
    def constraints(self) -> list[tuple[dict[int, int], str, Fraction]]:
        """The original rows, as equalities over every column."""
        rows: list[dict[int, int]] = [{} for _ in self.rhs]
        for c, col in enumerate(self.columns):
            for r, a in col.items():
                rows[r][c] = a
        return [(row, "=", b) for row, b in zip(rows, self.rhs)]

    def insert_column(self, pos: int, coeffs: Mapping[int, int], cost=0) -> None:
        """Insert the column with original integer entries ``coeffs``
        (row -> a) and integer ``cost`` at ``pos``, entering the tableau as
        B^-1 a; it starts nonbasic."""
        coeffs = {r: _integer(a, "coefficient") for r, a in coeffs.items()}
        cost = _integer(cost, "cost")
        units = [(self.unit[r], a) for r, a in coeffs.items()]
        for row in self.rows:
            entry = 0
            for u, a in units:
                entry += a * row[u]
            row.insert(pos, entry)
        self.basis = [c + (c >= pos) for c in self.basis]
        self.unit = [c + (c >= pos) for c in self.unit]
        self.banned = {c + (c >= pos) for c in self.banned}
        self.columns.insert(pos, coeffs)
        self.cost.insert(pos, cost)

    def add_row(self, coeffs: Mapping[int, int], rhs, basic: int) -> int:
        """Append the row ``coeffs . x = rhs`` with ``basic`` basic in it and
        return its index.

        ``basic`` must be a column with coefficient 1 here and no entry in
        any other row, and no other basic column may appear: then the row is
        already in basic form, ``det`` does not change, and the basis stays
        primal feasible.
        """
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError("right-hand side must be non-negative")
        coeffs = {c: _integer(a, "coefficient") for c, a in coeffs.items()}
        if coeffs.get(basic) != 1 or self.columns[basic] or basic in self.basis:
            raise ValueError("the basic column must be a fresh unit column of the row")
        basic_cols = set(self.basis)
        if any(c in basic_cols for c in coeffs):
            raise ValueError("a new row may touch no basic column but its own")
        scale = rhs.denominator // gcd(rhs.denominator, self.bden)
        if scale != 1:
            self.bden *= scale
            for row in self.rows:
                row[-1] *= scale
        r = len(self.rows)
        row = [0] * len(self.cost) + [self.det * rhs.numerator * (self.bden // rhs.denominator)]
        for c, a in coeffs.items():
            row[c] = self.det * a
            self.columns[c][r] = a
        self.rows.append(row)
        self.basis.append(basic)
        self.unit.append(basic)
        self.rhs.append(rhs)
        return r

    def phase_one(self) -> bool:
        """Drive the artificials out of the basis; False if the rows are
        infeasible.  Redundant rows keep their artificial basic at zero."""
        if not any(c in self.banned for c in self.basis):
            return True
        cost1 = [-1 if c in self.banned else 0 for c in range(len(self.cost))]
        status, _, self.det = _run_simplex(self.rows, self.basis, cost1, self.det, banned=set())
        if status != "optimal":
            raise LpError("phase 1 came out unbounded, although its objective is bounded by 0")
        if any(row[-1] != 0 for row, c in zip(self.rows, self.basis) if c in self.banned):
            return False
        self.det = _expel_artificials(self.rows, self.basis, self.det, self.banned)
        return True

    def optimise(self, reported: int | None = None) -> LpSolution:
        """Phase 2 from the current basis, which must be primal feasible.

        ``reported`` limits the returned values to the leading columns.
        """
        status, z, self.det = _run_simplex(self.rows, self.basis, self.cost, self.det, self.banned)
        if status == "unbounded":
            return LpSolution(status="unbounded")
        det, bden = self.det, self.bden
        # x = xs / (det * bden), exactly.
        xs = [0] * len(self.cost)
        for row, c in zip(self.rows, self.basis):
            xs[c] = row[-1]
        b_scaled = [b.numerator * (bden // b.denominator) for b in self.rhs]  # b * bden

        # Exact feasibility of every original row, with artificials at zero.
        activity = [0] * len(self.rhs)
        for col, v in zip(self.columns, xs):
            if v:
                for r, a in col.items():
                    activity[r] += a * v
        if (
            activity != [det * b for b in b_scaled]
            or any(v < 0 for v in xs)
            or any(xs[c] != 0 for c in self.banned)
        ):
            raise LpError("optimal solution violates a constraint; simplex bug")

        # Row r's unit column u prices at z[u] / det = cost[u] - y_r.
        ys = [det * self.cost[u] - z[u] for u in self.unit]  # y * det
        objective = sum(c * v for c, v in zip(self.cost, xs) if v)  # * det * bden
        if sum(y * b for y, b in zip(ys, b_scaled)) != objective:
            raise LpError("duality gap at optimum; simplex bug")
        scale = det * bden
        # tuple(list), not tuple(generator): CPython builds the latter at a
        # guessed size and resizes it, so it skips the per-size tuple free
        # lists on the way in but joins them on the way out.  Only a full
        # garbage collection empties those lists, and an integer tableau
        # allocates too few tracked objects to trigger one often, so peak
        # memory would grow with every solve.
        return LpSolution(
            status="optimal",
            values=tuple([Fraction(v, scale) if v else ZERO for v in xs[:reported]]),
            objective_value=Fraction(objective, scale),
            dual_values=tuple([Fraction(y, det) for y in ys]),
        )


def solve_feasibility(lp: LinearProgram) -> LpSolution:
    """Solve with a zero objective: any feasible vertex, or infeasible."""
    probe = LinearProgram(
        variable_count=lp.variable_count,
        objective={},
        constraints=lp.constraints,
    )
    return solve_lp(probe)


def solve_lp(lp: LinearProgram | Tableau) -> LpSolution:
    """Solve the LP.  A `Tableau` re-optimises from its kept basis (and keeps
    the final one); a `LinearProgram` is solved from scratch."""
    if isinstance(lp, Tableau):
        return lp.optimise()
    tableau = _standard_form(lp)
    if not tableau.phase_one():
        return LpSolution(status="infeasible")
    return tableau.optimise(reported=lp.variable_count)


def _standard_form(lp: LinearProgram) -> Tableau:
    """Columns: structural | slack or surplus per inequality | artificial per
    ``>=`` or ``=`` row.  Each row starts basic on its slack (``<=``) or its
    artificial, which is also the row's unit column."""
    relations = [relation for _, relation, _ in lp.constraints]
    slack_of: dict[int, int] = {}
    art_of: dict[int, int] = {}
    ncols = lp.variable_count
    for r, relation in enumerate(relations):
        if relation != "=":
            slack_of[r] = ncols
            ncols += 1
    for r, relation in enumerate(relations):
        if relation != "<=":
            art_of[r] = ncols
            ncols += 1
    tableau = Tableau()
    for c in range(ncols):
        tableau.insert_column(c, {}, lp.objective.get(c, 0) if c < lp.variable_count else 0)
    for r, (row, relation, b) in enumerate(lp.constraints):
        coeffs = dict(row)
        if r in slack_of:
            coeffs[slack_of[r]] = 1 if relation == "<=" else -1
        if r in art_of:
            coeffs[art_of[r]] = 1
        tableau.add_row(coeffs, b, basic=art_of.get(r, slack_of.get(r)))
    tableau.banned = set(art_of.values())
    return tableau


def _run_simplex(rows, basis, cost, det, banned):
    """Primal simplex on a fraction-free tableau already in basic form;
    returns the status, the final reduced-cost row and the final ``det``.

    The reduced-cost row ``z`` holds ``det * (cost - cost_B B^-1 A)``, so its
    signs and order are those of the rational reduced costs.  Dantzig
    entering (largest reduced cost, lowest index on ties) until
    DANTZIG_PIVOT_LIMIT, then Bland's rule; the ratio test cross-multiplies,
    and leaving rows break ratio ties on the smallest basic variable,
    completing Bland's anti-cycling guarantee.
    """
    ncols = len(cost)
    z = [det * c for c in cost] + [0]
    for row, b in zip(rows, basis):
        cb = cost[b]
        if cb:
            z = [zj - cb * a for zj, a in zip(z, row)]
    pivots = 0
    while True:
        enter = -1
        if pivots < DANTZIG_PIVOT_LIMIT:
            best = 0
            for j in range(ncols):
                if z[j] > best and j not in banned:
                    best = z[j]
                    enter = j
        else:
            for j in range(ncols):
                if z[j] > 0 and j not in banned:
                    enter = j
                    break
        if enter < 0:
            return "optimal", z, det
        pivots += 1
        # Ratio test rhs/a, compared as cross products (every a > 0); ties
        # resolved by smallest basis variable (Bland).
        leave = -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = r, row[ncols], a
                    continue
                lhs = row[ncols] * den
                rhs = num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, row[ncols], a
        if leave < 0:
            return "unbounded", z, det
        det = _pivot(rows, z, basis, det, leave, enter)


def _pivot(rows, z, basis, det, r, c) -> int:
    """Bareiss pivot on entry (r, c); returns the new ``det``.

    The new determinant is the pivot entry p; every other row (the
    reduced-cost row ``z`` too) becomes ``(p * row - f * w) / det``, where w
    is the pivot row and f the row's entry in column c, and the division is
    exact.  A negative pivot (only `_expel_artificials` takes one) negates
    the pivot row first, which negates the whole new tableau and keeps
    ``det`` positive; the pivot row itself is otherwise unchanged.
    """
    w = rows[r]
    p = w[c]
    if p < 0:
        p = -p
        rows[r] = w = [-a for a in w]
    for k, other in enumerate(rows):
        if k == r:
            continue
        f = other[c]
        if f:
            rows[k] = [(p * a - f * b) // det for a, b in zip(other, w)]
        elif p != det:
            rows[k] = [p * a // det for a in other]
    f = z[c]
    if f:
        z[:] = [(p * a - f * b) // det for a, b in zip(z, w)]
    elif p != det:
        z[:] = [p * a // det for a in z]
    basis[r] = c
    return p


def _expel_artificials(rows, basis, det, banned) -> int:
    """Pivot zero-valued artificials out of the basis where possible and
    return the final ``det``.

    A row whose artificial cannot leave is redundant; the artificial stays
    basic at zero and the banned set keeps it from ever re-entering.
    """
    for r in range(len(rows)):
        if basis[r] not in banned:
            continue
        row = rows[r]
        enter = -1
        for j in range(len(row) - 1):
            if j in banned:
                continue
            if row[j] != 0:
                enter = j
                break
        if enter < 0:
            continue
        det = _pivot(rows, [0] * len(row), basis, det, r, enter)
    return det
