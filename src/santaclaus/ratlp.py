"""Exact-rational linear programming: dense primal simplex on kept tableaus.

Every LP in the package reads ``maximize c.x  s.t.  rows, x >= 0`` with a
non-negative right-hand side on every row.  `solve_lp` accepts two forms:

* a `LinearProgram` (rows ``<=``, ``>=`` or ``=``) is put in standard form
  with slack, surplus and artificial columns and solved by two-phase simplex;
* a `Tableau` is an equality-form LP that its caller keeps between solves.
  Column generation adds each priced column to its master as B^-1 a and each
  new row in basic form, and `solve_lp` re-optimises from the basis the
  previous solve left, with no rebuild and no phase 1.

The solver works entirely over `fractions.Fraction` with deterministic
pivoting (Dantzig entering, falling back to Bland's anti-cycling rule), and
returns exact primal values together with exact dual values per row.  Dual
values drive column-generation pricing, so every optimal solve checks the
original rows exactly and checks strong duality.

The tableau is dense; the LPs this package builds stay small (tens of rows,
at most a few hundred columns), which keeps exact arithmetic affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

ZERO = Fraction(0)
ONE = Fraction(1)

RELATIONS = ("<=", ">=", "=")

# Steepest-coefficient (Dantzig) entering keeps pivot counts low; after this
# many pivots the rule degrades to Bland's, whose anti-cycling property
# guarantees termination from any basis.  Both rules are deterministic.
DANTZIG_PIVOT_LIMIT = 2000


@dataclass
class LinearProgram:
    """``maximize c.x  s.t.  rows, x >= 0`` with every right-hand side >= 0.

    ``objective`` and constraint rows are sparse maps from variable index to
    coefficient.
    """

    variable_count: int
    objective: dict[int, Fraction] = field(default_factory=dict)
    constraints: list[tuple[dict[int, Fraction], str, Fraction]] = field(default_factory=list)

    def add_constraint(self, coeffs: Mapping[int, Fraction], relation: str, rhs) -> None:
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError("right-hand side must be non-negative")
        row = {}
        for v, a in coeffs.items():
            if v < 0 or v >= self.variable_count:
                raise ValueError(f"variable index {v} out of range")
            a = Fraction(a)
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

    Every row owns a unit column: one whose original column is the unit
    vector of that row.  Its tableau column is therefore the row's column of
    B^-1, which brings a column inserted later into basic form (B^-1 a) and
    reads the row's dual off the reduced costs.  Columns are inserted at the
    position the caller names, so their order, which every pivot tie-break
    reads, does not depend on when they arrived; rows are appended, since no
    pivot rule reads row order.  Banned columns (artificials) never enter.
    """

    def __init__(self) -> None:
        self.rows: list[list[Fraction]] = []  # dense tableau rows, rhs last
        self.basis: list[int] = []  # per row, the column basic there
        self.unit: list[int] = []  # per row, its unit column
        self.rhs: list[Fraction] = []  # per row, the original b
        self.columns: list[dict[int, Fraction]] = []  # original A, row -> a
        self.cost: list[Fraction] = []
        self.banned: set[int] = set()

    @property
    def variable_count(self) -> int:
        return len(self.columns)

    @property
    def constraints(self) -> list[tuple[dict[int, Fraction], str, Fraction]]:
        """The original rows, as equalities over every column."""
        rows: list[dict[int, Fraction]] = [{} for _ in self.rhs]
        for c, col in enumerate(self.columns):
            for r, a in col.items():
                rows[r][c] = a
        return [(row, "=", b) for row, b in zip(rows, self.rhs)]

    def insert_column(self, pos: int, coeffs: Mapping[int, Fraction], cost=ZERO) -> None:
        """Insert the column with original entries ``coeffs`` (row -> a) at
        ``pos``, entering the tableau as B^-1 a; it starts nonbasic."""
        units = [(self.unit[r], a) for r, a in coeffs.items()]
        for row in self.rows:
            entry = ZERO
            for u, a in units:
                if row[u] != 0:
                    entry += a * row[u]
            row.insert(pos, entry)
        self.basis = [c + (c >= pos) for c in self.basis]
        self.unit = [c + (c >= pos) for c in self.unit]
        self.banned = {c + (c >= pos) for c in self.banned}
        self.columns.insert(pos, dict(coeffs))
        self.cost.insert(pos, Fraction(cost))

    def add_row(self, coeffs: Mapping[int, Fraction], rhs, basic: int) -> int:
        """Append the row ``coeffs . x = rhs`` with ``basic`` basic in it and
        return its index.

        ``basic`` must be a column with coefficient 1 here and no entry in
        any other row, and no other basic column may appear: then the row is
        already in basic form and the basis stays primal feasible.
        """
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError("right-hand side must be non-negative")
        if coeffs.get(basic) != 1 or self.columns[basic] or basic in self.basis:
            raise ValueError("the basic column must be a fresh unit column of the row")
        basic_cols = set(self.basis)
        if any(c in basic_cols for c in coeffs):
            raise ValueError("a new row may touch no basic column but its own")
        r = len(self.rows)
        row = [ZERO] * len(self.cost) + [rhs]
        for c, a in coeffs.items():
            row[c] = Fraction(a)
            self.columns[c][r] = row[c]
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
        ncols = len(self.cost)
        cost1 = [-ONE if c in self.banned else ZERO for c in range(ncols)]
        status, _ = _run_simplex(self.rows, self.basis, cost1, ncols, banned=set())
        assert status == "optimal", "phase-1 objective is bounded by construction"
        if any(row[ncols] != 0 for row, c in zip(self.rows, self.basis) if c in self.banned):
            return False
        _expel_artificials(self.rows, self.basis, ncols, self.banned)
        return True

    def optimise(self, reported: int | None = None) -> LpSolution:
        """Phase 2 from the current basis, which must be primal feasible.

        ``reported`` limits the returned values to the leading columns.
        """
        ncols = len(self.cost)
        status, z = _run_simplex(self.rows, self.basis, self.cost, ncols, self.banned)
        if status == "unbounded":
            return LpSolution(status="unbounded")
        x = [ZERO] * ncols
        for row, c in zip(self.rows, self.basis):
            x[c] = row[ncols]

        # Exact feasibility of every original row, with artificials at zero.
        activity = [ZERO] * len(self.rhs)
        for col, v in zip(self.columns, x):
            if v != 0:
                for r, a in col.items():
                    activity[r] += a * v
        assert (
            activity == self.rhs
            and all(v >= 0 for v in x)
            and all(x[c] == 0 for c in self.banned)
        ), "optimal solution violates a constraint; simplex bug"

        # Row r's unit column u prices at z[u] = cost[u] - y_r.
        duals = [self.cost[u] - z[u] for u in self.unit]
        objective = sum((c * v for c, v in zip(self.cost, x) if v != 0), ZERO)
        dual_obj = sum((y * b for y, b in zip(duals, self.rhs)), ZERO)
        assert dual_obj == objective, "duality gap at optimum; simplex bug"
        return LpSolution(
            status="optimal",
            values=tuple(x[:reported]),
            objective_value=objective,
            dual_values=tuple(duals),
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
        tableau.insert_column(c, {}, lp.objective.get(c, ZERO) if c < lp.variable_count else ZERO)
    for r, (row, relation, b) in enumerate(lp.constraints):
        coeffs = dict(row)
        if r in slack_of:
            coeffs[slack_of[r]] = ONE if relation == "<=" else -ONE
        if r in art_of:
            coeffs[art_of[r]] = ONE
        tableau.add_row(coeffs, b, basic=art_of.get(r, slack_of.get(r)))
    tableau.banned = set(art_of.values())
    return tableau


def _run_simplex(tableau, basis, cost, ncols, banned) -> str:
    """Primal simplex on a tableau already in basic form.

    Dantzig entering (largest reduced cost, lowest index on ties) until
    DANTZIG_PIVOT_LIMIT, then Bland's rule; leaving rows break ratio ties on
    the smallest basic variable, completing Bland's anti-cycling guarantee.
    """
    nrows = len(tableau)
    # Reduced-cost row: z[j] = cost[j] - cost_B . B^-1 A_j.
    z = list(cost) + [ZERO]
    for r in range(nrows):
        cb = cost[basis[r]]
        if cb != 0:
            row = tableau[r]
            for j in range(ncols + 1):
                if row[j] != 0:
                    z[j] -= cb * row[j]
    pivots = 0
    while True:
        enter = -1
        if pivots < DANTZIG_PIVOT_LIMIT:
            best = ZERO
            for j in range(ncols):
                if j in banned:
                    continue
                if z[j] > best:
                    best = z[j]
                    enter = j
        else:
            for j in range(ncols):
                if j in banned:
                    continue
                if z[j] > 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal", z
        pivots += 1
        # Ratio test; ties resolved by smallest basis variable (Bland).
        leave = -1
        best_ratio = None
        for r in range(nrows):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][ncols] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            return "unbounded", z
        _pivot(tableau, z, basis, leave, enter, ncols)


def _pivot(tableau, z, basis, r, c, ncols) -> None:
    row = tableau[r]
    piv = row[c]
    if piv != 1:
        inv = 1 / piv
        for j in range(ncols + 1):
            if row[j] != 0:
                row[j] *= inv
    for rr, other in enumerate(tableau):
        if rr == r:
            continue
        f = other[c]
        if f != 0:
            for j in range(ncols + 1):
                if row[j] != 0:
                    other[j] -= f * row[j]
    f = z[c]
    if f != 0:
        for j in range(ncols + 1):
            if row[j] != 0:
                z[j] -= f * row[j]
    basis[r] = c


def _expel_artificials(tableau, basis, ncols, banned) -> None:
    """Pivot zero-valued artificials out of the basis where possible.

    A row whose artificial cannot leave is redundant; the artificial stays
    basic at zero and the banned set keeps it from ever re-entering.
    """
    nrows = len(tableau)
    for r in range(nrows):
        if basis[r] not in banned:
            continue
        assert tableau[r][ncols] == 0
        enter = -1
        for j in range(ncols):
            if j in banned:
                continue
            if tableau[r][j] != 0:
                enter = j
                break
        if enter < 0:
            continue
        dummy_z = [ZERO] * (ncols + 1)
        _pivot(tableau, dummy_z, basis, r, enter, ncols)
