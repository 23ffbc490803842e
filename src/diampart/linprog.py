"""Small dense linear programs in exact rational arithmetic.

Solves min c.x subject to A x = b, x >= 0 with the two-phase simplex
method and Bland's anti-cycling rule, pivoting over fractions.Fraction.
Instances in this library stay tiny (tens of rows, at most a few
hundred columns), so a dense tableau is entirely adequate and the
results are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Optional[tuple] = None
    value: Optional[Fraction] = None
    dual: Optional[tuple] = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tab, basis, r, s):
    """Pivot the tableau (list of rows incl. objective row at index -1)."""
    prow = tab[r]
    piv = prow[s]
    inv = _ONE / piv
    tab[r] = [v * inv for v in prow]
    prow = tab[r]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[s]
        if f:
            tab[i] = [a - f * p for a, p in zip(row, prow)]
    basis[r] = s


def _simplex(tab, basis, ncols):
    """Run Bland-rule simplex on tableau with objective in the last row.

    The objective row holds reduced costs; entry [-1] is minus the
    current objective value.  Returns OPTIMAL or UNBOUNDED.
    """
    m = len(tab) - 1
    obj = tab[-1]
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter)
        obj = tab[-1]


def _oriented(A: Sequence[Sequence], b: Sequence):
    """Rows of A and entries of b as Fractions, each row negated where its
    b is negative, so that every right-hand side is nonnegative."""
    rows, rhs = [], []
    for i in range(len(A)):
        row = [Fraction(v) for v in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        rows.append(row)
        rhs.append(bi)
    return rows, rhs


def solve_exact_lp(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Exact rational solve of min c.x s.t. A x = b, x >= 0."""
    m = len(A)
    n = len(c)
    cost = [Fraction(v) for v in c]
    rows, rhs = _oriented(A, b)

    # Phase 1: minimize the sum of artificial variables.
    width = n + m
    tab = []
    for i in range(m):
        art = [_ZERO] * m
        art[i] = _ONE
        tab.append(rows[i] + art + [rhs[i]])
    basis = [n + i for i in range(m)]
    obj = [_ZERO] * (width + 1)
    for i in range(m):
        for j in range(n):
            obj[j] -= tab[i][j]
        obj[-1] -= tab[i][-1]
    tab.append(obj)
    status = _simplex(tab, basis, width)
    if status != OPTIMAL or tab[-1][-1] != 0:
        return LPResult(status=INFEASIBLE)

    # Drive any remaining artificial variables out of the basis.
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            piv_col = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv_col is None:
                drop_rows.append(i)  # redundant constraint
            else:
                _pivot(tab, basis, i, piv_col)
    if drop_rows:
        tab = [row for i, row in enumerate(tab[:-1]) if i not in drop_rows] + [tab[-1]]
        basis = [bv for i, bv in enumerate(basis) if i not in drop_rows]
        rows = [row for i, row in enumerate(rows) if i not in drop_rows]
        rhs = [v for i, v in enumerate(rhs) if i not in drop_rows]
        m = len(basis)

    # Phase 2 objective row over the original columns only.
    tab = [row[:n] + [row[-1]] for row in tab[:-1]]
    obj = [_ZERO] * (n + 1)
    for j in range(n):
        obj[j] = cost[j]
    for i in range(m):
        cb = cost[basis[i]]
        if cb:
            for j in range(n):
                obj[j] -= cb * tab[i][j]
            obj[-1] -= cb * tab[i][-1]
    tab.append(obj)
    status = _simplex(tab, basis, n)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    x = [_ZERO] * n
    for i in range(m):
        x[basis[i]] = tab[i][-1]
    value = -tab[-1][-1]

    dual = _dual_from_basis(cost, rows, basis)
    return LPResult(status=OPTIMAL, x=tuple(x), value=value, dual=dual)


def _dual_from_basis(cost, rows, basis):
    """Dual vector y with B^T y = c_B, from the working (sign-fixed) system."""
    m = len(rows)
    Bt = [[rows[i][basis[j]] for i in range(m)] for j in range(m)]
    cb = [cost[basis[j]] for j in range(m)]
    y = solve_linear_system(Bt, cb)
    return tuple(y) if y is not None else None


def verify_lp_certificate(c, A, b, result: LPResult) -> bool:
    """Exact optimality check: primal feasible, dual feasible, equal objectives.

    Orients the rows as solve_exact_lp does (_oriented) before the dual is
    checked, so pass the original data.
    """
    if not result.optimal or result.dual is None:
        return False
    m, n = len(A), len(c)
    rows, rhs = _oriented(A, b)
    x = result.x
    if any(xi < 0 for xi in x):
        return False
    for i in range(m):
        if sum(rows[i][j] * x[j] for j in range(n)) != rhs[i]:
            return False
    y = result.dual
    if len(y) != m:
        # redundant rows were dropped; fall back to primal-only check
        return sum(Fraction(c[j]) * x[j] for j in range(n)) == result.value
    for j in range(n):
        if sum(rows[i][j] * y[i] for i in range(m)) > Fraction(c[j]):
            return False
    return sum(y[i] * rhs[i] for i in range(m)) == result.value


def feasible_point(A: Sequence[Sequence], b: Sequence) -> Optional[tuple]:
    """Phase-1 only: a point with A x = b, x >= 0, or None."""
    n = len(A[0]) if A else 0
    res = solve_exact_lp([_ZERO] * n, A, b)
    return res.x if res.optimal else None


def solve_linear_system(A: Sequence[Sequence], b: Sequence):
    """Exact solution of a square system; None if singular."""
    R, pivots = row_reduce([list(row) + [rhs] for row, rhs in zip(A, b)])
    if pivots != list(range(len(A))):
        return None
    return [row[-1] for row in R]


def row_reduce(rows: Sequence[Sequence]):
    """Reduced row echelon form of a rational matrix, exact.

    Returns (R, pivots): the nonzero rows of the reduced matrix and the
    column index of each row's leading 1.
    """
    M = [[Fraction(v) for v in row] for row in rows]
    if not M:
        return [], []
    nrows, ncols = len(M), len(M[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = _ONE / M[row][col]
        M[row] = [v * inv for v in M[row]]
        for r in range(nrows):
            if r != row and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * p for a, p in zip(M[r], M[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return M[:row], pivots


def matrix_rank_exact(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix by exact elimination."""
    return len(row_reduce(rows)[1])
