from fractions import Fraction

from diampart.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    feasible_point,
    matrix_rank_exact,
    solve_exact_lp,
    solve_linear_system,
    verify_lp_certificate,
)

F = Fraction


def test_simple_equality_lp():
    # min x + y  s.t.  x + 2y = 4, x, y >= 0  ->  x = 0, y = 2
    res = solve_exact_lp([1, 1], [[1, 2]], [4])
    assert res.optimal
    assert res.value == 2
    assert res.x == (F(0), F(2))


def test_exact_fraction_solution():
    # min 3x + 5y  s.t.  x + y = 1, x - y = 1/3
    res = solve_exact_lp([3, 5], [[1, 1], [1, -1]], [1, F(1, 3)])
    assert res.optimal
    assert res.x == (F(2, 3), F(1, 3))
    assert res.value == F(2) + F(5, 3)


def test_negative_rhs_handled():
    # the row is stated with a negative right-hand side on purpose
    res = solve_exact_lp([1, 0], [[-1, -2]], [-4])
    assert res.optimal
    assert res.value == 0
    assert res.x == (F(0), F(2))


def test_infeasible():
    res = solve_exact_lp([1], [[1], [1]], [1, 2])
    assert res.status == INFEASIBLE
    assert res.x is None


def test_unbounded():
    # min -x  s.t.  x - y = 0 : x can grow without bound
    res = solve_exact_lp([-1, 0], [[1, -1]], [0])
    assert res.status == UNBOUNDED


def test_redundant_rows_ok():
    res = solve_exact_lp([1, 1], [[1, 1], [2, 2]], [1, 2])
    assert res.optimal
    assert res.value == 1


def test_degenerate_does_not_cycle():
    # Classic Beale-style degeneracy, padded with slacks into equality form.
    c = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
    A = [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    res = solve_exact_lp(c, A, b)
    assert res.optimal
    assert res.value == F(-1, 20)


def test_dual_certificate_verifies():
    c = [2, 3, 0]
    A = [[1, 1, 1], [1, 3, 0]]
    b = [4, 6]
    res = solve_exact_lp(c, A, b)
    assert res.optimal
    assert verify_lp_certificate(c, A, b, res)


def test_certificate_rejects_wrong_value():
    c = [1, 1]
    A = [[1, 2]]
    b = [4]
    res = solve_exact_lp(c, A, b)
    bad = type(res)(status=OPTIMAL, x=res.x, value=res.value + 1, dual=res.dual)
    assert not verify_lp_certificate(c, A, b, bad)


def test_feasible_point():
    x = feasible_point([[1, 1]], [1])
    assert x is not None
    assert x[0] + x[1] == 1 and min(x) >= 0
    assert feasible_point([[1], [1]], [1, 2]) is None


def test_linear_system():
    sol = solve_linear_system([[2, 1], [1, 3]], [5, 10])
    assert sol == [F(1), F(3)]
    assert solve_linear_system([[1, 2], [2, 4]], [1, 2]) is None


def test_matrix_rank():
    assert matrix_rank_exact([[1, 0], [0, 1]]) == 2
    assert matrix_rank_exact([[1, 2], [2, 4]]) == 1
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[0, 0]]) == 0
