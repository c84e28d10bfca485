from fractions import Fraction

from ruledsym.linalg import (
    cross,
    det3,
    dot,
    gauss_solve,
    identity3,
    mat_mul,
    mat_vec,
    trace,
)

F = Fraction


def test_vector_products():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert cross((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert cross((2, 3, 4), (2, 3, 4)) == (0, 0, 0)


def test_matrix_helpers():
    eye = identity3()
    m = ((F(0), F(1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(1)))
    assert mat_mul(m, tuple(zip(*m))) == eye
    assert mat_vec(m, (F(1), F(2), F(3))) == (2, -1, 3)
    assert det3(m) == 1
    assert trace(eye) == 3


def test_gauss_unique():
    rows = [[F(2), F(1)], [F(1), F(-1)]]
    sol, kernel = gauss_solve(rows, [F(5), F(1)])
    assert sol == [2, 1]
    assert kernel == []


def test_gauss_inconsistent():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    assert gauss_solve(rows, [F(1), F(3)]) is None


def test_gauss_underdetermined():
    rows = [[F(1), F(1), F(0)]]
    sol, kernel = gauss_solve(rows, [F(4)])
    assert sol == [4, 0, 0]
    assert len(kernel) == 2
    for vec in kernel:
        assert sum(a * b for a, b in zip(rows[0], vec)) == 0


def test_gauss_needs_row_swap():
    rows = [[F(0), F(1)], [F(1), F(0)]]
    sol, kernel = gauss_solve(rows, [F(7), F(9)])
    assert sol == [9, 7] and kernel == []
