from fractions import Fraction

from ruledsym import linalg
from ruledsym.linalg import (
    cross,
    det3,
    dot,
    gauss_solve,
    identity3,
    mat_mul,
    mat_vec,
    solve_cross_constant,
    trace,
)
from ruledsym.upoly import UniPoly

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


# ---- (a + w x) x h = 0 for a constant vector x ----

T = UniPoly([0, 1])


def test_cross_constant_unique():
    # a = s h - w x0 with a twisted-cubic h: x0 is the only solution
    h = (UniPoly([1]), T, T * T)
    w = T + 2
    x0 = (F(1), F(-2), F(1, 3))
    a = tuple((T + 1) * hi - w * xi for hi, xi in zip(h, x0))
    sol, kernel = solve_cross_constant(a, w, h)
    assert tuple(sol) == x0
    assert kernel == []


def test_cross_constant_zero_row_rejects_before_elimination(monkeypatch):
    # pair (0, 1) has constant t^3 where both coefficients vanish at t^3
    def unreachable(rows, rhs):
        raise AssertionError("gauss_solve reached")

    monkeypatch.setattr(linalg, "gauss_solve", unreachable)
    h = (UniPoly([1]), T, UniPoly())
    a = (T * T, UniPoly(), UniPoly())
    assert solve_cross_constant(a, UniPoly([1]), h) is None


def test_cross_constant_kernel_on_a_constant_direction():
    # every multiple of a constant h solves x x h = 0, as on a cylinder
    h = (UniPoly([1]), UniPoly([2]), UniPoly([3]))
    zero = UniPoly()
    sol, kernel = solve_cross_constant((zero, zero, zero), UniPoly([1]), h)
    assert sol == [0, 0, 0]
    assert len(kernel) == 1
    assert cross(kernel[0], (1, 2, 3)) == (0, 0, 0)
    # with w = 0 every coefficient row vanishes and any x solves it
    sol, kernel = solve_cross_constant((zero, zero, zero), zero, h)
    assert sol == [0, 0, 0] and len(kernel) == 3
