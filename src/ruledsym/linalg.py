"""Small exact linear-algebra helpers over any exact field.

Entries may be Fractions or algebraic numbers (or polynomials for the
vector products); arithmetic coerces as needed, so callers can mix them.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def identity3():
    return (
        (_ONE, _ZERO, _ZERO),
        (_ZERO, _ONE, _ZERO),
        (_ZERO, _ZERO, _ONE),
    )


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def trace(m):
    return m[0][0] + m[1][1] + m[2][2]


def mat_inv3(m):
    """Exact inverse via the adjugate; raises ZeroDivisionError if singular."""
    d = det3(m)
    cof = tuple(
        tuple(
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        )
        for i in range(3)
    )
    return tuple(tuple(cof[j][i] / d for j in range(3)) for i in range(3))


def solve_cross_constant(a, w, h):
    """Solve (a + w x) x h = 0 for a constant vector x.

    ``a`` and ``h`` are triples of polynomials and ``w`` is a polynomial.
    Component pair (i, j) of the cross product reads
        x_i (w h_j) - x_j (w h_i) = a_j h_i - a_i h_j,
    and matching coefficients over the three pairs gives a linear system in
    x.  Returns ``gauss_solve``'s answer, or None as soon as a coefficient
    row vanishes with a nonzero constant.
    """
    rows, rhs = [], []
    for i, j in ((0, 1), (1, 2), (0, 2)):
        constant = a[i] * h[j] - a[j] * h[i]
        coeff_i = w * h[j]
        coeff_j = w * h[i]
        top = max(constant.degree(), coeff_i.degree(), coeff_j.degree())
        for d in range(top + 1):
            row = [_ZERO, _ZERO, _ZERO]
            row[i] = coeff_i.coeff(d)
            row[j] = -coeff_j.coeff(d)
            if all(x == 0 for x in row):
                if constant.coeff(d) != 0:
                    return None
                continue
            rows.append(row)
            rhs.append(-constant.coeff(d))
    if not rows:
        # every coefficient vanishes: any x solves the system
        return [_ZERO] * 3, [list(r) for r in identity3()]
    return gauss_solve(rows, rhs)


def gauss_solve(rows, rhs):
    """Solve a linear system exactly.

    Returns (particular_solution, kernel_basis) with free variables set to
    zero, or None when the system is inconsistent.  Row entries may be any
    exact field elements supporting +, -, *, / and comparison with zero.
    """
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not m:
        return [], []
    ncols = len(m[0]) - 1
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [e / pv for e in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    for i in range(row, len(m)):
        if m[i][ncols] != 0:
            return None
    particular = [_ZERO] * ncols
    for r, col in enumerate(pivots):
        particular[col] = m[r][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for r, col in enumerate(pivots):
            vec[col] = -m[r][fc]
        kernel.append(vec)
    return particular, kernel
