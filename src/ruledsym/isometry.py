"""Recovery of rigid motions from validated parameter maps.

Each admissible reparametrization (a fractional-linear map with its
ruling rescale) pins down the candidate motions x -> Q x + b almost
completely: the orthogonal part must intertwine the direction curve with
its reparametrized image, which is a linear condition on the rows of Q,
and the translation part then satisfies linear conditions obtained from
the base curve once the unknown ruling shift is eliminated pairwise.
One loop in ``symmetries`` turns every candidate into motions, whether
the candidate comes from the parameter-map solver or, for a direction
curve of degree one, from the coupled system of that case.  Everything
stays exact; candidates that fail any of the resulting identities are
discarded, and the survivors are certified by direct substitution into
both defining identities before being classified geometrically.
"""

import math
from fractions import Fraction
from itertools import product

from .algnum import Alg, alg_sqrt, sign
from .errors import (
    CylindricalInput,
    NotAnIsometry,
    PositiveDimensional,
    PreconditionViolation,
)
from .linalg import (
    cross,
    det3,
    dot,
    gauss_solve,
    identity3,
    mat_inv3,
    mat_mul,
    mat_vec,
    solve_cross_constant,
    trace,
)
from .mpoly import MultiPoly
from .phisys import ReparamCandidate, build_systems, map_from_point, psi_parts
from .ratfunc import RatFunc, homogenized_eval
from .solver import solve_parameter_maps, solve_zero_dim
from .upoly import UniPoly

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the rigid-motion record


class Isometry:
    """An exact rigid motion x -> Q x + b with its parameter-space data."""

    __slots__ = ("Q", "b", "c", "candidate", "kind", "geometry")

    def __init__(self, Q, b, c, candidate):
        self.Q = tuple(tuple(row) for row in Q)
        self.b = tuple(b)
        self.c = c
        self.candidate = candidate
        self.kind, self.geometry = classify(self.Q, self.b)

    def apply(self, x):
        return tuple(v + w for v, w in zip(mat_vec(self.Q, x), self.b))

    def same_motion(self, other):
        return (all(a == b for ra, rb in zip(self.Q, other.Q)
                    for a, b in zip(ra, rb))
                and all(a == b for a, b in zip(self.b, other.b)))

    def is_involution(self):
        """Whether applying the motion twice gives the identity."""
        # Q^2 = I with Q b + b != 0 is a translation, screw or glide, which
        # classify refuses to build, so Q alone decides
        return _same_matrix(mat_mul(self.Q, self.Q), identity3())

    def __repr__(self):
        return "Isometry(%s)" % self.kind


def compose(f, g):
    """The motion applying g first and f second, without parameter data."""
    q = mat_mul(f.Q, g.Q)
    b = tuple(v + w for v, w in zip(mat_vec(f.Q, g.b), f.b))
    return Isometry(q, b, None, None)


def filter_involutions(isometries):
    return [f for f in isometries if f.is_involution()]


# ---------------------------------------------------------------------------
# orthogonal part


def _is_orthogonal(q):
    for i in range(3):
        for j in range(i, 3):
            want = _ONE if i == j else _ZERO
            if dot(q[i], q[j]) != want:
                return False
    return True


class PsiImages:
    """The curves of a surface under one candidate map psi = num/den.

    Each image is homogenised to a polynomial: hq_i = den^n q_i(psi),
    hd = den^m D(psi) and hn_i = den^m N_i(psi), where D and N_i are the
    base curve's common denominator and numerators and m is their degree
    (``RuledSurface.base_den``, ``base_nums``, ``base_degree``).  The
    stages after the parameter-map solve share one instance per candidate.
    """

    __slots__ = ("surface", "candidate", "den", "hq", "hd", "hn", "w")

    def __init__(self, surface, candidate):
        num = UniPoly([candidate.beta, candidate.alpha])
        den = UniPoly([candidate.delta, candidate.gamma])
        m = surface.base_degree
        self.surface = surface
        self.candidate = candidate
        self.den = den
        self.hq = [homogenized_eval(f, num, den, surface.n) for f in surface.q]
        self.hd = homogenized_eval(surface.base_den, num, den, m)
        self.hn = [homogenized_eval(f, num, den, m) for f in surface.base_nums]
        # W = D * HD, the coefficient of the translation in the base identity
        self.w = surface.base_den * self.hd

    def base_gaps(self, q):
        """G_i = (Q N)_i * HD - HN_i * D for an orthogonal part Q.

        G_i / W = (Q p)_i - p_i(psi): the base identity without the
        translation and the ruling shift.
        """
        nums, den = self.surface.base_nums, self.surface.base_den
        gaps = []
        for i in range(3):
            ahat = UniPoly()
            for j in range(3):
                ahat = ahat + nums[j] * q[i][j]
            gaps.append(ahat * self.hd - self.hn[i] * den)
        return gaps


def solve_q_matrices(images):
    """All orthogonal matrices intertwining the direction curve with its
    reparametrized image; empty when none exists.

    The coefficient matrix of the direction components usually has full
    column rank and determines each row of Q uniquely.  With rank two (a
    linearly dependent component) every row gains one free parameter,
    fixed up to finitely many choices by the unit-row conditions; the
    orthogonality filter afterwards is exact either way.
    """
    surface = images.surface
    n = surface.n
    coeff_rows = [[q.coeff(j) for q in surface.q] for j in range(n + 1)]
    k = images.candidate.k
    particulars, kernel = [], None
    for hq in images.hq:
        image = hq * k
        rhs = [image.coeff(j) for j in range(n + 1)]
        solved = gauss_solve([list(r) for r in coeff_rows], rhs)
        if solved is None:
            return []
        particulars.append(solved[0])
        kernel = solved[1]
    if not kernel:
        q = tuple(tuple(row) for row in particulars)
        return [q] if _is_orthogonal(q) else []
    if len(kernel) != 1:
        raise PreconditionViolation(
            "direction components span a line; cylindrical input should "
            "have been rejected earlier")
    w = kernel[0]
    ww = dot(w, w)
    per_row = []
    for part in particulars:
        # |part + s w|^2 = 1, one quadratic per row
        lin = 2 * dot(part, w)
        const = dot(part, part) - 1
        disc = lin * lin - 4 * ww * const
        if sign(disc) < 0:
            return []
        root = alg_sqrt(disc)
        scale = 1 / (2 * ww)
        choices = [(-lin + root) * scale]
        if root != 0:
            choices.append((-lin - root) * scale)
        per_row.append(choices)
    out = []
    for combo in product(*per_row):
        q = tuple(
            tuple(part[j] + s * w[j] for j in range(3))
            for part, s in zip(particulars, combo)
        )
        if _is_orthogonal(q) and not any(_same_matrix(q, o) for o in out):
            out.append(q)
    return out


def _same_matrix(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# ---------------------------------------------------------------------------
# translation part and ruling shift


_PAIRS = ((0, 1), (1, 2), (0, 2))


def solve_translation(images, gaps):
    """The unique translation vector for this orthogonal part, or None.

    ``gaps`` are ``images.base_gaps(q)``.  The base identity says that
    G + b W is parallel to q(psi): (G + b W) x Hq = 0, matched coefficient
    by coefficient over the three component pairs.  The solution is unique
    for non-cylindrical surfaces, and it makes every pair identity hold.
    """
    solved = solve_cross_constant(gaps, images.w, images.hq)
    if solved is None:
        return None
    particular, kernel = solved
    if kernel:
        raise PreconditionViolation(
            "translation underdetermined for a non-cylindrical surface")
    return tuple(particular)


def recover_ruling_shift(images, gaps, b):
    """The ruling shift c(t) for the translation b from
    ``solve_translation``, which matches every component pair, so the pivot
    component alone gives it; ``gaps`` are ``images.base_gaps(q)``."""
    w_poly, hq = images.w, images.hq
    pivot = next((i for i in range(3) if not hq[i].is_zero()), None)
    if pivot is None:
        raise PreconditionViolation("the direction curve is identically zero")
    scale = images.den ** images.surface.n
    return RatFunc((gaps[pivot] + w_poly * b[pivot]) * scale,
                   w_poly * hq[pivot])


def verify_symmetry(surface, candidate, q, b, c):
    """Certify both defining identities by direct substitution.

    The images are recomputed from the candidate, so the certificate
    depends on nothing the earlier stages computed.
    """
    images = PsiImages(surface, candidate)
    k = candidate.k
    for i in range(3):
        lhs = UniPoly()
        for j in range(3):
            lhs = lhs + surface.q[j] * q[i][j]
        if lhs != images.hq[i] * k:
            return False
    d_poly, n_polys = surface.base_den, surface.base_nums
    hd = images.hd
    scale = images.den ** surface.n
    for i in range(3):
        lhs_num = UniPoly()
        for j in range(3):
            lhs_num = lhs_num + n_polys[j] * q[i][j]
        lhs_num = lhs_num + d_poly * b[i]
        # (lhs_num / D) == HN_i/HD + c * Hq_i / scale
        left = lhs_num * hd * scale * c.den
        right = (images.hn[i] * scale * c.den
                 + c.num * images.hq[i] * hd) * d_poly
        if left != right:
            return False
    return True


# ---------------------------------------------------------------------------
# geometric classification


def _canonical_direction(v):
    if not any(isinstance(x, Alg) for x in v):
        denom = math.lcm(*(f.denominator for f in v))
        ints = [int(f * denom) for f in v]
        g = math.gcd(*ints)
        if g:
            ints = [i // g for i in ints]
        lead = next((i for i in ints if i != 0), None)
        if lead is not None and lead < 0:
            ints = [-i for i in ints]
        return tuple(Fraction(i) for i in ints)
    inv = 1 / next(x for x in v if x != 0)
    return tuple(x * inv for x in v)


def _rotation_axis(q, eigenvalue):
    """Kernel direction of Q - eigenvalue*I, canonicalized."""
    shifted = tuple(
        tuple(q[i][j] - (eigenvalue if i == j else 0) for j in range(3))
        for i in range(3)
    )
    solved = gauss_solve([list(r) for r in shifted], [_ZERO, _ZERO, _ZERO])
    if solved is None:
        raise PreconditionViolation(
            "the homogeneous system for the rotation axis is inconsistent")
    _, kernel = solved
    if len(kernel) != 1:
        return None
    return _canonical_direction(kernel[0])


def _sin_from(q, axis, cos):
    u = (
        q[2][1] - q[1][2],
        q[0][2] - q[2][0],
        q[1][0] - q[0][1],
    )
    magnitude = alg_sqrt(1 - cos * cos)
    if sign(dot(u, axis)) < 0:
        return -magnitude
    return magnitude


def _fixed_point(q, b, border):
    """The unique x with (I - Q) x = b, or None.  A row ``border`` adds
    border . x = 0, which picks a rotation axis's point in the plane
    through the origin orthogonal to it."""
    rows = [
        [(_ONE if i == j else _ZERO) - q[i][j] for j in range(3)]
        for i in range(3)
    ]
    rhs = list(b)
    if border is not None:
        rows.append(list(border))
        rhs.append(_ZERO)
    solved = gauss_solve(rows, rhs)
    if solved is None:
        return None
    point, kernel = solved
    return None if kernel else tuple(point)


def classify(q, b):
    """Name the motion and extract its exact geometric elements.

    A translation, screw motion or glide reflection has infinite order.  A
    ruling family invariant under one is invariant under the translations
    in the Zariski closure of the group it generates, so the surface is
    cylindrical, and cylinders are rejected before any motion is
    classified; these kinds raise NotAnIsometry.
    """
    q = tuple(tuple(x if isinstance(x, Alg) else Fraction(x) for x in row)
              for row in q)
    b = tuple(x if isinstance(x, Alg) else Fraction(x) for x in b)
    d = det3(q)
    ident = identity3()
    if d == 1:
        if _same_matrix(q, ident):
            if all(x == 0 for x in b):
                return "identity", {}
            raise NotAnIsometry("a translation has infinite order")
        cos = (trace(q) - 1) / 2
        axis = _rotation_axis(q, 1)
        if axis is None:
            raise NotAnIsometry("rotation without a fixed axis direction")
        point = _fixed_point(q, b, axis)
        if point is None:
            raise NotAnIsometry("a screw motion has infinite order")
        geometry = {
            "axis_direction": axis,
            "axis_point": point,
            "cos_angle": cos,
            "sin_angle": _sin_from(q, axis, cos),
        }
        if cos == -1:
            return "axial_rotation", geometry
        return "rotation", geometry
    if d == -1:
        minus = tuple(tuple(-x for x in row) for row in q)
        if _same_matrix(minus, ident):
            return "central_inversion", {"center": tuple(x / 2 for x in b)}
        if trace(q) == 1:
            normal = _rotation_axis(q, -1)
            solved = gauss_solve(
                [[(_ONE if i == j else _ZERO) - q[i][j] for j in range(3)]
                 for i in range(3)],
                list(b))
            if solved is None:
                raise NotAnIsometry("a glide reflection has infinite order")
            anchor, _ = solved
            offset = dot(normal, anchor)
            nn = dot(normal, normal)
            return "reflection", {
                "plane_normal": normal,
                "plane_offset": offset,
                "plane_point": tuple(x * offset / nn for x in normal),
            }
        cos = (trace(q) + 1) / 2
        axis = _rotation_axis(q, -1)
        if axis is None:
            raise NotAnIsometry("improper rotation without an axis")
        point = _fixed_point(q, b, None)
        if point is None:
            raise NotAnIsometry("improper rotation without a fixed point")
        return "rotoreflection", {
            "axis_direction": axis,
            "axis_point": point,
            "cos_angle": cos,
            "sin_angle": _sin_from(q, axis, cos),
        }
    raise NotAnIsometry("determinant is not a unit")


# ---------------------------------------------------------------------------
# full pipelines


_KIND_RANK = {
    "identity": 0,
    "reflection": 1,
    "axial_rotation": 2,
    "rotation": 3,
    "rotoreflection": 4,
    "central_inversion": 5,
}


def _sort_key(iso):
    # Fraction and Alg values compare exactly
    return (_KIND_RANK[iso.kind], [x for row in iso.Q for x in row],
            list(iso.b))


def _finish(isometries):
    unique = []
    for iso in isometries:
        if not any(iso.same_motion(u) for u in unique):
            unique.append(iso)
    unique.sort(key=_sort_key)
    return unique


def symmetries(surface):
    """All Euclidean symmetries of a rational ruled surface in standard
    form, computed exactly in parameter space.

    Raises CylindricalInput for cylindrical direction curves and
    PositiveDimensional when the candidate systems fail to be finite.
    """
    if surface.is_cylindrical():
        raise CylindricalInput(
            "direction curve is constant up to scaling; the symmetry "
            "group is not determined by the parameter-space method")
    if surface.n <= 1:
        candidates = _linear_direction_candidates(surface)
    else:
        candidates = solve_parameter_maps(surface, build_systems(surface))
    vertex = (tuple(c.const_value() for c in surface.p)
              if surface.base_is_constant() else None)
    found = []
    for cand in candidates:
        images = PsiImages(surface, cand)
        for q in solve_q_matrices(images):
            if vertex is not None:
                b = tuple(v - w for v, w in zip(vertex, mat_vec(q, vertex)))
                c = RatFunc(UniPoly())
            else:
                gaps = images.base_gaps(q)
                b = solve_translation(images, gaps)
                if b is None:
                    continue
                c = recover_ruling_shift(images, gaps, b)
            if not verify_symmetry(surface, cand, q, b, c):
                continue
            found.append(Isometry(q, b, c, cand))
    return _finish(found)


# ---------------------------------------------------------------------------
# degree-one direction curves (every component linear)

_LINEAR_VARS = ("t", "alpha", "beta", "delta", "c", "k", "b1", "b2", "b3")


def _linear_direction_candidates(surface):
    """Parameter-map candidates for direction curves of degree one.

    The multiplicity-class machinery degenerates (two points on the
    projective line admit a continuum of fractional-linear self-maps), so
    the full coupled system in the map, the rescale, the orthogonal part
    and the translation is solved instead, on both charts and for both
    signs of det Q.  The orthogonal part is expressed through the images of
    the direction frame u, v, u x v, which the direction identity
    determines linearly in the unknowns.  Only the map and the rescale of
    each point are kept: ``symmetries`` recovers the motions from them as
    it does for every other surface, and the translation it solves for is
    the point's, being unique on a non-cylindrical surface.
    """
    u = tuple(q.coeff(0) for q in surface.q)
    v = tuple(q.coeff(1) for q in surface.q)
    normal = cross(u, v)
    frame_inv = mat_inv3(tuple(
        (u[i], v[i], normal[i]) for i in range(3)
    ))
    candidates = []
    for gamma in (0, 1):
        unknowns = ("alpha", "beta", "k") if gamma == 0 \
            else ("alpha", "delta", "c", "k")
        unknowns += ("b1", "b2", "b3")
        for eps in (1, -1):
            eqs = _linear_direction_equations(
                surface, gamma, eps, u, v, normal, frame_inv)
            # the map's determinant (alpha or -c) and k must not vanish
            nonzero = MultiPoly.var(_LINEAR_VARS, "alpha" if gamma == 0
                                    else "c") * MultiPoly.var(_LINEAR_VARS, "k")
            try:
                points = solve_zero_dim(eqs, unknowns, nonzero=nonzero)
            except PositiveDimensional:
                raise PositiveDimensional(
                    "the coupled symmetry system for a degree-one "
                    "direction curve is not finite", branch=gamma)
            candidates.extend(
                ReparamCandidate(gamma, *map_from_point(gamma, point),
                                 point["k"], 1)
                for point in points)
    return candidates


def _linear_direction_equations(surface, gamma, eps, u, v, normal, frame_inv):
    vars = _LINEAR_VARS
    d_poly, n_polys, m = surface.base_den, surface.base_nums, surface.base_degree
    alpha, beta, gamma_poly, delta = psi_parts(vars, gamma)
    k = MultiPoly.var(vars, "k")
    # q(psi) (gamma t + delta) = (delta u + beta v) + t (gamma u + alpha v)
    img_u = [k * (delta * u[i] + beta * v[i]) for i in range(3)]
    img_v = [k * (gamma_poly * u[i] + alpha * v[i]) for i in range(3)]
    scale_det = k * k * (alpha * delta - beta * gamma_poly)
    img_n = [scale_det * (eps * normal[i]) for i in range(3)]
    q_sym = [
        [
            img_u[i] * frame_inv[0][j] + img_v[i] * frame_inv[1][j]
            + img_n[i] * frame_inv[2][j]
            for j in range(3)
        ]
        for i in range(3)
    ]
    eqs = []
    for a in range(3):
        for bb in range(a, 3):
            acc = MultiPoly(vars)
            for i in range(3):
                acc = acc + q_sym[i][a] * q_sym[i][bb]
            eqs.append(acc - (1 if a == bb else 0))
    # base-curve pair conditions with the ruling shift eliminated
    t_var = MultiPoly.var(vars, "t")
    num_lin = alpha * t_var + beta
    den_lin = gamma_poly * t_var + delta
    hq = [
        MultiPoly.const(vars, u[i]) * den_lin
        + MultiPoly.const(vars, v[i]) * num_lin
        for i in range(3)
    ]
    hd = homogenized_eval(d_poly, num_lin, den_lin, m)
    hn = [homogenized_eval(nu, num_lin, den_lin, m) for nu in n_polys]
    d_t = MultiPoly.from_unipoly(vars, "t", d_poly)
    n_t = [MultiPoly.from_unipoly(vars, "t", nu) for nu in n_polys]
    w_poly = d_t * hd
    b_names = ("b1", "b2", "b3")
    g_polys = []
    for i in range(3):
        ahat = MultiPoly(vars)
        for j in range(3):
            ahat = ahat + q_sym[i][j] * n_t[j]
        g_polys.append(ahat * hd - hn[i] * d_t)
    for i, j in _PAIRS:
        b_i = MultiPoly.var(vars, b_names[i])
        b_j = MultiPoly.var(vars, b_names[j])
        expr = (
            (g_polys[i] + b_i * w_poly) * hq[j]
            - (g_polys[j] + b_j * w_poly) * hq[i]
        )
        eqs.extend(c for c in expr.as_univar("t") if not c.is_zero())
    return eqs
