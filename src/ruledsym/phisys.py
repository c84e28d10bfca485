"""Parameter-space conditions for symmetries of a ruled surface.

A symmetry of a non-cylindrical standard-form surface induces a map of the
line parameter t ↦ (a t + b)/(c t + d) together with a rescaling of the
ruling parameter by k (c t + d)^n, k nonzero, n the direction degree.
Writing M for the squared direction norm (degree exactly 2n, positive on
the reals), orthogonality of the matrix part forces

    M(t) * K * (c t + d)^(2n) * M(psi(t)) ... = M(t)  with  K = k^2,

i.e. M(t) = K * Mhat(t) where Mhat is the degree-2n homogenized
composition of M with psi.  Matching leading coefficients eliminates K
rationally in both branches of the fractional-linear map:

  * affine branch  (c = 0, d = 1):  K = a^(-2n), system
        M(a t + b) - a^(2n) M(t) = 0  coefficientwise, unknowns (a, b);
  * general branch (c = 1):         K = lead(M)/M(a), system
        M(t) M(a) - lead(M) * Mhat(t) = 0, unknowns (a, b, d).

Since psi permutes the projective root multiset of M and preserves root
multiplicities, each square-free multiplicity class of M is preserved
separately.  The per-class conditions (with the class scale factor
cross-multiplied away) cut the solution set down drastically and are
equivalent to the full conditions wherever the map is nondegenerate, so
candidates from the class system are always validated against the raw
system afterwards.
"""

from fractions import Fraction

from .algnum import Alg, alg_sqrt, ensure_alg
from .errors import PreconditionViolation
from .mpoly import MultiPoly, project
from .ratfunc import RatFunc, mobius
from .upoly import UniPoly

AFFINE_VARS = ("t", "alpha", "beta")
GENERAL_VARS = ("t", "alpha", "beta", "delta")


class ReparamCandidate:
    """A solved parameter map: psi plus the ruling rescale factor k."""

    __slots__ = ("gamma", "alpha", "beta", "delta", "k", "n")

    def __init__(self, gamma, alpha, beta, delta, k, n):
        assert gamma in (0, 1)
        self.gamma = gamma
        self.alpha = ensure_alg(alpha)
        self.beta = ensure_alg(beta)
        self.delta = ensure_alg(delta)
        self.k = ensure_alg(k)
        self.n = n

    def det(self):
        return self.alpha * self.delta - self.beta * self.gamma

    def is_identity_map(self):
        return (self.gamma == 0 and self.alpha == 1 and self.beta == 0
                and self.k == 1)

    def psi(self):
        """The fractional-linear map as an exact rational function."""
        a = _plain(self.alpha)
        b = _plain(self.beta)
        d = _plain(self.delta)
        return mobius(a, b, self.gamma, d)

    def psi_of(self, value):
        num = self.alpha * value + self.beta
        den = self.gamma * value + self.delta
        return num / den

    def scale_poly(self):
        """(gamma t + delta)^n as a univariate polynomial."""
        base = UniPoly([_plain(self.delta), Fraction(self.gamma)])
        return base ** self.n

    def key(self):
        return (self.gamma, self.alpha, self.beta, self.delta, self.k)

    def same_map(self, other):
        return (self.gamma == other.gamma and self.alpha == other.alpha
                and self.beta == other.beta and self.delta == other.delta
                and self.k == other.k)

    def __repr__(self):
        return ("ReparamCandidate(gamma=%d, alpha=%r, beta=%r, delta=%r, k=%r)"
                % (self.gamma, self.alpha, self.beta, self.delta, self.k))


def _plain(v):
    """Unwrap rational algebraic numbers to Fractions for polynomial work."""
    v = ensure_alg(v)
    return v.rat if v.rat is not None else v


class ReparamSystem:
    """Polynomial conditions on the parameter map, one fractional-linear branch."""

    __slots__ = ("gamma", "vars", "class_equations", "raw_equations", "classes",
                 "norm_square", "n")

    def __init__(self, gamma, vars, class_equations, raw_equations, classes,
                 norm_square, n):
        self.gamma = gamma
        self.vars = vars
        self.class_equations = class_equations
        self.raw_equations = raw_equations
        self.classes = classes
        self.norm_square = norm_square
        self.n = n

    def all_equations(self):
        return self.class_equations + self.raw_equations

    def unknowns(self):
        return self.vars

    def render(self):
        return {
            "branch": "affine" if self.gamma == 0 else "general",
            "unknowns": list(self.vars),
            "norm_square": self.norm_square.render("t"),
            "classes": [
                {"factor": f.render("t"), "multiplicity": m}
                for f, m in self.classes
            ],
            "class_equations": [e.render() for e in self.class_equations],
            "raw_equations": [e.render() for e in self.raw_equations],
        }


def squarefree_classes(m):
    """Square-free multiplicity classes of the squared direction norm."""
    return m.squarefree_decomposition()


def _compose_affine(p, full_vars):
    """Coefficients in t of p(alpha*t + beta) over the remaining unknowns."""
    t = MultiPoly.var(full_vars, "t")
    a = MultiPoly.var(full_vars, "alpha")
    b = MultiPoly.var(full_vars, "beta")
    arg = a * t + b
    total = MultiPoly(full_vars)
    power = MultiPoly.const(full_vars, 1)
    for c in p.coeffs:
        if c != 0:
            total = total + power * c
        power = power * arg
    return total


def _compose_homogenized(p, full_vars, m):
    """Sum of p_j (alpha t + beta)^j (t + delta)^(m-j) over the unknowns."""
    t = MultiPoly.var(full_vars, "t")
    a = MultiPoly.var(full_vars, "alpha")
    b = MultiPoly.var(full_vars, "beta")
    d = MultiPoly.var(full_vars, "delta")
    num = a * t + b
    den = t + d
    num_pows = [MultiPoly.const(full_vars, 1)]
    den_pows = [MultiPoly.const(full_vars, 1)]
    for _ in range(m):
        num_pows.append(num_pows[-1] * num)
        den_pows.append(den_pows[-1] * den)
    total = MultiPoly(full_vars)
    for j, c in enumerate(p.coeffs):
        if c != 0:
            total = total + (num_pows[j] * den_pows[m - j]) * c
    return total


def _coefficient_equations(poly_in_t, full_vars, out_vars):
    eqs = []
    for coeff in poly_in_t.as_univar("t"):
        if not coeff.is_zero():
            eqs.append(project(coeff, out_vars))
    return eqs


def _class_equations_affine(cls_poly, full_vars, out_vars):
    d = cls_poly.degree()
    composed = _compose_affine(cls_poly, full_vars)
    coeffs = composed.as_univar("t")
    while len(coeffs) < d + 1:
        coeffs.append(MultiPoly(full_vars))
    top = coeffs[d]
    eqs = []
    for j in range(d):
        e = coeffs[j] - top * cls_poly.coeff(j)
        if not e.is_zero():
            eqs.append(project(e, out_vars))
    return eqs


def _class_equations_general(cls_poly, full_vars, out_vars):
    d = cls_poly.degree()
    composed = _compose_homogenized(cls_poly, full_vars, d)
    coeffs = composed.as_univar("t")
    while len(coeffs) < d + 1:
        coeffs.append(MultiPoly(full_vars))
    top = coeffs[d]
    eqs = []
    for j in range(d):
        e = coeffs[j] - top * cls_poly.coeff(j)
        if not e.is_zero():
            eqs.append(project(e, out_vars))
    return eqs


def build_affine_system(surface):
    m = surface.norm_square()
    n = surface.n
    classes = squarefree_classes(m)
    out_vars = ("alpha", "beta")
    class_eqs = []
    for f, _ in classes:
        class_eqs.extend(_class_equations_affine(f, AFFINE_VARS, out_vars))
    composed = _compose_affine(m, AFFINE_VARS)
    m_t = MultiPoly.from_unipoly(AFFINE_VARS, "t", m)
    a_pow = MultiPoly.var(AFFINE_VARS, "alpha", 2 * n)
    raw = _coefficient_equations(composed - a_pow * m_t, AFFINE_VARS, out_vars)
    return ReparamSystem(0, out_vars, class_eqs, raw, classes, m, n)


def build_general_system(surface):
    m = surface.norm_square()
    n = surface.n
    classes = squarefree_classes(m)
    out_vars = ("alpha", "beta", "delta")
    class_eqs = []
    for f, _ in classes:
        class_eqs.extend(_class_equations_general(f, GENERAL_VARS, out_vars))
    mhat = _compose_homogenized(m, GENERAL_VARS, 2 * n)
    m_t = MultiPoly.from_unipoly(GENERAL_VARS, "t", m)
    m_alpha = MultiPoly(GENERAL_VARS)
    for j, c in enumerate(m.coeffs):
        if c != 0:
            m_alpha = m_alpha + MultiPoly.var(GENERAL_VARS, "alpha", j) * c
    raw = _coefficient_equations(m_t * m_alpha - mhat * m.lead(),
                                 GENERAL_VARS, out_vars)
    return ReparamSystem(1, out_vars, class_eqs, raw, classes, m, n)


def build_systems(surface):
    return build_affine_system(surface), build_general_system(surface)


def scale_factors(system, point):
    """Both ruling rescale values k for a solved parameter-map point.

    The squared rescale K is a rational expression of the solution (an
    even power of 1/alpha on the affine branch, lead(M)/M(alpha) on the
    general branch), so k comes out as an exact algebraic square root; on
    the affine branch it is simply +/- alpha^(-n).
    """
    alpha = ensure_alg(point["alpha"])
    if system.gamma == 0:
        k = (alpha ** system.n).inverse()
    else:
        m_alpha = _eval_unipoly_alg(system.norm_square, alpha)
        big_k = ensure_alg(system.norm_square.lead()) / m_alpha
        if big_k.sign() <= 0:
            raise PreconditionViolation(
                "the squared direction norm is not positive at alpha")
        k = alg_sqrt(big_k)
    return k, -k


def _eval_unipoly_alg(p, x):
    total = Alg.rational(0)
    for c in reversed(p.coeffs):
        total = total * x + c
    return total


def candidate_from_point(system, point, k):
    if system.gamma == 0:
        return ReparamCandidate(0, point["alpha"], point["beta"], Fraction(1),
                                k, system.n)
    return ReparamCandidate(1, point["alpha"], point["beta"], point["delta"],
                            k, system.n)
