"""Parameter-space conditions for symmetries of a ruled surface.

A symmetry of a non-cylindrical standard-form surface induces a map of the
line parameter psi(t) = (alpha t + beta)/(gamma t + delta) together with a
rescaling of the ruling parameter by k (gamma t + delta)^n, k nonzero, n
the direction degree.  Two charts cover every such map: the affine chart
gamma = 0, delta = 1, with unknowns (alpha, beta), and the chart gamma = 1
with unknowns (alpha, beta, delta).  Write den for the denominator of psi
on the chart, t + delta or 1.

Orthogonality of the matrix part forces the squared direction norm M
(degree exactly 2n, positive on the reals) to satisfy
M = K den^(2n) M(psi) with K = k^2.  More generally, for a polynomial f
of degree d, H = den^d f(psi) is a nonzero constant multiple of f
exactly when

    lead(f) * H - [t^d]H * f = 0

with [t^d]H, the coefficient of t^d in H, nonzero.  The coefficients of
t^j, j < d, of the left side are polynomial equations in the unknowns;
the t^d coefficient vanishes identically.  With f = M they are the raw
equations, and K follows from the leading coefficients: alpha^(-2n) on
the affine chart, lead(M)/M(alpha) on the other.

Since psi permutes the projective root multiset of M and preserves root
multiplicities, it preserves each square-free multiplicity class of M
separately, and the same formula with f = each (monic) class gives the
class equations.  They cut the solution set down drastically and are
equivalent to the raw equations wherever the map is nondegenerate, so
candidates from the class system are always validated against the raw
system afterwards.
"""

from .algnum import Alg, alg_sqrt, ensure_alg
from .errors import PreconditionViolation
from .mpoly import MultiPoly, project
from .ratfunc import homogenized_eval

GENERAL_VARS = ("t", "alpha", "beta", "delta")


class ReparamCandidate:
    """A solved parameter map: psi plus the ruling rescale factor k."""

    __slots__ = ("gamma", "alpha", "beta", "delta", "k", "n")

    def __init__(self, gamma, alpha, beta, delta, k, n):
        if gamma not in (0, 1):
            raise PreconditionViolation(
                "gamma must be 0 or 1, not %r" % (gamma,))
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
    """Polynomial conditions on the parameter map on one chart."""

    __slots__ = ("gamma", "vars", "class_equations", "raw_equations", "classes",
                 "norm_square", "n", "determinant")

    def __init__(self, gamma, vars, class_equations, raw_equations, classes,
                 norm_square, n, determinant):
        self.gamma = gamma
        self.vars = vars
        self.class_equations = class_equations
        self.raw_equations = raw_equations
        self.classes = classes
        self.norm_square = norm_square
        self.n = n
        self.determinant = determinant

    def unknowns(self):
        return self.vars


def squarefree_classes(m):
    """Square-free multiplicity classes of the squared direction norm."""
    return m.squarefree_decomposition()


def psi_parts(space, gamma):
    """alpha, beta, gamma and delta of psi on one chart, over space.

    The one place where the charts differ: delta is an unknown when
    gamma = 1 and the constant 1 on the affine chart.
    """
    if gamma:
        delta = MultiPoly.var(space, "delta")
    else:
        delta = MultiPoly.const(space, 1)
    return (MultiPoly.var(space, "alpha"), MultiPoly.var(space, "beta"),
            MultiPoly.const(space, gamma), delta)


def _invariance_equations(f, num, den, unknowns):
    """The t^j coefficients, j < deg f, of lead(f)*H - [t^d]H * f.

    H = den^d f(num/den) with d = deg f; see the module docstring.
    """
    d = f.degree()
    coeffs = homogenized_eval(f, num, den, d).as_univar("t")
    coeffs += [num * 0] * (d + 1 - len(coeffs))
    eqs = []
    for j in range(d):
        e = coeffs[j] * f.lead() - coeffs[d] * f.coeff(j)
        if not e.is_zero():
            eqs.append(project(e, unknowns))
    return eqs


def build_system(surface, gamma):
    """The parameter-map system on the chart gamma = 0 (affine) or 1."""
    space = GENERAL_VARS[:3 + gamma]
    unknowns = space[1:]
    a, b, c, d = psi_parts(space, gamma)
    t = MultiPoly.var(space, "t")
    num, den = a * t + b, c * t + d
    m = surface.norm_square()
    classes = squarefree_classes(m)
    class_eqs = []
    for f, _ in classes:
        class_eqs.extend(_invariance_equations(f, num, den, unknowns))
    raw = _invariance_equations(m, num, den, unknowns)
    return ReparamSystem(gamma, unknowns, class_eqs, raw, classes, m,
                         surface.n, project(a * d - b * c, unknowns))


def build_affine_system(surface):
    return build_system(surface, 0)


def build_general_system(surface):
    return build_system(surface, 1)


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
    return ReparamCandidate(system.gamma, point["alpha"], point["beta"],
                            point.get("delta", 1), k, system.n)
