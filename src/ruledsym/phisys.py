"""Parameter-space conditions for symmetries of a ruled surface.

A symmetry of a non-cylindrical standard-form surface induces a map of the
line parameter psi(t) = (alpha t + beta)/(gamma t + delta) together with a
rescaling of the ruling parameter by k (gamma t + delta)^n, k nonzero, n
the direction degree.  Two charts cover every such map:

* the affine chart gamma = 0, delta = 1: psi(t) = alpha t + beta, with
  unknowns (alpha, beta);
* the general chart gamma = 1: psi(t) = alpha + c/s with s = t + delta
  and c = beta - alpha delta, with unknowns (alpha, delta, c).  The
  determinant of the map is -c, so c != 0 is exactly nondegeneracy.

Write s = t + gamma delta for the shifted parameter (s = t on the affine
chart) and den for the denominator of psi in s (1 or s).  For a
polynomial f of degree d, H(s) = den^d f(psi) is a nonzero constant
multiple of f exactly when

    lead(f) * H(s) - [s^d]H * F(s) = 0,   F(s) = f(s - gamma delta),

with [s^d]H nonzero.  Its s^j coefficients, j < d, are the equations.  With
the Taylor coefficients T_i(x) = f^(i)(x)/i! = sum_k C(k, i) f_k x^(k-i)
they are, in closed form,

    general chart:  e_j = lead(f) c^(d-j) T_(d-j)(alpha) - f(alpha) T_j(-delta),
    affine chart:   e_j = lead(f) (alpha^j T_j(beta) - alpha^d f_j),

as F(s) = sum_j T_j(-gamma delta) s^j, H(s) = sum_i T_i(alpha) c^i s^(d-i)
on the general chart and H(s) = sum_j T_j(beta) alpha^j s^j on the other.

On the general chart these are the t-coefficient equations of the same
identity in other generators and coordinates.  The s- and t-coefficients
of one polynomial differ by a unitriangular matrix over Q[delta], and
(alpha, beta, delta) -> (alpha, delta, c) is a triangular automorphism
that fixes alpha, so the ideal, its projection on alpha, its saturation
by the determinant and its real points are those of the t-form; only the
lex Groebner bases the solver computes get cheaper (delta > c > alpha).

Orthogonality of the matrix part forces M = K den^(2n) M(psi), K = k^2,
for the squared direction norm M (degree 2n, positive on the reals).  As
psi preserves the projective roots of M with their multiplicities, it
preserves each square-free multiplicity class f of M, and the e_j of
every monic class form the system.  At a nondegenerate map (the solver
saturates by the determinant) they imply the identity for M: each class
block says H_f = kappa_f F_f with kappa_f = [s^d]H_f / lead(f), which is
nonzero as f(psi) is not zero, and M = lead(M) prod f^m gives H_M =
lead(M) prod H_f^m = (prod kappa_f^m) F_M.  K follows from the leading
coefficients: alpha^(-2n) on the affine chart, lead(M)/M(alpha) on the
other.
"""

from fractions import Fraction
from math import comb

from .algnum import alg_sqrt, sign
from .errors import PreconditionViolation
from .mpoly import MultiPoly

# the chart's unknowns in solver order: the first is the lex-smallest, the
# others are lex-ordered before it
AFFINE_VARS = ("alpha", "beta")
GENERAL_VARS = ("alpha", "delta", "c")


class ReparamCandidate:
    """A solved parameter map: psi plus the ruling rescale factor k."""

    __slots__ = ("gamma", "alpha", "beta", "delta", "k", "n")

    def __init__(self, gamma, alpha, beta, delta, k, n):
        if gamma not in (0, 1):
            raise PreconditionViolation(
                "gamma must be 0 or 1, not %r" % (gamma,))
        self.gamma = gamma
        self.alpha = alpha
        self.beta = beta
        self.delta = delta
        self.k = k
        self.n = n

    def det(self):
        return self.alpha * self.delta - self.beta * self.gamma

    def __repr__(self):
        return ("ReparamCandidate(gamma=%d, alpha=%r, beta=%r, delta=%r, k=%r)"
                % (self.gamma, self.alpha, self.beta, self.delta, self.k))


class ReparamSystem:
    """Polynomial conditions on the parameter map on one chart."""

    __slots__ = ("gamma", "vars", "class_equations", "norm_square", "n",
                 "determinant")

    def __init__(self, gamma, vars, class_equations, norm_square, n,
                 determinant):
        self.gamma = gamma
        self.vars = vars
        self.class_equations = class_equations
        self.norm_square = norm_square
        self.n = n
        self.determinant = determinant


def psi_parts(space, gamma):
    """alpha, beta, gamma and delta of psi on one chart, over space.

    The degree-one path builds its equations from these: on the affine
    chart beta is an unknown and delta the constant 1; on gamma = 1 delta
    is an unknown and beta is c + alpha delta.
    """
    alpha = MultiPoly.var(space, "alpha")
    if gamma:
        delta = MultiPoly.var(space, "delta")
        beta = MultiPoly.var(space, "c") + alpha * delta
    else:
        delta = MultiPoly.const(space, 1)
        beta = MultiPoly.var(space, "beta")
    return alpha, beta, MultiPoly.const(space, gamma), delta


def _taylor(f, i):
    """T_i = f^(i)/i! as its coefficient list, x^0 first."""
    return [comb(k, i) * f.coeffs[k] for k in range(i, len(f.coeffs))]


def _class_equations(f, gamma):
    """The e_j, j < deg f, of the module docstring on one chart; none is
    zero, as the k = d term lead(f)^2 C(d, j) alpha^j c^(d-j) (or
    beta^(d-j)) of e_j is not."""
    d, lead = f.degree(), f.lead()
    vars = GENERAL_VARS if gamma else AFFINE_VARS
    eqs = []
    for j in range(d):
        terms = {}
        if gamma:
            # lead(f) c^(d-j) T_(d-j)(alpha) - f(alpha) T_j(-delta)
            for a, t in enumerate(_taylor(f, d - j)):
                terms[(a, 0, d - j)] = lead * t
            for b, t in enumerate(_taylor(f, j)):
                t = t if b % 2 else -t
                for a, fa in enumerate(f.coeffs):
                    terms[(a, b, 0)] = fa * t
        else:
            # lead(f) (alpha^j T_j(beta) - alpha^d f_j)
            for b, t in enumerate(_taylor(f, j)):
                terms[(j, b)] = lead * t
            terms[(d, 0)] = -lead * f.coeffs[j]
        eqs.append(MultiPoly(vars, terms))
    return eqs


def _chart_system(gamma, m, classes, n):
    """The system on one chart from the squared direction norm m and its
    square-free decomposition."""
    vars = GENERAL_VARS if gamma else AFFINE_VARS
    class_eqs = []
    for f, _ in classes:
        class_eqs.extend(_class_equations(f, gamma))
    determinant = (-MultiPoly.var(vars, "c") if gamma
                   else MultiPoly.var(vars, "alpha"))
    return ReparamSystem(gamma, vars, class_eqs, m, n, determinant)


def build_system(surface, gamma):
    """The parameter-map system on the chart gamma = 0 (affine) or 1."""
    m = surface.norm_square()
    return _chart_system(gamma, m, m.squarefree_decomposition(), surface.n)


def build_systems(surface):
    """Both charts' systems, from one squared norm and its decomposition."""
    m = surface.norm_square()
    classes = m.squarefree_decomposition()
    return (_chart_system(0, m, classes, surface.n),
            _chart_system(1, m, classes, surface.n))


def scale_factors(system, point):
    """Both ruling rescale values k for a solved parameter-map point.

    The squared rescale K is a rational expression of the solution (an
    even power of 1/alpha on the affine branch, lead(M)/M(alpha) on the
    general branch), so k comes out as an exact algebraic square root; on
    the affine branch it is simply +/- alpha^(-n).
    """
    alpha = point["alpha"]
    if system.gamma == 0:
        k = 1 / alpha ** system.n
    else:
        big_k = system.norm_square.lead() / system.norm_square(alpha)
        if sign(big_k) <= 0:
            raise PreconditionViolation(
                "the squared direction norm is not positive at alpha")
        k = alg_sqrt(big_k)
    return k, -k


def map_from_point(gamma, point):
    """alpha, beta and delta of psi at a solved point of one chart.

    On gamma = 1 the point carries c, and beta = c + alpha delta as in
    psi_parts.
    """
    if not gamma:
        return point["alpha"], point["beta"], Fraction(1)
    alpha, delta = point["alpha"], point["delta"]
    return alpha, alpha * delta + point["c"], delta


def candidate_from_point(system, point, k):
    return ReparamCandidate(system.gamma, *map_from_point(system.gamma, point),
                            k, system.n)
