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

with [s^d]H nonzero: f(alpha) on the general chart, since there
H(s) = s^d f(alpha + c/s) = sum_i f^(i)(alpha)/i! c^i s^(d-i), and
lead(f) alpha^d on the affine chart.  The coefficients of s^j, j < d, of
the left side are polynomial equations in the unknowns; the s^d
coefficient vanishes identically.  With f = M, the squared direction norm
(degree exactly 2n, positive on the reals), they are the raw equations:
orthogonality of the matrix part forces M = K den^(2n) M(psi) with
K = k^2, and K follows from the leading coefficients: alpha^(-2n) on the
affine chart, lead(M)/M(alpha) on the other.

On the general chart these are the t-coefficient equations of the same
identity in other generators and coordinates.  The s- and t-coefficients
of one polynomial differ by a unitriangular matrix over Q[delta], and
(alpha, beta, delta) -> (alpha, delta, c) is a triangular automorphism
that fixes alpha, so the ideal, its projection on alpha, its saturation
by the determinant and its real points are those of the t-form; only the
lex Groebner bases the solver computes get cheaper (delta > c > alpha).

Since psi permutes the projective root multiset of M and preserves root
multiplicities, it preserves each square-free multiplicity class of M
separately, and the same formula with f = each (monic) class gives the
class equations.  They cut the solution set down drastically and are
equivalent to the raw equations wherever the map is nondegenerate, so
candidates from the class system are always validated against the raw
system afterwards.
"""

from fractions import Fraction

from .algnum import alg_sqrt, sign
from .errors import PreconditionViolation
from .mpoly import MultiPoly, project
from .ratfunc import homogenized_eval

# the shifted parameter s, then the chart's unknowns in solver order: the
# first is solved through its eliminant, the others lex-ordered before it
AFFINE_VARS = ("s", "alpha", "beta")
GENERAL_VARS = ("s", "alpha", "delta", "c")


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


def psi_parts(space, gamma):
    """alpha, beta, gamma and delta of psi on one chart, over space.

    The one place where the charts differ: on the affine chart beta is an
    unknown and delta the constant 1; on gamma = 1 delta is an unknown and
    beta is c + alpha delta.
    """
    alpha = MultiPoly.var(space, "alpha")
    if gamma:
        delta = MultiPoly.var(space, "delta")
        beta = MultiPoly.var(space, "c") + alpha * delta
    else:
        delta = MultiPoly.const(space, 1)
        beta = MultiPoly.var(space, "beta")
    return alpha, beta, MultiPoly.const(space, gamma), delta


def _invariance_equations(f, num, den, t, unknowns):
    """The s^j coefficients, j < deg f, of lead(f)*H - [s^d]H * F.

    H = den^d f(num/den) and F = f(t) with d = deg f, where num, den and
    t are written in s; see the module docstring.  Both have degree d in s,
    with leading coefficients [s^d]H != 0 and lead(f).
    """
    d = f.degree()
    h = homogenized_eval(f, num, den, d).as_univar("s")
    ft = homogenized_eval(f, t, t ** 0, d).as_univar("s")
    eqs = []
    for j in range(d):
        e = h[j] * f.lead() - h[d] * ft[j]
        if not e.is_zero():
            eqs.append(project(e, unknowns))
    return eqs


def build_system(surface, gamma):
    """The parameter-map system on the chart gamma = 0 (affine) or 1."""
    space = GENERAL_VARS if gamma else AFFINE_VARS
    unknowns = space[1:]
    a, b, g, d = psi_parts(space, gamma)
    # t in the shifted parameter s = t + gamma delta; then psi = num/den
    # is alpha s + beta on the affine chart and (alpha s + c)/s on gamma = 1
    t = MultiPoly.var(space, "s") - g * d
    num, den = a * t + b, g * t + d
    m = surface.norm_square()
    classes = m.squarefree_decomposition()
    class_eqs = []
    for f, _ in classes:
        class_eqs.extend(_invariance_equations(f, num, den, t, unknowns))
    raw = _invariance_equations(m, num, den, t, unknowns)
    return ReparamSystem(gamma, unknowns, class_eqs, raw, classes, m,
                         surface.n, project(a * d - b * g, unknowns))


def build_systems(surface):
    return build_system(surface, 0), build_system(surface, 1)


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
