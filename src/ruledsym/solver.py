"""Exact solving of the zero-dimensional systems produced by the method.

Each system costs one lex Groebner basis over the rationals of its
equations and, when the caller names a polynomial that must not vanish,
the Rabinowitsch equation u * nonzero - 1, which saturates the ideal by
that polynomial (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms,
ch. 4).  The parameter-map solve passes the chart's determinant of the
map (alpha on the affine chart, -c on the general chart, see phisys),
which removes the degenerate components of the fractional-linear map.
The basis comes from the library's own engine (groebner), a Buchberger on
integer coefficients and packed monomials: each equation's exponent
tuples are laid out in the solve order and its denominators cleared, and
the engine packs every monomial into one int, the solve order's first
unknown in the most significant field.  It returns the unique reduced
basis.  A unit basis means no solution.  The basis is zero-dimensional
when every unknown has a pure power among its leading monomials;
otherwise PositiveDimensional is raised.

The points are read from a rational univariate representation
(Rouillier, Solving zero-dimensional systems through the rational
univariate representation, AAECC 1999).  The quotient ring Q[x]/I has
dimension D, the number of standard monomials of the basis.  A linear form
theta = sum_i k^i x_i over every unknown of the basis (u included), for
k = 1, 2, ..., is accepted when the minimal polynomial
of multiplication by theta, read from the normal forms of 1, theta,
theta^2, ..., has degree D.  The engine's reductions are fraction-free,
so each normal form comes as an integer polynomial and the multiplier it
was scaled by; dividing by the multiplier gives the exact normal form.
Then Q[theta] is the whole quotient, so each
unknown is a polynomial h_i(theta) by one linear solve on the same
normal forms (the plain span, not Rouillier's trace formula), and each
real root r of theta's polynomial is exactly one real point
{x_i: h_i(r)}, with all coordinates in r's field.  This holds whether or
not I is radical.

No theta can reach degree D when a point has embedding dimension above
one (x^2 = xy = y^2 = 0 at the origin).  If no k up to
(n - 1) D (D - 1) / 2 + 1 qualifies, the square-free part of each
unknown's minimal polynomial is adjoined, which gives the radical
(Seidenberg's lemma; Cox, Little, O'Shea, Using Algebraic Geometry, ch. 2
section 2), and the basis is computed once more.  On a radical ideal
with D points that many k always suffice: each pair of points agrees on
theta for at most n - 1 values of k.

Every unknown, linear or not, is read from that one representation:
the basis eliminates rational linear equations itself, and the
translation part of a degree-one isometry is just a trailing unknown.
Each point is still certified against the equations by exact
evaluation.
"""

from fractions import Fraction
from math import gcd, lcm

from .algnum import evaluate_certified, first_dependence, isolate_real_roots
from .errors import PositiveDimensional, PreconditionViolation
from .groebner import groebner
from .linalg import gauss_solve
from .mpoly import MultiPoly
from .phisys import candidate_from_point, scale_factors
from .upoly import UniPoly


def _clean(equations):
    """Drop zeros; a nonzero constant marks an empty solution set."""
    eqs = []
    for e in equations:
        if e.is_zero():
            continue
        if e.is_constant():
            return None
        eqs.append(e)
    return eqs


def _integer_terms(e, index):
    """A rational MultiPoly's terms times the least common multiple of its
    denominators, keyed by exponent tuples in the solve order; index maps
    each unknown's name to its position."""
    den = lcm(*(c.denominator for c in e.terms.values()))
    where = [index.get(v) for v in e.vars]
    terms = {}
    for exp, c in e.terms.items():
        monomial = [0] * len(index)
        for i, k in enumerate(exp):
            if k:
                monomial[where[i]] = k
        terms[tuple(monomial)] = c.numerator * (den // c.denominator)
    return terms


class _Quotient:
    """Q[x]/I for a zero-dimensional lex basis, on its standard monomials."""

    def __init__(self, basis):
        self.basis = basis
        self.units = basis.ring.units
        leads = basis.leads()
        start = (0,) * len(self.units)
        standard, stack = {start}, [start]
        while stack:
            m = stack.pop()
            for i in range(len(m)):
                up = m[:i] + (m[i] + 1,) + m[i + 1:]
                if up not in standard and not any(
                        all(a >= b for a, b in zip(up, lead))
                        for lead in leads):
                    standard.add(up)
                    stack.append(up)
        self.index = {basis.ring.pack(m): i
                      for i, m in enumerate(sorted(standard))}

    def vector(self, form, multiplier):
        """Coordinates of the normal form form / multiplier on the
        standard monomials."""
        out = [Fraction(0)] * len(self.index)
        for m, c in form.items():
            out[self.index[m]] = Fraction(c, multiplier)
        return out

    def powers(self, a):
        """Coordinates of a^0, a^1, ..., a^D."""
        out, form, multiplier = [], {0: 1}, 1
        for _ in range(len(self.index) + 1):
            out.append(self.vector(form, multiplier))
            form, m = self.basis.normal_form(form, a)
            common = gcd(m * multiplier, *form.values())
            form = {k: c // common for k, c in form.items()}
            multiplier = m * multiplier // common
        return out

    def univariate_representation(self, positions):
        """theta's minimal polynomial and the h_i with x_i = h_i(theta) for
        the generators at these positions, or None when no linear form
        reaches degree D."""
        n, size = len(self.units), len(self.index)
        for k in range(1, (n - 1) * size * (size - 1) // 2 + 2):
            theta = {x: k ** i for i, x in enumerate(self.units)}
            powers = self.powers(theta)
            minpoly = first_dependence(powers)
            if minpoly.degree() < size:
                continue
            rows = [list(row) for row in zip(*powers[:size])]
            return minpoly, [
                UniPoly(gauss_solve(rows, self.vector(
                    *self.basis.normal_form({self.units[i]: 1})))[0])
                for i in positions]
        return None

    def radical_generators(self):
        """Square-free parts of each generator's minimal polynomial."""
        out = []
        for x in self.units:
            m = first_dependence(self.powers({x: 1}))
            out.append(m // m.gcd(m.derivative()))
        return out


def solve_zero_dim(equations, vars, nonzero=None):
    """All real solutions of a polynomial system with finitely many.

    One saturated lex Groebner basis in vars and its rational univariate
    representation, as in the module docstring; the u of the Rabinowitsch
    equation is ordered just before the first unknown, which keeps the lex
    basis cheap.  nonzero, a polynomial in the same variables, saturates
    the system: components on which it vanishes identically are discarded
    before finiteness is required.  Every point is certified against the
    equations, and the points come sorted by their exact values.
    Returns a list of dicts mapping every unknown to an algebraic number.
    Raises PositiveDimensional when the system cannot be certified finite.
    """
    vars = tuple(vars)
    eqs = _clean(equations)
    if eqs is None:
        return []
    if not eqs:
        if vars:
            raise PositiveDimensional("no constraints on the unknowns")
        return [{}]
    named = set(vars)
    for e in eqs + ([nonzero] if nonzero is not None else []):
        if not e.used_vars() <= named:
            raise PreconditionViolation(
                "unknowns %s are not among the solved ones"
                % sorted(e.used_vars() - named))
    v = vars[0]
    u = "u"
    while u in named:
        u += "_"
    order = vars[1:] + ((u,) if nonzero is not None else ()) + (v,)
    index = {w: i for i, w in enumerate(order)}
    generators = list(eqs)
    if nonzero is not None:
        generators.append(MultiPoly(nonzero.vars + (u,), {
            exp + (1,): c for exp, c in nonzero.terms.items()}) - 1)
    gens = [_integer_terms(e, index) for e in generators]
    positions = [index[w] for w in vars]
    for radical in (False, True):
        basis = groebner(gens, len(order))
        if basis.is_unit():
            return []
        # zero-dimensional: every unknown has a pure power among the
        # leading monomials
        leads = basis.leads()
        if not all(any(sum(m) == m[i] > 0 for m in leads)
                   for i in range(len(order))):
            raise PositiveDimensional("the system is not finite", variable=v)
        quotient = _Quotient(basis)
        rur = quotient.univariate_representation(positions)
        if rur is not None:
            break
        if radical:
            raise PreconditionViolation(
                "no separating linear form on a radical ideal")
        gens = basis.elements() + [
            _integer_terms(MultiPoly.from_unipoly(order, w, p), index)
            for w, p in zip(order, quotient.radical_generators())]
    minpoly, coords = rur
    points = [dict(zip(vars, (h(r) for h in coords)))
              for r in isolate_real_roots(minpoly)]
    # distinct roots of theta give distinct points; Alg and Fraction values
    # compare exactly
    return sorted((p for p in points
                   if all(evaluate_certified(e, p) for e in eqs)),
                  key=lambda p: tuple(p[w] for w in vars))


def solve_parameter_maps(surface, systems):
    """Parameter-map candidates (both charts, both signs of k).

    Each chart's class equations are solved, saturated by the determinant
    of the map.  Every point is then a nondegenerate map, where the class
    equations imply the norm-square law (see phisys), so each point gives
    the two candidates of its scale factors.
    """
    candidates = []
    for system in systems:
        for point in solve_zero_dim(system.class_equations, system.vars,
                                    nonzero=system.determinant):
            for k in scale_factors(system, point):
                candidates.append(candidate_from_point(system, point, k))
    return candidates
