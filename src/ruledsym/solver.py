"""Exact solving of the zero-dimensional systems produced by the method.

Each system costs one lex Groebner basis (sympy, over the rationals) of
its equations and, when the caller names a polynomial that must not
vanish, the Rabinowitsch equation u * nonzero - 1, which saturates the
ideal by that polynomial (Cox, Little, O'Shea, Ideals, Varieties, and
Algorithms, ch. 4).  The parameter-map solve passes the chart's
determinant of the map (alpha on the affine chart, -c on the general
chart, see phisys), which removes the degenerate components of the
fractional-linear map.  A unit basis means no solution; a basis that is
not zero-dimensional raises PositiveDimensional.

The points are read from a rational univariate representation
(Rouillier, Solving zero-dimensional systems through the rational
univariate representation, AAECC 1999).  The quotient ring Q[x]/I has
dimension D, the number of standard monomials of the basis.  A linear form
theta = sum_i k^i x_i over every unknown of the basis (u included), for
k = 1, 2, ..., is accepted when the minimal polynomial
of multiplication by theta, read from the normal forms of 1, theta,
theta^2, ..., has degree D.  Then Q[theta] is the whole quotient, so each
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
sympy's basis eliminates rational linear equations itself, and the
translation part of a degree-one isometry is just a trailing unknown.
Each point is still certified against the equations by exact
evaluation.
"""

from fractions import Fraction

import sympy

from .algnum import evaluate_certified, first_dependence, isolate_real_roots
from .errors import PositiveDimensional, PreconditionViolation
from .linalg import gauss_solve
from .phisys import candidate_from_point, scale_factors
from .upoly import UniPoly


def sympy_poly(e):
    """A rational MultiPoly as a sympy Poly over QQ, from its exponent dict."""
    # from_dict converts the coefficients of the dict it is given in place
    return sympy.Poly.from_dict(dict(e.terms),
                                [sympy.Symbol(v) for v in e.vars], domain="QQ")


def _clean(equations):
    """Normalise, drop zeros; a nonzero constant marks an empty solution set."""
    eqs = []
    for e in equations:
        if e.is_zero():
            continue
        if e.is_constant():
            return None
        eqs.append(e.normalized())
    return eqs


class _Quotient:
    """Q[x]/I for a zero-dimensional lex basis, on its standard monomials."""

    def __init__(self, basis):
        self.symbols = basis.gens
        ring, *self.gens = sympy.polys.rings.ring(
            basis.gens, sympy.QQ, sympy.polys.orderings.lex)
        self.one = ring.one
        self.divisors = [ring.from_dict(p.as_dict()) for p in basis.polys]
        leads = [g.LM for g in self.divisors]
        start = (0,) * len(self.gens)
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
        self.index = {m: i for i, m in enumerate(sorted(standard))}

    def vector(self, form):
        """Coordinates of a normal form on the standard monomials."""
        out = [Fraction(0)] * len(self.index)
        for m, c in form.items():
            out[self.index[m]] = Fraction(int(c.numerator), int(c.denominator))
        return out

    def powers(self, a):
        """Coordinates of a^0, a^1, ..., a^D."""
        out, form = [], self.one
        for _ in range(len(self.index) + 1):
            out.append(self.vector(form))
            form = (form * a).rem(self.divisors)
        return out

    def univariate_representation(self, positions):
        """theta's minimal polynomial and the h_i with x_i = h_i(theta) for
        the generators at these positions, or None when no linear form
        reaches degree D."""
        n, size = len(self.gens), len(self.index)
        for k in range(1, (n - 1) * size * (size - 1) // 2 + 2):
            theta = sum(k ** i * x for i, x in enumerate(self.gens))
            powers = self.powers(theta)
            minpoly = first_dependence(powers)
            if minpoly.degree() < size:
                continue
            rows = [list(row) for row in zip(*powers[:size])]
            return minpoly, [
                UniPoly(gauss_solve(
                    rows, self.vector(self.gens[i].rem(self.divisors)))[0])
                for i in positions]
        return None

    def radical_generators(self):
        """Square-free parts of each generator's minimal polynomial."""
        out = []
        for sym, x in zip(self.symbols, self.gens):
            m = first_dependence(self.powers(x))
            sqf = m // m.gcd(m.derivative())
            out.append(sum(sympy.Rational(c.numerator, c.denominator) * sym ** i
                           for i, c in enumerate(sqf.coeffs)))
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
    order = [sympy.Symbol(w) for w in vars[1:]]
    gens = [sympy_poly(e) for e in eqs]
    if nonzero is not None:
        u = sympy.Dummy("u")
        gens.append(u * sympy_poly(nonzero).as_expr() - 1)
        order.append(u)
    order.append(sympy.Symbol(v))
    positions = [order.index(sympy.Symbol(w)) for w in vars]
    for radical in (False, True):
        basis = sympy.groebner(gens, *order, order="lex")
        if basis.exprs == [1]:
            return []
        if not basis.is_zero_dimensional:
            raise PositiveDimensional("the system is not finite", variable=v)
        quotient = _Quotient(basis)
        rur = quotient.univariate_representation(positions)
        if rur is not None:
            break
        if radical:
            raise PreconditionViolation(
                "no separating linear form on a radical ideal")
        gens = basis.exprs + quotient.radical_generators()
    minpoly, coords = rur
    points = [dict(zip(vars, (h(r) for h in coords)))
              for r in isolate_real_roots(minpoly)]
    # distinct roots of theta give distinct points; Alg and Fraction values
    # compare exactly
    return sorted((p for p in points
                   if all(evaluate_certified(e, p) for e in eqs)),
                  key=lambda p: tuple(p[w] for w in vars))


def solve_parameter_maps(surface, systems):
    """Validated parameter-map candidates (both branches, both signs of k).

    The per-class equations already carve out the solution set wherever
    the fractional-linear map is invertible (the norm-square law follows
    from them by comparing leading coefficients), so only they are solved;
    every candidate point is then checked against the full coefficient
    system before being admitted.
    """
    candidates = []
    for system in systems:
        points = solve_zero_dim(system.class_equations, system.vars,
                                nonzero=system.determinant)
        for point in points:
            if not all(evaluate_certified(r, point)
                       for r in system.raw_equations):
                continue
            for k in scale_factors(system, point):
                candidates.append(candidate_from_point(system, point, k))
    return candidates
