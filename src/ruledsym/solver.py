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
theta = sum_i k^i x_i over every unknown of the basis (u and the linear
tail included), for k = 1, 2, ..., is accepted when the minimal polynomial
of multiplication by theta, read from the normal forms of 1, theta,
theta^2, ..., has degree D.  Then Q[theta] is the whole quotient, so each
core unknown is a polynomial h_i(theta) by one linear solve on the same
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

Every point is still certified against the original equations, which
also covers the values eliminated by linear substitution and the
trailing unknowns that appear at most linearly (the translation part of
an isometry does); those are solved per point by exact linear algebra
over the algebraic numbers.
"""

from fractions import Fraction

import sympy

from .algnum import evaluate_certified, first_dependence, isolate_real_roots
from .errors import PositiveDimensional, PreconditionViolation
from .mpoly import MultiPoly
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


def _solve_core(eqs, core, unknowns, nonzero):
    """Real points of the core unknowns, each once.

    The saturated basis and the rational univariate representation
    described in the module docstring; the u of the Rabinowitsch equation
    is ordered just before the first core unknown, which keeps the lex
    basis cheap.
    """
    if not core:
        return [{}]
    v = core[0]
    order = [sympy.Symbol(w) for w in unknowns if w != v]
    gens = [sympy_poly(e) for e in eqs]
    if nonzero is not None:
        u = sympy.Dummy("u")
        gens.append(u * sympy_poly(nonzero).as_expr() - 1)
        order.append(u)
    order.append(sympy.Symbol(v))
    positions = [order.index(sympy.Symbol(w)) for w in core]
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
    return [{w: h(r) for w, h in zip(core, coords)}
            for r in isolate_real_roots(minpoly)]


def _linear_substitutions(eqs, preferred):
    """Repeatedly solve total-degree-1 equations with rational coefficients."""
    subs = {}
    changed = True
    while changed:
        changed = False
        for e in eqs:
            if e.is_zero() or e.total_degree() != 1:
                continue
            if not all(isinstance(c, Fraction) for c in e.terms.values()):
                continue
            target = None
            for name in preferred:
                if name in subs:
                    continue
                if e.degree_in(name) == 1:
                    target = name
                    break
            if target is None:
                continue
            i = e.vars.index(target)
            coeff = Fraction(0)
            rest = {}
            for exp, c in e.terms.items():
                if exp[i] == 1:
                    coeff = c
                else:
                    rest[exp] = c
            expr = MultiPoly(e.vars, rest) * (-1 / coeff)
            new_eqs = []
            for other in eqs:
                g = other.substitute_poly(target, expr)
                if not g.is_zero():
                    new_eqs.append(g)
            for name in list(subs):
                subs[name] = subs[name].substitute_poly(target, expr)
            subs[target] = expr
            eqs = new_eqs
            changed = True
            break
    return eqs, subs


def solve_zero_dim(equations, vars, linear_tail=(), nonzero=None):
    """All real solutions of a polynomial system with finitely many.

    vars are solved through one saturated lex Groebner basis and its
    rational univariate representation; linear_tail unknowns must occur at most linearly (jointly)
    and are solved per point by exact elimination.  nonzero, a polynomial
    in the same variables, saturates the system: components on which it
    vanishes identically are discarded before finiteness is required.
    Returns a list of dicts mapping every unknown to an algebraic number.
    Raises PositiveDimensional when the system cannot be certified finite.
    """
    vars = tuple(vars)
    tail = tuple(linear_tail)
    original = [e for e in equations if not e.is_zero()]
    eqs = _clean(original)
    if eqs is None:
        return []
    if not eqs:
        if vars or tail:
            raise PositiveDimensional("no constraints on the unknowns")
        return [{}]
    eqs, subs = _linear_substitutions(eqs, tail + tuple(reversed(vars)))
    eqs2 = _clean(eqs)
    if eqs2 is None:
        return []
    eqs = eqs2
    if nonzero is not None:
        for name, expr in subs.items():
            nonzero = nonzero.substitute_poly(name, expr)
        if nonzero.is_zero():
            return []
        if nonzero.is_constant():
            nonzero = None
    core = tuple(v for v in vars if v not in subs)
    tail_rem = tuple(v for v in tail if v not in subs)
    unknowns = core + tail_rem
    if eqs:
        core_points = _solve_core(eqs, core, unknowns, nonzero)
    else:
        if unknowns:
            raise PositiveDimensional("all constraints eliminated")
        core_points = [{}]
    out = []
    for cp in core_points:
        full = dict(cp)
        ok = True
        if tail_rem:
            solved = _solve_tail(eqs, cp, tail_rem)
            if solved is None:
                ok = False
            else:
                full.update(solved)
        else:
            for e in eqs:
                leftover = e.used_vars() - set(full)
                if leftover:
                    raise PositiveDimensional(
                        "unconstrained unknowns %s" % sorted(leftover))
        if not ok:
            continue
        for name in reversed(list(subs)):
            full[name] = subs[name].eval(full)
        if all(evaluate_certified(e, full) for e in original):
            out.append(full)
    # distinct roots of theta give distinct points; Alg and Fraction values
    # compare exactly
    names = vars + tail
    return sorted(out, key=lambda p: tuple(p[n] for n in names))


def _solve_tail(eqs, core_point, tail_vars):
    rows, rhs = [], []
    for e in eqs:
        res = e.substitute_values({k: v for k, v in core_point.items()
                                   if k in e.used_vars()})
        idx = [res.vars.index(b) for b in tail_vars]
        row = {b: Fraction(0) for b in tail_vars}
        const = Fraction(0)
        for exp, c in res.terms.items():
            tail_deg = sum(exp[i] for i in idx)
            if tail_deg > 1:
                raise PreconditionViolation(
                    "tail unknowns %s are not linear" % (tail_vars,))
            if tail_deg == 0:
                const = const + c
            else:
                b = tail_vars[next(j for j, i in enumerate(idx) if exp[i] == 1)]
                row[b] = row[b] + c
        if all(v == 0 for v in row.values()):
            if const == 0:
                continue
            return None
        rows.append([row[b] for b in tail_vars])
        rhs.append(-const)
    if not rows:
        raise PositiveDimensional("translation unknowns are unconstrained")
    solved = gauss_solve(rows, rhs)
    if solved is None:
        return None
    particular, kernel = solved
    if kernel:
        raise PositiveDimensional("translation unknowns underdetermined")
    return dict(zip(tail_vars, particular))


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
    unique = []
    for c in candidates:
        if not any(c.same_map(u) for u in unique):
            unique.append(c)
    return unique
