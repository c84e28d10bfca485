"""Exact solving of the zero-dimensional systems produced by the method.

Each system costs at most two lex Groebner bases (sympy, over the
rationals).  The first, with the first core unknown ordered last, gives
that unknown's eliminant; its irreducible factors without real roots are
dropped, since no real solution lives over them.  Dropping them removes the
positive-dimensional *complex* components that occur on the degenerate
locus of the fractional-linear map whenever the system is built from a
norm-square with nonreal roots.

The second basis adjoins the product of the remaining factors and, when
the caller names a polynomial that must not vanish, the Rabinowitsch
equation u * nonzero - 1, which saturates the ideal by that polynomial
(Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, ch. 4).  The
parameter-map solve passes the chart's determinant of the map (alpha on
the affine chart, -c on the general chart, see phisys), which removes the
degenerate components over real roots as well.  That basis must be
zero-dimensional, otherwise PositiveDimensional is raised.  The other
unknowns' eliminants are read from it as minimal polynomials of
multiplication in the finite-dimensional quotient ring, not from one lex
basis per unknown.

Every eliminant vanishes on all common zeros of the system, so candidate
points are assembled from per-coordinate real roots and validated exactly
against every original equation, which removes the spurious combinations.

Equations may also involve trailing unknowns that appear at most linearly
(the translation part of an isometry does); those are solved per
candidate point by exact linear algebra over the algebraic numbers.
"""

import itertools
from fractions import Fraction

import sympy

from .algnum import evaluate_certified, isolate_real_roots
from .errors import PositiveDimensional, PreconditionViolation
from .mpoly import MultiPoly
from .linalg import gauss_solve
from .phisys import candidate_from_point, scale_factors
from .upoly import UniPoly, factor_rational, poly_gcd


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


def _univariate(basis, var):
    """Generator of the basis's ideal intersected with Q[var], or None."""
    target = sympy.Symbol(var)
    collapsed = UniPoly()
    for g in basis.exprs:
        if g.free_symbols <= {target}:
            coeffs = sympy.Poly(g, target).all_coeffs()
            u = UniPoly([Fraction(c.p, c.q)
                         for c in reversed([sympy.Rational(c) for c in coeffs])])
            collapsed = poly_gcd(collapsed, u)
    if collapsed.is_zero():
        return None
    return collapsed


def _cover(eqs, var, eliminate_vars):
    """Generator of the elimination ideal in var alone, or None.

    Computed from a lex Groebner basis with var ordered last, so the
    result is exact: it vanishes precisely on the closure of the system's
    projection onto the var axis.  None means that projection is not
    finite (the ideal meets the ring of the single variable trivially).
    """
    order = [sympy.Symbol(w) for w in eliminate_vars] + [sympy.Symbol(var)]
    basis = sympy.groebner([sympy_poly(e) for e in eqs], *order, order="lex")
    return _univariate(basis, var)


def _real_rooted_factors(p):
    out = []
    for f, _ in factor_rational(p)[1]:
        if f.degree() == 1:
            out.append(f)
        else:
            seq = f.sturm_sequence()
            b = f.cauchy_bound()
            if f.count_roots(-b, b, seq) > 0:
                out.append(f)
    return out


def _minimal_polynomial(basis, var):
    """Generator of a zero-dimensional ideal intersected with Q[var].

    The normal forms of 1, var, var^2, ... modulo the Groebner basis live
    in the finite-dimensional quotient ring; the first power whose normal
    form depends linearly on the earlier ones gives the monic minimal
    polynomial of multiplication by var, whose roots are exactly the var
    coordinates of the ideal's complex points.
    """
    ring, *gens = sympy.polys.rings.ring(basis.gens, sympy.QQ,
                                         sympy.polys.orderings.lex)
    divisors = [ring.from_dict(p.as_dict()) for p in basis.polys]
    x = gens[basis.gens.index(sympy.Symbol(var))]
    forms = [ring.one.rem(divisors)]
    while True:
        nxt = (forms[-1] * x).rem(divisors)
        monomials = set(nxt.keys()).union(*(f.keys() for f in forms))
        rows = [[_fraction(f.get(m, 0)) for f in forms] for m in monomials]
        solved = gauss_solve(rows, [-_fraction(nxt.get(m, 0))
                                    for m in monomials])
        if solved is not None:
            return UniPoly(list(solved[0]) + [Fraction(1)])
        forms.append(nxt)


def _fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def _solve_core(eqs, core, unknowns, nonzero):
    """Candidate points of the core unknowns, one per real-root combination.

    The cover and the saturated basis described in the module docstring;
    the u of the Rabinowitsch equation is ordered just before the first
    core unknown, which keeps the lex basis cheap.
    """
    if not core:
        return [{}]
    v = core[0]
    others = tuple(w for w in unknowns if w != v)
    cover = _cover(eqs, v, others)
    if cover is None:
        raise PositiveDimensional(
            "no finite projection for unknown %r" % v, variable=v)
    factors = _real_rooted_factors(cover)
    if not factors:
        return []
    real_part = UniPoly([Fraction(1)])
    for f in factors:
        real_part = real_part * f
    space = eqs[0].vars
    gens = [sympy_poly(e) for e in eqs]
    gens.append(sympy_poly(MultiPoly.from_unipoly(space, v, real_part)))
    order = [sympy.Symbol(w) for w in others]
    if nonzero is not None:
        u = sympy.Dummy("u")
        gens.append(u * sympy_poly(nonzero).as_expr() - 1)
        order.append(u)
    order.append(sympy.Symbol(v))
    basis = sympy.groebner(gens, *order, order="lex")
    if basis.exprs == [1]:
        return []
    if not basis.is_zero_dimensional:
        raise PositiveDimensional(
            "the system over the real roots of %r is not finite" % v,
            variable=v)
    roots = [isolate_real_roots(_univariate(basis, v))]
    for w in core[1:]:
        roots.append(isolate_real_roots(_minimal_polynomial(basis, w)))
    return [dict(zip(core, combo)) for combo in itertools.product(*roots)]


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

    vars are solved through one saturated lex Groebner basis and real-root
    isolation; linear_tail unknowns must occur at most linearly (jointly)
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
    return _dedupe_points(out, vars + tail)


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


def _dedupe_points(points, names):
    kept = []
    for p in points:
        if not any(all(p[n] == q[n] for n in names) for q in kept):
            kept.append(p)

    def sort_key(p):
        return tuple(float(p[n]) for n in names)

    kept.sort(key=sort_key)
    return kept


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
            # before scale_factors, which divides by alpha on the affine chart
            if candidate_from_point(system, point, 1).det() == 0:
                continue
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
