"""Rotations and reflections of implicit algebraic surfaces.

For an irreducible surface F = 0 of total degree N, every symmetry
x -> Qx + b forces Qx to be a symmetry of the cone cut out by the sum of
the degree-N monomials of F.  Irreducibility over Q is checked first, on
a line: F restricted to a line is irreducible of degree N for almost every
line when F is irreducible, and never when F is not.  The cone passes
through the origin, so its symmetries can be computed with the
ruled-surface machinery once a conical parametrization s*r(t) is found by
slicing with a coordinate plane.  Each orthogonal part Q harvested from
the cone is then lifted back to the full surface: with F = F_N + F_{N-1}
+ ..., the degree-N and degree-(N-1) parts of F(Qx + b) = lambda*F(x) are
linear in (b, lambda) over the number field of Q's entries, so one exact
Gaussian elimination gives the only candidate lift, and exact
substitution of the whole identity certifies it.

The cone always admits the central inversion, so -I is among the lifted
candidates; central symmetries of F = 0 found this way are reported with a
note, since the cone argument alone does not guarantee completeness for
them the way it does for rotations and reflections.
"""

from fractions import Fraction

from .algnum import common_field, sign
from .errors import (
    HeuristicFailure,
    PositiveDimensional,
    PreconditionViolation,
    ZeroInput,
)
from .isometry import Isometry, symmetries, _sort_key, _same_matrix
from .linalg import gauss_solve, identity3
from .mpoly import MultiPoly, project
from .ratfunc import RatFunc
from .report import SymmetryReport, encode_value, encode_vector
from .surface import RuledSurface
from .solver import solve_zero_dim
from .upoly import UniPoly, factor_rational

_XYZ = ("x", "y", "z")
_ZERO = Fraction(0)


class ImplicitSurface:
    """A trivariate polynomial with its total degree."""

    __slots__ = ("F", "N")

    def __init__(self, F):
        if F.is_zero():
            raise ZeroInput("the defining polynomial is identically zero")
        if tuple(F.vars) != _XYZ:
            F = project(F, _XYZ)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "N", F.total_degree())

    def __setattr__(self, *a):
        raise AttributeError("ImplicitSurface is immutable")

    def __repr__(self):
        return "ImplicitSurface(%s)" % self.F.render()


def highest_form(surface):
    """The homogeneous part of top total degree."""
    return _form(surface.F, surface.N)


def _form(F, d):
    """The homogeneous part of F of total degree d."""
    return MultiPoly(F.vars, {e: c for e, c in F.terms.items() if sum(e) == d})


def sympy_poly(e):
    """A rational MultiPoly as a sympy Poly over QQ, from its exponent dict."""
    import sympy

    # from_dict converts the coefficients of the dict it is given in place
    return sympy.Poly.from_dict(dict(e.terms),
                                [sympy.Symbol(v) for v in e.vars], domain="QQ")


# the lines origin + t*direction that sanity_check tries, in order: small
# integer points off the origin, directions with no zero coordinate
_LINES = (((1, 2, 3), (2, -3, 5)), ((-2, 1, 4), (3, 1, -2)),
          ((3, -1, 2), (1, 4, 3)), ((2, 5, -3), (-4, 3, 1)))


def sanity_check(surface):
    """Raise PreconditionViolation unless F is irreducible over Q.

    A line o + t*d certifies irreducibility when F(o + t*d) has degree N
    and is irreducible over Q: its t^N coefficient is F_N(d), so a
    factorisation F = G*H would restrict to factors of degrees deg G and
    deg H, as G_top(d)*H_top(d) = F_N(d) != 0.  By Hilbert's
    irreducibility theorem almost every line certifies an irreducible F
    (Kaltofen, Effective Hilbert irreducibility, Inform. and Control 66,
    1985).  Only when none of the fixed lines certifies does one exact
    factorisation over Q (sympy's multivariate factorisation, Wang's EEZ
    algorithm) decide: it must find exactly one non-constant factor, of
    multiplicity one; the error details list the factors otherwise.
    """
    # a constant F has no factor for a line to certify
    for origin, direction in _LINES if surface.N else ():
        line = surface.F.eval({v: UniPoly([o, d]) for v, o, d
                               in zip(_XYZ, origin, direction)})
        if line.degree() == surface.N:
            _, factors = factor_rational(line)
            if len(factors) == 1 and factors[0][1] == 1:
                return
    _, factors = sympy_poly(surface.F).factor_list()
    if len(factors) != 1 or factors[0][1] != 1:
        raise PreconditionViolation(
            "the polynomial is not irreducible over the rationals",
            factors="; ".join("(%s)^%d" % (f.as_expr(), m)
                              for f, m in factors))


_SECTION_VALUES = (Fraction(1), Fraction(2), Fraction(-1),
                   Fraction(3), Fraction(-2))


def parametrize_highest_form(form, plane=None):
    """A conical parametrization s*r(t) of the cone form = 0, or None.

    Slices the cone with a coordinate plane {v = value}; when the section
    polynomial is linear in one of the two remaining variables, solving
    for it gives a rational section curve whose cone through the origin is
    the surface.  ``plane`` forces a particular (variable, value) slice;
    otherwise coordinate variables and small rational values are tried in
    a fixed order.  Returns None when no tried section is linearly
    solvable -- general curve parametrization is out of scope.
    """
    if form.is_zero():
        raise ZeroInput("the highest-order form is identically zero")
    if plane is not None:
        attempts = [(plane[0], Fraction(plane[1]))]
    else:
        attempts = [(v, c) for v in _XYZ for c in _SECTION_VALUES]
    for var, value in attempts:
        section = form.substitute_values({var: value})
        if section.is_zero() or section.is_constant():
            continue
        rest = [w for w in _XYZ if w != var]
        for solve_var in rest:
            if section.degree_in(solve_var) != 1:
                continue
            other = rest[0] if rest[1] == solve_var else rest[1]
            coeffs = section.as_univar(solve_var)
            lead, const = coeffs[1], coeffs[0]
            if lead.is_zero():
                continue
            a = project(lead, (other,)).to_unipoly(other)
            bpoly = project(const, (other,)).to_unipoly(other)
            solved = RatFunc(-bpoly, a)
            components = {var: RatFunc.const(value),
                          solve_var: solved,
                          other: RatFunc.x()}
            direction = tuple(components[w] for w in _XYZ)
            try:
                cone = RuledSurface((0, 0, 0), direction)
            except ZeroInput:
                continue
            if cone.is_cylindrical():
                continue
            return cone
    return None


def compose_coordinates(F, images):
    """F with every coordinate variable replaced simultaneously.

    ``images`` maps variable names of F to polynomials in F's space; names
    not listed stay untouched.
    """
    total = MultiPoly(F.vars)
    cache = {}

    def power(name, e):
        key = (name, e)
        if key not in cache:
            img = images[name]
            cache[key] = img if e == 1 else power(name, e - 1) * img
        return cache[key]

    for exp, c in F.terms.items():
        term = MultiPoly.const(F.vars, c)
        for i, e in enumerate(exp):
            if not e:
                continue
            name = F.vars[i]
            term = term * (power(name, e) if name in images
                           else MultiPoly.var(F.vars, name, e))
        total = total + term
    return total


def lift_symmetry(surface, q):
    """The (b, lambda) with F(Qx + b) = lambda*F(x), or None.

    Only the two highest forms are matched, by one Gaussian elimination over
    the common field of Q's entries: F_N(Qx) = lambda*F_N(x) fixes lambda
    (+-1, as Q is orthogonal), and sum_k b_k (d_k F_N)(Qx) + F_{N-1}(Qx) =
    lambda*F_{N-1}(x) fixes b.  None means these rows are inconsistent, so Q
    does not extend; substitution_holds checks the lower forms.  The rank is
    below four only when F_N is constant along a direction, which raises
    PreconditionViolation.
    """
    entries = [q[i][j] for i in range(3) for j in range(3)]
    images = _motion_images(_in_common_field(entries) + [_ZERO] * 3)
    top, below = _form(surface.F, surface.N), _form(surface.F, surface.N - 1)
    forms = [top, below] + [_partial(top, k) for k in range(3)]
    top_q, below_q, *grad_q = [compose_coordinates(f, images) for f in forms]
    rows, rhs = [], []
    for m in sorted(set(top.terms).union(top_q.terms)):
        rows.append([_ZERO] * 3 + [top.terms.get(m, _ZERO)])
        rhs.append(top_q.terms.get(m, _ZERO))
    for m in sorted(set(below.terms).union(
            below_q.terms, *(g.terms for g in grad_q))):
        rows.append([g.terms.get(m, _ZERO) for g in grad_q]
                    + [-below.terms.get(m, _ZERO)])
        rhs.append(-below_q.terms.get(m, _ZERO))
    solved = gauss_solve(rows, rhs)
    if solved is None:
        return None
    (b1, b2, b3, lam), kernel = solved
    if kernel:
        raise PreconditionViolation(
            "the highest-order form is constant along a direction, so the "
            "lift's translation is not determined")
    return (b1, b2, b3), lam


def _partial(F, k):
    """The derivative of F in its k-th variable."""
    return MultiPoly(F.vars, {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k]
                              for e, c in F.terms.items() if e[k]})


def _in_common_field(values):
    """The values as elements of their common field (rationals stay so)."""
    field, coords = common_field(values)
    return [c[0] if field is None else field.element(c) for c in coords]


def substitution_residual(surface, q, b, lam):
    """F(Qx+b) - lambda*F as an exact polynomial over (x, y, z).

    Rational values stay Fractions; irrational ones become elements of the
    values' common field, so every coefficient is computed exactly there
    and the residual is zero exactly when the symmetry identity holds.
    """
    values = _in_common_field(
        [q[i][j] for i in range(3) for j in range(3)] + list(b) + [lam])
    return (compose_coordinates(surface.F, _motion_images(values[:12]))
            - MultiPoly.const(_XYZ, values[12]) * surface.F)


def _motion_images(values):
    """The images of x, y, z under x -> Qx + b, as polynomials over
    (x, y, z), from Q's entries (row by row) followed by b."""
    consts = [MultiPoly.const(_XYZ, v) for v in values]
    coords = [MultiPoly.var(_XYZ, w) for w in _XYZ]
    return {w: sum((consts[3 * i + j] * coords[j] for j in range(3)),
                   consts[9 + i])
            for i, w in enumerate(_XYZ)}


def substitution_holds(surface, q, b, lam):
    """Exact check of the defining identity F(Qx+b) = lambda*F."""
    return substitution_residual(surface, q, b, lam).is_zero()


def detect_revolution_axis(cone):
    """Axis directions making the cone a surface of revolution, if any.

    A cone s*q(t) with vertex at the origin is rotationally invariant about
    a unit direction u exactly when the angle between q(t) and u is
    constant, i.e. (q . u)^2 = const * |q|^2 identically in t.  The
    resulting system in u is solved exactly; an empty list means no axis
    (or none detectable as a zero-dimensional system).
    """
    space = ("t", "u1", "u2", "u3", "c2")
    qs = [MultiPoly.from_unipoly(space, "t", qi) for qi in cone.q]
    us = [MultiPoly.var(space, nm) for nm in ("u1", "u2", "u3")]
    c2 = MultiPoly.var(space, "c2")
    msq = MultiPoly.from_unipoly(space, "t", cone.norm_square())
    qdot = qs[0] * us[0] + qs[1] * us[1] + qs[2] * us[2]
    expr = qdot * qdot - c2 * msq
    equations = [coeff for coeff in expr.as_univar("t") if not coeff.is_zero()]
    unit = us[0] * us[0] + us[1] * us[1] + us[2] * us[2] \
        - MultiPoly.const(space, 1)
    equations.append(unit)
    equations = [project(e, ("u1", "u2", "u3", "c2")) for e in equations]
    try:
        points = solve_zero_dim(equations, ("u1", "u2", "u3", "c2"))
    except PositiveDimensional:
        return []
    axes = []
    for point in points:
        u = tuple(point[nm] for nm in ("u1", "u2", "u3"))
        if sign(next(x for x in u if x != 0)) < 0:
            u = tuple(-x for x in u)
        if not any(all(a == b for a, b in zip(u, seen)) for seen in axes):
            axes.append(u)
    return axes


def implicit_pipeline(surface, plane=None):
    """Full report for an implicit surface: cone symmetries lifted to F.

    ``surface`` is an ImplicitSurface, checked to be irreducible over Q
    first; ``plane`` optionally forces the section plane used to
    parametrize the highest-order form.
    """
    sanity_check(surface)
    form = highest_form(surface)
    cone = parametrize_highest_form(form, plane)
    if cone is None:
        raise HeuristicFailure(
            "no coordinate-plane section of the highest-order form is "
            "linearly solvable; supply a parametrization another way")
    section_check = form.eval(
        {"x": cone.q[0], "y": cone.q[1], "z": cone.q[2]})
    if not section_check.is_zero():
        raise PreconditionViolation(
            "conical parametrization does not satisfy the highest-order form")
    notes = [{
        "code": "HIGHEST_FORM_METHOD",
        "message": "symmetries are lifted from the cone of the "
                   "highest-order form: rotations and reflections are "
                   "enumerated completely; the central inversion is lifted "
                   "as a supplement and other improper kinds are reported "
                   "only when a lift verifies exactly",
    }]
    try:
        cone_isometries = symmetries(cone)
    except PositiveDimensional:
        note = {
            "code": "REVOLUTION_SUSPECTED",
            "message": "the cone of the highest-order form has a "
                       "positive-dimensional symmetry family (surface of "
                       "revolution); the infinite plane family is not "
                       "enumerated",
        }
        axes = detect_revolution_axis(cone)
        if axes:
            note["axes"] = [encode_vector(u) for u in axes]
        notes.append(note)
        identity = Isometry(identity3(), (Fraction(0),) * 3, None, None)
        return SymmetryReport(
            _subject(surface, form, cone), "implicit", [identity], notes,
            extras=[{"lambda": encode_value(Fraction(1))}])
    candidates = []
    for iso in cone_isometries:
        if not any(_same_matrix(iso.Q, seen) for seen in candidates):
            candidates.append(iso.Q)
    accepted = []
    for q in candidates:
        lift = lift_symmetry(surface, q)
        if lift is None or not substitution_holds(surface, q, *lift):
            continue
        b, lam = lift
        accepted.append((Isometry(q, b, None, None),
                         {"lambda": encode_value(lam)}))
    accepted.sort(key=lambda pair: _sort_key(pair[0]))
    return SymmetryReport(
        _subject(surface, form, cone), "implicit",
        [iso for iso, _ in accepted], notes,
        extras=[extra for _, extra in accepted])


def _subject(surface, form, cone):
    return {
        "polynomial": surface.F.render(),
        "degree": surface.N,
        "highest_form": form.render(),
        "cone": cone.render(),
    }

