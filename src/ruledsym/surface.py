"""Rational ruled surfaces in standard form x(t, s) = p(t) + s * q(t).

The direction q is normalised on construction: denominators are cleared
with the monic lcm, then the polynomial gcd and the rational content of
the numerators are divided out.  This makes the direction a primitive
polynomial triple, which guarantees that the squared direction norm is a
strictly positive polynomial of degree exactly twice the direction degree
-- facts the solving stages rely on.  The base curve is kept as given and,
once, as polynomials over its common denominator, the form in which the
isometry stages substitute the parameter maps.
"""

from fractions import Fraction

from .errors import ParseError, ZeroDirection
from .linalg import cross, gauss_solve
from .parser import parse_ratfunc
from .ratfunc import _as_ratfunc
from .upoly import UniPoly, frac_gcd, poly_gcd, poly_lcm


class RuledSurface:
    """Standard-form ruled surface with exact rational coefficient data.

    ``base_den`` is the monic common denominator D of the base curve,
    ``base_nums`` the numerators N_i = D * p_i and ``base_degree`` the
    largest degree among D and the N_i.
    """

    __slots__ = ("p", "q", "n", "base_den", "base_nums", "base_degree")

    def __init__(self, p, q):
        p = tuple(_as_ratfunc(c) for c in p)
        if len(p) != 3 or any(c is None for c in p):
            raise ParseError("base curve must have three rational components")
        q_in = tuple(_as_ratfunc(c) for c in q)
        if len(q_in) != 3 or any(c is None for c in q_in):
            raise ParseError("direction curve must have three rational components")
        if all(c.is_zero() for c in q_in):
            raise ZeroDirection("direction curve is identically zero")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", _normalize_direction(q_in))
        object.__setattr__(self, "n", max(c.degree() for c in self.q))
        den, nums = _clear_denominators(p)
        object.__setattr__(self, "base_den", den)
        object.__setattr__(self, "base_nums", tuple(nums))
        object.__setattr__(self, "base_degree",
                           max(f.degree() for f in (den,) + self.base_nums))

    def __setattr__(self, *a):
        raise AttributeError("RuledSurface is immutable")

    def norm_square(self):
        """Squared norm of the direction: positive on the reals, degree 2n."""
        q1, q2, q3 = self.q
        return q1 * q1 + q2 * q2 + q3 * q3

    def is_cylindrical(self):
        """True when all rulings are parallel (degree zero included)."""
        dq = tuple(c.derivative() for c in self.q)
        return all(c.is_zero() for c in cross(self.q, dq))

    def conical_vertex(self):
        """Vertex through which every ruling passes, or None.

        Solves (p(t) - v) x q(t) = 0 for a constant point v by coefficient
        matching.  For a non-cylindrical direction the vertex is unique
        when it exists.
        """
        pairs = ((1, 2), (2, 0), (0, 1))
        rows, rhs = [], []
        for i, j in pairs:
            lhs = self.p[i] * self.q[j] - self.p[j] * self.q[i]
            if not lhs.is_polynomial():
                return None
            lhs_poly = lhs.as_unipoly()
            # v_i * q_j - v_j * q_i = lhs, coefficient by coefficient
            deg = max(lhs_poly.degree(), self.q[i].degree(), self.q[j].degree())
            for k in range(deg + 1):
                coeff_row = [Fraction(0)] * 3
                coeff_row[i] = self.q[j].coeff(k)
                coeff_row[j] = -self.q[i].coeff(k)
                rows.append(coeff_row)
                rhs.append(lhs_poly.coeff(k))
        solved = gauss_solve(rows, rhs)
        if solved is None:
            return None
        particular, _ = solved
        return tuple(particular)

    def point(self, t, s):
        """Exact surface point x(t, s); raises at a pole of the base curve."""
        return tuple(c(t) + s * d(t) for c, d in zip(self.p, self.q))

    def base_is_constant(self):
        return all(c.is_constant() for c in self.p)

    def render(self, var="t"):
        return {
            "p": [c.render(var) for c in self.p],
            "q": [c.render(var) for c in self.q],
        }

    def __repr__(self):
        r = self.render()
        return "RuledSurface(p=%s, q=%s)" % (r["p"], r["q"])


def _clear_denominators(comps):
    """The monic lcm D of the denominators and the numerators D * c."""
    common = UniPoly([1])
    for c in comps:
        common = poly_lcm(common, c.den)
    return common, [c.num * (common // c.den) for c in comps]


def _normalize_direction(q_in):
    _, polys = _clear_denominators(q_in)
    g = poly_gcd(poly_gcd(polys[0], polys[1]), polys[2])
    if g.degree() > 0:
        polys = [p // g for p in polys]
    content = Fraction(0)
    for p in polys:
        for c in p.coeffs:
            content = frac_gcd(content, c)
    if content not in (0, 1):
        inv = 1 / content
        polys = [p.scale(inv) for p in polys]
    return tuple(polys)


def surface_from_json(obj):
    """Build a surface from {"p": [expr, expr, expr], "q": [...]}."""
    if not isinstance(obj, dict):
        raise ParseError("surface input must be a JSON object")
    var = obj.get("var", "t")
    missing = [k for k in ("p", "q") if k not in obj]
    if missing:
        raise ParseError("surface input lacks required key(s): %s"
                         % ", ".join(missing))
    for key in ("p", "q"):
        comp = obj[key]
        if not isinstance(comp, list) or len(comp) != 3:
            raise ParseError("%r must be a list of three expressions" % key)
    p = [parse_ratfunc(e, var) for e in obj["p"]]
    q = [parse_ratfunc(e, var) for e in obj["q"]]
    return RuledSurface(p, q)
