"""Exact polynomial arithmetic for generating benchmark inputs.

The benchmark builds its metamorphic variants with this module rather than
with ruledsym, so a change to the library under test cannot change the
inputs it is given.  Univariate rational functions in ``t`` and trivariate
polynomials in ``x, y, z`` have rational coefficients and render to the
text syntax that ruledsym parses.
"""

from fractions import Fraction


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pscale(a, c):
    return _trim(x * c for x in a)


def _pdivmod(a, b):
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] -= c * y
        rem = list(_trim(rem))
    return _trim(quot), tuple(rem)


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pscale(a, 1 / a[-1])


def _render_poly(coeffs, var):
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else "%s^%d" % (var, k)
            body = power if mag == 1 else "%s*%s" % (mag, power)
        parts.append((sign, body))
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


class RatFunc:
    """Reduced quotient num/den of polynomials in t; den is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num, den = _trim(Fraction(c) for c in num), _trim(Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = (Fraction(1),)
        else:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
        lead = den[-1]
        self.num, self.den = _pscale(num, 1 / lead), _pscale(den, 1 / lead)

    @staticmethod
    def _lift(other):
        if isinstance(other, RatFunc):
            return other
        return RatFunc((Fraction(other),))

    def __add__(self, other):
        o = RatFunc._lift(other)
        if self.den == o.den:
            return RatFunc(_padd(self.num, o.num), self.den)
        return RatFunc(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                       _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_pscale(self.num, -1), self.den)

    def __sub__(self, other):
        return self + (-RatFunc._lift(other))

    def __mul__(self, other):
        o = RatFunc._lift(other)
        return RatFunc(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc._lift(other)
        return RatFunc(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __pow__(self, e):
        out = RatFunc((Fraction(1),))
        for _ in range(e):
            out = out * self
        return out

    def is_constant(self):
        return len(self.num) <= 1 and len(self.den) == 1

    def mobius(self, a, b, c, d, degree):
        """f((a t + b)/(c t + d)) * (c t + d)^degree, a rational function."""
        lin_num, lin_den = (Fraction(b), Fraction(a)), _trim((Fraction(d), Fraction(c)))

        def homogenise(poly, top):
            out = ()
            for k, coef in enumerate(poly):
                term = (coef,)
                for _ in range(k):
                    term = _pmul(term, lin_num)
                for _ in range(top - k):
                    term = _pmul(term, lin_den)
                out = _padd(out, term)
            return out

        top = max(len(self.num), len(self.den)) - 1
        num, den = homogenise(self.num, top), homogenise(self.den, top)
        scale = (Fraction(1),)
        for _ in range(degree):
            scale = _pmul(scale, lin_den)
        return RatFunc(_pmul(num, scale), den)

    def render(self, var="t"):
        num = _render_poly(self.num, var)
        if self.den == (Fraction(1),):
            return num
        return "(%s)/(%s)" % (num, _render_poly(self.den, var))


T = RatFunc((Fraction(0), Fraction(1)))


def parse_ratfunc(text):
    """Evaluate a pinned corpus expression in t ('^' is a power)."""
    return RatFunc._lift(eval(text.replace("^", "**"), {"__builtins__": {}},
                              {"t": T}))


class Poly3:
    """Polynomial in x, y, z: a dict from exponent triples to Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {e: Fraction(c) for e, c in terms.items() if c != 0}

    @staticmethod
    def _lift(other):
        if isinstance(other, Poly3):
            return other
        return Poly3({(0, 0, 0): other})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in Poly3._lift(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly3(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly3({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly3._lift(other))

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in Poly3._lift(other).terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        return Poly3(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly3({(0, 0, 0): 1})
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, images):
        """F(images[0], images[1], images[2]) for polynomial images."""
        out = Poly3({})
        for (i, j, k), c in self.terms.items():
            out = out + images[0] ** i * images[1] ** j * images[2] ** k * c
        return out

    def render(self):
        parts = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[e]
            factors = ["%s^%d" % (v, p) if p > 1 else v
                       for v, p in zip("xyz", e) if p]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text


X, Y, Z = (Poly3({e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def parse_poly3(text):
    """Evaluate a pinned polynomial in x, y, z ('^' is a power)."""
    return Poly3._lift(eval(text.replace("^", "**"), {"__builtins__": {}},
                            {"x": X, "y": Y, "z": Z}))
