"""Univariate rational functions with exact coefficients.

Stored as numerator/denominator pairs with a monic denominator.  When all
coefficients are rational the pair is reduced to lowest terms; with
algebraic-number coefficients reduction is skipped and equality falls back
to cross-multiplication, which keeps identity checks exact without needing
gcds over number fields.
"""

from fractions import Fraction

from .errors import PreconditionViolation, ZeroInput
from .upoly import UniPoly, rational_homogenized_eval


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = UniPoly.const(1)
        if den.is_zero():
            raise ZeroInput("zero denominator")
        if num.is_zero():
            num, den = UniPoly(), UniPoly.const(1)
        else:
            if num.is_rational() and den.is_rational():
                g = num.gcd(den)
                if g.degree() > 0:
                    num = num // g
                    den = den // g
            lead = den.lead()
            if lead != 1:
                inv = 1 / lead
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def const(cls, c):
        return cls(UniPoly.const(c))

    @classmethod
    def x(cls):
        return cls(UniPoly.x())

    @classmethod
    def from_unipoly(cls, p):
        return cls(p)

    # ---- queries ----

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree() == 0

    def as_unipoly(self):
        if not self.is_polynomial():
            raise PreconditionViolation("the rational function is not a "
                                        "polynomial")
        return self.num

    def is_constant(self):
        return self.num.degree() <= 0 and self.den.degree() == 0

    def const_value(self):
        if not self.is_constant():
            raise PreconditionViolation("the rational function is not "
                                        "constant")
        return self.num.const_value()

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    # ---- arithmetic ----

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e):
        if not isinstance(e, int):
            raise ValueError("exponent must be an integer")
        if e < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-e), self.num ** (-e))
        return RatFunc(self.num ** e, self.den ** e)

    # ---- evaluation ----

    def __call__(self, value):
        dv = self.den(value)
        if dv == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(value) / dv

    def render(self, var="t"):
        top = self.num.render(var)
        if self.is_polynomial():
            return top
        bottom = self.den.render(var)
        return "(%s)/(%s)" % (top, bottom)

    def __repr__(self):
        return "RatFunc(%s)" % self.render()


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, UniPoly):
        return RatFunc(x)
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x)
    return None


def homogenized_eval(p, num, den, m):
    """Sum of p_i * num^i * den^(m-i): the value den^m * p(num/den).

    num and den are UniPolys or MultiPolys of one variable space; the
    result is of their kind.  A homogeneous Horner scheme: with d = deg p,
    acc = acc * num + p_i * den^(d-i) from the top coefficient down, then
    one factor den^(m-d).  Rational UniPolys run it on integers.
    """
    d = p.degree()
    if m < d:
        raise PreconditionViolation(
            "homogenisation degree %d is below the degree %d" % (m, d))
    if (isinstance(num, UniPoly) and p.is_rational() and num.is_rational()
            and den.is_rational()):
        return rational_homogenized_eval(p, num, den, m)
    one = den ** 0
    if d < 0:
        return one * 0
    acc = one * p.coeffs[d]
    den_pow = one
    for c in reversed(p.coeffs[:d]):
        den_pow = den_pow * den
        acc = acc * num
        if c != 0:
            acc = acc + den_pow * c
    return acc * den ** (m - d) if m > d else acc


def mobius(a, b, c, d):
    """The fractional-linear map (a t + b) / (c t + d)."""
    if a * d - c * b == 0:
        raise ZeroInput("degenerate fractional-linear map")
    return RatFunc(UniPoly([b, a]), UniPoly([d, c]))
