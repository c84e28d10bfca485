"""Exact real algebraic numbers.

A value is either a rational (stored as a Fraction) or a root of a monic
irreducible rational polynomial pinned down by an isolating interval with
rational endpoints.  Because the minimal polynomial of an irrational value
has degree at least two, rational interval endpoints are never roots, so
bisection refinement never stalls.

Arithmetic on two irrational values goes through bivariate resultants:
the sum a+b is a root of res_y(A(y), B(x-y)) and the product of
res_y(A(y), y^m B(x/y)); the resulting polynomial is factored over the
rationals and the correct irreducible factor is selected by shrinking the
operands' isolating intervals until exactly one candidate root survives.
Operations with a rational operand use direct minimal-polynomial
transformations instead and are cheap.

The module also provides certified zero tests for polynomial expressions
at algebraic points (interval arithmetic first, exact arithmetic as a
last resort) and real-root isolation for rational univariate polynomials.
"""

import math
from fractions import Fraction

from .errors import PrecisionBudgetExceeded, PreconditionViolation, ZeroInput
from .mpoly import MultiPoly, resultant as _mp_resultant
from .upoly import UniPoly, factor_rational

_MAX_REFINE = 20000


class Interval:
    """Closed interval with rational endpoints; an overapproximation carrier."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = Fraction(lo) if isinstance(lo, int) else lo
        hi = Fraction(hi) if isinstance(hi, int) else hi
        if lo > hi:
            raise PreconditionViolation("empty interval [%s, %s]" % (lo, hi))
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, v):
        return cls(v, v)

    def width(self):
        return self.hi - self.lo

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    def contains(self, v):
        return self.lo <= v <= self.hi

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Interval(self.lo + other, self.hi + other)
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Interval(self.lo - other, self.hi - other)
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Interval.point(other)
        if not isinstance(other, Interval):
            return NotImplemented
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def __pow__(self, e):
        assert isinstance(e, int) and e >= 0
        if e == 0:
            return Interval.point(Fraction(1))
        if e % 2 == 0 and self.lo < 0 < self.hi:
            m = max(-self.lo, self.hi)
            return Interval(Fraction(0), m ** e)
        a, b = self.lo ** e, self.hi ** e
        return Interval(min(a, b), max(a, b))

    def __repr__(self):
        return "Interval(%s, %s)" % (self.lo, self.hi)


def _sqrt_bounds(r, bits):
    """Rational lo <= sqrt(r) <= hi with dyadic precision 2^-bits (r >= 0)."""
    assert r >= 0
    scale = 1 << (2 * bits)
    denom = Fraction(1, 1 << bits)
    n_lo = (r.numerator * scale) // r.denominator
    lo = math.isqrt(n_lo) * denom
    n_hi = -((-r.numerator * scale) // r.denominator)
    s = math.isqrt(n_hi)
    if s * s < n_hi:
        s += 1
    return lo, s * denom


class Alg:
    """Exact real algebraic number (rational fast path or minpoly + interval)."""

    __slots__ = ("rat", "minpoly", "_lo", "_hi", "_seq")

    def __init__(self, rat=None, minpoly=None, lo=None, hi=None):
        if rat is not None:
            self.rat = Fraction(rat) if isinstance(rat, int) else rat
            self.minpoly = None
            self._lo = self._hi = None
        else:
            if minpoly is None or minpoly.degree() < 2:
                raise PreconditionViolation(
                    "an irrational value needs a minimal polynomial of "
                    "degree at least two")
            self.rat = None
            self.minpoly = minpoly
            self._lo = lo
            self._hi = hi
        self._seq = None

    @classmethod
    def rational(cls, r):
        return cls(rat=r)

    @classmethod
    def _make(cls, minpoly, lo, hi):
        return cls(minpoly=minpoly, lo=lo, hi=hi)

    # ---- structure ----

    def is_rational(self):
        return self.rat is not None

    def as_fraction(self):
        assert self.rat is not None
        return self.rat

    def degree(self):
        return 1 if self.rat is not None else self.minpoly.degree()

    def interval(self):
        if self.rat is not None:
            return Interval.point(self.rat)
        return Interval(self._lo, self._hi)

    def _sturm(self):
        if self._seq is None:
            self._seq = self.minpoly.sturm_sequence()
        return self._seq

    def refine(self):
        """One bisection step (no-op on rationals)."""
        if self.rat is not None:
            return
        mid = (self._lo + self._hi) / 2
        if self.minpoly(mid) == 0:
            # an irreducible polynomial of degree >= 2 has no rational root
            raise PreconditionViolation(
                "the minimal polynomial %s vanishes at %s"
                % (self.minpoly.render("x"), mid))
        if self.minpoly.count_roots(self._lo, mid, self._sturm()) == 1:
            self._hi = mid
        else:
            self._lo = mid

    def refine_below(self, width):
        while self.rat is None and self._hi - self._lo >= width:
            self.refine()

    def canonical_interval(self, min_bits):
        """Dyadic cell [k/2^N, (k+1)/2^N] holding this irrational value.

        N is the least integer >= min_bits at which the cell holds no other
        root of the minimal polynomial.  The cell depends only on the value,
        not on how far it happens to have been refined, and is chosen by the
        exact sign of the minimal polynomial at the grid point.
        """
        bits = min_bits
        while True:
            scale = 1 << bits
            self.refine_below(Fraction(1, scale))
            # width < 2^-bits, so at most the grid point above k/2^bits
            # lies inside (lo, hi)
            k = math.floor(self._lo * scale)
            grid = Fraction(k + 1, scale)
            if grid < self._hi and \
                    (self.minpoly(grid) > 0) == (self.minpoly(self._lo) > 0):
                k += 1
            lo, hi = Fraction(k, scale), Fraction(k + 1, scale)
            if self.minpoly.count_roots(lo, hi, self._sturm()) == 1:
                return Interval(lo, hi)
            bits += 1

    def sign(self):
        if self.rat is not None:
            return (self.rat > 0) - (self.rat < 0)
        for _ in range(_MAX_REFINE):
            if self._lo > 0:
                return 1
            if self._hi < 0:
                return -1
            self.refine()
        raise AssertionError("sign refinement did not terminate")

    def __float__(self):
        if self.rat is not None:
            return float(self.rat)
        self.refine_below(Fraction(1, 1 << 64))
        return float((self._lo + self._hi) / 2)

    def __repr__(self):
        if self.rat is not None:
            return "Alg(%s)" % self.rat
        return "Alg(~%.6f, minpoly=%s)" % (float(self), self.minpoly.render("x"))

    # ---- equality and order ----

    def __eq__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        if self.rat is not None and other.rat is not None:
            return self.rat == other.rat
        if (self.rat is None) != (other.rat is None):
            return False
        if self is other:
            return True
        if self.minpoly != other.minpoly:
            return False
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if lo >= hi:
            return False
        return self.minpoly.count_roots(lo, hi, self._sturm()) >= 1

    def __hash__(self):
        if self.rat is not None:
            return hash(self.rat)
        return hash(self.minpoly)

    def __lt__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        if self.rat is not None and other.rat is not None:
            return self.rat < other.rat
        if self == other:
            return False
        for _ in range(_MAX_REFINE):
            a, b = self.interval(), other.interval()
            if a.hi < b.lo:
                return True
            if b.hi < a.lo:
                return False
            self.refine()
            other.refine()
        raise AssertionError("comparison refinement did not terminate")

    def __le__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return eq or self < other

    def __gt__(self, other):
        le = self.__le__(other)
        if le is NotImplemented:
            return NotImplemented
        return not le

    def __ge__(self, other):
        lt = self.__lt__(other)
        if lt is NotImplemented:
            return NotImplemented
        return not lt

    # ---- arithmetic ----

    def __neg__(self):
        if self.rat is not None:
            return Alg.rational(-self.rat)
        n = self.minpoly.degree()
        coeffs = [c * (-1) ** (n - i) for i, c in enumerate(self.minpoly.coeffs)]
        return Alg._make(UniPoly(coeffs), -self._hi, -self._lo)

    def _shift(self, r):
        """self + r for rational r."""
        if r == 0:
            return self
        q = self.minpoly(UniPoly([-r, 1]))  # P(x - r)
        return Alg._make(q, self._lo + r, self._hi + r)

    def _scale(self, r):
        """self * r for rational nonzero r."""
        if r == 1:
            return self
        n = self.minpoly.degree()
        coeffs = [c * r ** (n - i) for i, c in enumerate(self.minpoly.coeffs)]
        lo, hi = self._lo * r, self._hi * r
        if r < 0:
            lo, hi = hi, lo
        return Alg._make(UniPoly(coeffs), lo, hi)

    def inverse(self):
        if self.rat is not None:
            return Alg.rational(1 / self.rat)
        c0 = self.minpoly.coeff(0)
        coeffs = [c / c0 for c in reversed(self.minpoly.coeffs)]
        self._exclude_zero()
        return Alg._make(UniPoly(coeffs), 1 / self._hi, 1 / self._lo)

    def _exclude_zero(self):
        for _ in range(_MAX_REFINE):
            if self._lo > 0 or self._hi < 0:
                return
            self.refine()
        raise AssertionError("zero exclusion did not terminate")

    def __add__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        if self.rat is not None and other.rat is not None:
            return Alg.rational(self.rat + other.rat)
        if other.rat is not None:
            return self._shift(other.rat)
        if self.rat is not None:
            return other._shift(self.rat)
        return _binary_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        if self.rat is not None and other.rat is not None:
            return Alg.rational(self.rat * other.rat)
        if other.rat is not None:
            if other.rat == 0:
                return Alg.rational(0)
            return self._scale(other.rat)
        if self.rat is not None:
            if self.rat == 0:
                return Alg.rational(0)
            return other._scale(self.rat)
        return _binary_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_alg(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e):
        assert isinstance(e, int) and e >= 0
        if self.rat is not None:
            return Alg.rational(self.rat ** e)
        out = Alg.rational(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self


def _as_alg(x):
    if isinstance(x, Alg):
        return x
    if isinstance(x, (int, Fraction)):
        return Alg.rational(x)
    return None


def ensure_alg(x):
    a = _as_alg(x)
    if a is None:
        raise TypeError("cannot interpret %r as an algebraic number" % (x,))
    return a


# ---- binary operations on two irrational values ----

_XY = ("x", "y")


def _binary_add(a, b):
    ay = MultiPoly.from_unipoly(_XY, "y", a.minpoly)
    x = MultiPoly.var(_XY, "x")
    y = MultiPoly.var(_XY, "y")
    shifted = MultiPoly(_XY)
    base = x - y
    for j, c in enumerate(b.minpoly.coeffs):
        if c != 0:
            shifted = shifted + base ** j * c
    res = _mp_resultant(ay, shifted, "y").to_unipoly("x")
    return _select_root(res, lambda: a.interval() + b.interval(), (a, b))


def _binary_mul(a, b):
    ay = MultiPoly.from_unipoly(_XY, "y", a.minpoly)
    m = b.minpoly.degree()
    terms = {}
    for j, c in enumerate(b.minpoly.coeffs):
        if c != 0:
            terms[(j, m - j)] = c
    hom = MultiPoly(_XY, terms)
    res = _mp_resultant(ay, hom, "y").to_unipoly("x")
    a._exclude_zero()
    b._exclude_zero()
    return _select_root(res, lambda: a.interval() * b.interval(), (a, b))


def _select_root(poly, target_fn, operands, extra_refine=None):
    """Pick the unique root of poly inside the shrinking target interval."""
    factors = factor_rational(poly)[1]
    data = []
    for f, _ in factors:
        if f.degree() == 1:
            data.append((f, None, None))
        else:
            data.append((f, f.sturm_sequence(), None))
    for _ in range(_MAX_REFINE):
        iv = target_fn()
        lo, hi = iv.lo, iv.hi
        hits = []
        clean = True
        for f, seq, _ in data:
            if f.degree() == 1:
                r = -f.coeff(0)
                if r == lo or r == hi:
                    clean = False
                    break
                if lo < r < hi:
                    hits.append(("rat", r, f))
            else:
                if f(lo) == 0 or f(hi) == 0:
                    clean = False
                    break
                c = f.count_roots(lo, hi, seq)
                hits.extend(("alg", None, f) for _ in range(c))
        if clean and len(hits) == 1:
            kind, r, f = hits[0]
            if kind == "rat":
                return Alg.rational(r)
            return Alg._make(f, lo, hi)
        for op in operands:
            op.refine()
        if extra_refine is not None:
            extra_refine()
    raise AssertionError("root selection did not converge")


def alg_sqrt(x):
    """Exact square root of a nonnegative algebraic number."""
    x = ensure_alg(x)
    if x.rat is not None:
        r = x.rat
        if r < 0:
            raise PreconditionViolation("square root of a negative value")
        if r == 0:
            return Alg.rational(0)
        pn, qn = math.isqrt(r.numerator), math.isqrt(r.denominator)
        if pn * pn == r.numerator and qn * qn == r.denominator:
            return Alg.rational(Fraction(pn, qn))
        lo, hi = _sqrt_bounds(r, 32)
        assert lo * lo != r and hi * hi != r  # dyadic square would make r one
        return Alg._make(UniPoly([-r, 0, 1]), lo, hi)
    if x.sign() < 0:
        raise PreconditionViolation("square root of a negative value")
    doubled = x.minpoly(UniPoly([0, 0, 1]))  # minpoly(x^2)
    prec = [32]

    def target():
        iv = x.interval()
        lo, _ = _sqrt_bounds(iv.lo, prec[0])
        _, hi = _sqrt_bounds(iv.hi, prec[0])
        return Interval(lo, hi)

    def bump():
        prec[0] += 16

    x._exclude_zero()
    return _select_root(doubled, target, (x,), extra_refine=bump)


def isolate_real_roots(p):
    """All distinct real roots of a rational univariate polynomial, sorted."""
    if p.is_zero():
        raise ZeroInput("root isolation of the zero polynomial")
    roots = []
    for f, _ in factor_rational(p)[1]:
        if f.degree() == 1:
            roots.append(Alg.rational(-f.coeff(0)))
            continue
        seq = f.sturm_sequence()
        bound = f.cauchy_bound()
        stack = [(-bound, bound)]
        while stack:
            a, b = stack.pop()
            c = f.count_roots(a, b, seq)
            if c == 0:
                continue
            if c == 1:
                roots.append(Alg._make(f, a, b))
                continue
            mid = (a + b) / 2
            assert f(mid) != 0
            stack.append((a, mid))
            stack.append((mid, b))
    roots.sort()
    return roots


DEFAULT_BUDGET_BITS = 200


def set_default_budget(bits):
    """Set the interval-refinement budget used when callers pass none."""
    global DEFAULT_BUDGET_BITS
    bits = int(bits)
    if bits < 1:
        raise ValueError("budget must be a positive bit count")
    DEFAULT_BUDGET_BITS = bits


def evaluate_certified(poly, point, budget_bits=None, allow_exact=True):
    """Certified zero test of a multivariate polynomial at an algebraic point.

    Interval arithmetic with progressive refinement decides most nonzero
    values quickly; once the enclosure is narrower than 2**-budget_bits and
    still straddles zero, the value is recomputed with exact algebraic
    arithmetic (or PrecisionBudgetExceeded is raised if that is disabled).
    Returns True exactly when the value is zero.
    """
    if budget_bits is None:
        budget_bits = DEFAULT_BUDGET_BITS
    values = {n: ensure_alg(v) for n, v in point.items()}
    if all(v.rat is not None for v in values.values()):
        return poly.eval({n: v.rat for n, v in values.items()}) == 0
    threshold = Fraction(1, 1 << budget_bits)
    for _ in range(2 * budget_bits + 64):
        iv = poly.eval({n: v.interval() for n, v in values.items()})
        if isinstance(iv, Fraction):
            return iv == 0
        if not iv.contains_zero():
            return False
        if iv.width() < threshold:
            break
        for v in values.values():
            v.refine()
    else:
        pass
    if not allow_exact:
        raise PrecisionBudgetExceeded(
            "interval evaluation still straddles zero", budget_bits=budget_bits
        )
    exact = poly.eval(values)
    exact = ensure_alg(exact)
    return exact.rat == 0 if exact.rat is not None else False
