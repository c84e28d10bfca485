"""Exact real algebraic numbers as elements of real number fields.

A rational value is a Fraction.  An irrational value is an Alg: an element
of a number field Q(theta) with a nonconstant coordinate.  The field holds
a monic irreducible rational polynomial m of degree d >= 2 and an isolating
interval with rational endpoints for the real root theta at which it is
embedded; the value holds its d rational coordinates on 1, theta, ...,
theta^(d-1) (Cohen, A Course in Computational Algebraic Number Theory,
GTM 138, ch. 4).

Field operations are exact: sums add coordinates, products multiply
polynomials and reduce modulo m, inverses come from an extended gcd with
m.  A value is zero exactly when its coordinates are, so a zero test never
refines anything.  Sums and products of two irrational values go through
NumberField.element, which returns a Fraction when the coordinates are
constant; a negation, an inverse, a rational shift or a nonzero rational
scale keeps a nonconstant coordinate.  So an Alg is never rational and
never zero.

Two values from different fields meet in their join.  A primitive element
phi = theta_F + c*theta_G, with c = 1, 2, ... until phi's minimal polynomial
in the tensor product F (x) G has full degree, is found by linear algebra,
which also writes theta_F and theta_G as polynomials in phi.  The factor of
that polynomial whose root is phi's real value defines the common field.
Each pair of fields is joined once; the result is cached on the fields.
common_field folds the joins of a list of values into one field and gives
each value's coordinates there.

Numeric data is computed only when asked: an enclosing interval by
evaluating the coordinates on theta's interval (refined by bisection), the
sign once the exact test has ruled out zero, and the minimal polynomial as
the first linear dependence among the powers of the value.  Real-root
isolation and square roots return a Fraction for a rational result and the
generator of a new field otherwise.  Because
the minimal polynomial of an irrational value has degree at least two,
rational interval endpoints are never roots, so refinement never stalls.
"""

import math
from fractions import Fraction

from .errors import PreconditionViolation, ZeroInput
from .linalg import gauss_solve
from .upoly import UniPoly, factor_rational

_MAX_REFINE = 20000
_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Interval(self.lo + other, self.hi + other)
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return NotImplemented

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

    def __repr__(self):
        return "Interval(%s, %s)" % (self.lo, self.hi)


def _sqrt_bounds(r, bits):
    """Rational lo <= sqrt(r) <= hi with dyadic precision 2^-bits (r >= 0)."""
    if r < 0:
        raise PreconditionViolation("square root bounds of a negative value")
    scale = 1 << (2 * bits)
    denom = Fraction(1, 1 << bits)
    n_lo = (r.numerator * scale) // r.denominator
    lo = math.isqrt(n_lo) * denom
    n_hi = -((-r.numerator * scale) // r.denominator)
    s = math.isqrt(n_hi)
    if s * s < n_hi:
        s += 1
    return lo, s * denom


# ---- the number field ----


class NumberField:
    """Q(theta) for the real root theta of a monic irreducible polynomial
    that lies in a given isolating interval (lo, hi)."""

    __slots__ = ("modulus", "degree", "lo", "hi", "steps", "gen", "_tail",
                 "_seq", "_joins")

    def __init__(self, modulus, lo, hi):
        if modulus.degree() < 2:
            raise PreconditionViolation(
                "an irrational value needs a minimal polynomial of "
                "degree at least two")
        self.modulus = modulus.monic()
        self.degree = self.modulus.degree()
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        # bisection steps so far; cached enclosures of elements compare it
        self.steps = 0
        self.gen = self.coords(UniPoly([_ZERO, _ONE]))
        # theta^d = tail[0] + tail[1] theta + ... + tail[d-1] theta^(d-1)
        self._tail = tuple(-c for c in self.modulus.coeffs[:-1])
        self._seq = None
        self._joins = {}

    def interval(self):
        return Interval(self.lo, self.hi)

    def _sturm(self):
        if self._seq is None:
            self._seq = self.modulus.sturm_sequence()
        return self._seq

    def refine(self):
        """Halve theta's isolating interval."""
        mid = (self.lo + self.hi) / 2
        if self.modulus(mid) == 0:
            # an irreducible polynomial of degree >= 2 has no rational root
            raise PreconditionViolation(
                "the minimal polynomial %s vanishes at %s"
                % (self.modulus.render("x"), mid))
        if self.modulus.count_roots(self.lo, mid, self._sturm()) == 1:
            self.hi = mid
        else:
            self.lo = mid
        self.steps += 1

    def same_embedding(self, other):
        """Whether other is this field with the same generator."""
        if self.modulus != other.modulus:
            return False
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return lo < hi and self.modulus.count_roots(lo, hi, self._sturm()) > 0

    def join(self, other):
        """The real field holding both fields, with the embeddings into it.

        Returns (K, into_self, into_other).  A table lists the coordinates
        in K of theta^0, ..., theta^(d-1) of its field, or is None when that
        field is K itself.
        """
        hit = self._joins.get(other)
        if hit is None:
            hit = _join(self, other)
            common, mine, theirs = hit
            self._joins[other] = hit
            other._joins[self] = (common, theirs, mine)
            if common is not self:
                # results in the common field meet both operands' fields
                # again; without these entries each meeting would build a
                # further field
                self._joins[common] = (common, mine, None)
                other._joins[common] = (common, theirs, None)
                common._joins[self] = (common, None, mine)
                common._joins[other] = (common, None, theirs)
        return hit

    # ---- coordinate arithmetic ----

    def mul(self, a, b):
        """Coordinates of a*b: the product polynomial reduced modulo m."""
        d = self.degree
        prod = [_ZERO] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        tail = self._tail
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for j, t in enumerate(tail):
                    if t:
                        prod[k - d + j] += c * t
        return tuple(prod[:d])

    def inverse(self, a):
        """Coordinates of 1/a by the extended Euclidean algorithm with m."""
        # invariant: s_k * a == r_k modulo m
        r0, r1 = self.modulus, UniPoly(a)
        s0, s1 = UniPoly(), UniPoly([_ONE])
        while r1.degree() > 0:
            q, r = r0.divmod(r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        if r1.is_zero():
            raise PreconditionViolation(
                "%s is not irreducible" % self.modulus.render("x"))
        return self.coords(s1.scale(1 / r1.coeffs[0]) % self.modulus)

    def coords(self, poly):
        """Coordinates of a polynomial of degree < d in theta."""
        return tuple(poly.coeff(i) for i in range(self.degree))

    def powers(self, a, count):
        """Coordinates of a^0, a^1, ..., a^(count-1)."""
        out = [self.coords(UniPoly([_ONE]))]
        while len(out) < count:
            out.append(self.mul(out[-1], a))
        return out

    def element(self, coords):
        """The value with these coordinates (a Fraction when constant)."""
        if any(coords[1:]):
            return Alg(self, tuple(coords))
        return coords[0]


def common_field(values):
    """The common field K of the irrational values, and each value's
    coordinates in K.

    K is folded from pairwise joins; each join's embedding of the running
    field is composed into the tables of the fields already absorbed, so no
    field is joined twice and K is one field object.  When every value is
    rational, K is None and each value's coordinates are (value,).
    """
    field, tables = None, {}
    for v in values:
        if not isinstance(v, Alg) or v.field in tables:
            continue
        f = v.field
        joined, into_old, into_new = \
            (f, None, None) if field is None else field.join(f)
        if into_old is not None:
            for g, t in tables.items():
                tables[g] = into_old if t is None else \
                    [_lift(row, into_old) for row in t]
        tables[f], field = into_new, joined
    degree = 1 if field is None else field.degree
    out = []
    for v in values:
        if isinstance(v, Alg):
            out.append(_lift(v.coords, tables[v.field]))
        else:
            out.append((v,) + (_ZERO,) * (degree - 1))
    return field, out


def _lift(coords, table):
    """Coordinates of an element in the field an embedding table maps into."""
    if table is None:
        return coords
    out = [_ZERO] * len(table[0])
    for c, image in zip(coords, table):
        if c:
            for j, v in enumerate(image):
                if v:
                    out[j] += c * v
    return tuple(out)


def first_dependence(powers):
    """Monic polynomial from the first power that depends on the earlier ones.

    powers are the coordinate vectors of a^0, a^1, ..., a^d in a field or
    quotient ring of dimension d over the rationals, so the last one depends
    on the others at the latest.
    """
    size = len(powers[0])
    for k in range(1, len(powers)):
        rows = [[p[r] for p in powers[:k]] for r in range(size)]
        solved = gauss_solve(rows, [-v for v in powers[k]])
        if solved is not None:
            return UniPoly(list(solved[0]) + [_ONE])
    raise PreconditionViolation("no linear dependence among the powers")


def _join(f, g):
    """Compute the common field of f and g (see NumberField.join)."""
    if f.same_embedding(g):
        return f, None, None
    m, n = f.degree, g.degree
    size = m * n
    # the tensor product F (x) G, coordinates on x^i y^j at index i*n + j
    unit = [_ZERO] * size
    one, x, y = list(unit), list(unit), list(unit)
    one[0] = x[n] = y[1] = _ONE

    def times(v, c):
        """v * (x + c*y) in F (x) G."""
        out = [_ZERO] * size
        for idx, a in enumerate(v):
            if not a:
                continue
            i, j = divmod(idx, n)
            if i + 1 < m:
                out[idx + n] += a
            else:
                for k, t in enumerate(f._tail):
                    out[k * n + j] += a * t
            b = a * c
            if j + 1 < n:
                out[idx + 1] += b
            else:
                for k, t in enumerate(g._tail):
                    out[i * n + k] += b * t
        return out

    c = 0
    while True:
        c += 1
        powers = [one]
        for _ in range(size):
            powers.append(times(powers[-1], c))
        rows = [[p[r] for p in powers[:size]] for r in range(size)]
        solved = gauss_solve(rows, powers[size])
        if solved is not None and not solved[1]:
            break
    mu = UniPoly([-s for s in solved[0]] + [_ONE])
    in_phi = [gauss_solve(rows, v)[0] for v in (x, y)]

    def target():
        return f.interval() + g.interval() * c

    def refine():
        f.refine()
        g.refine()

    phi = _select_root(mu, target, refine)
    if not isinstance(phi, Alg):
        raise PreconditionViolation("a primitive element came out rational")
    common = phi.field
    tables = [common.powers(common.coords(UniPoly(p) % common.modulus), d)
              for p, d in zip(in_phi, (m, n))]
    return common, tables[0], tables[1]


# ---- the algebraic number ----


class Alg:
    """Exact real irrational number: a field element with a nonconstant
    coordinate.  Rationals are Fractions, never Algs."""

    __slots__ = ("field", "coords", "_minpoly", "_seq", "_iv")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords
        self._minpoly = self._seq = self._iv = None

    @classmethod
    def _make(cls, minpoly, lo, hi):
        """The root of minpoly in (lo, hi), as the generator of a new field."""
        field = NumberField(minpoly, lo, hi)
        return cls(field, field.gen)

    # ---- structure ----

    @property
    def minpoly(self):
        """Monic minimal polynomial over the rationals."""
        if self._minpoly is None:
            field = self.field
            if self.coords == field.gen:
                self._minpoly = field.modulus
            else:
                self._minpoly = first_dependence(
                    field.powers(self.coords, field.degree + 1))
        return self._minpoly

    def interval(self):
        """Enclosure from the coordinates evaluated on theta's interval."""
        field = self.field
        if self._iv is not None and self._iv[0] == field.steps:
            return self._iv[1]
        theta = field.interval()
        acc = Interval.point(self.coords[-1])
        for c in reversed(self.coords[:-1]):
            acc = acc * theta + c
        self._iv = (field.steps, acc)
        return acc

    def _sturm(self):
        if self._seq is None:
            self._seq = self.minpoly.sturm_sequence()
        return self._seq

    def refine(self):
        """One bisection step of the field generator."""
        self.field.refine()

    def refine_below(self, width):
        while self.interval().width() >= width:
            self.field.refine()

    def _isolating(self, width=None):
        """Enclosure holding no other root of the minimal polynomial."""
        while True:
            iv = self.interval()
            if (width is None or iv.width() < width) and \
                    self.minpoly.count_roots(iv.lo, iv.hi, self._sturm()) == 1:
                return iv
            self.field.refine()

    def canonical_interval(self, min_bits):
        """Dyadic cell [k/2^N, (k+1)/2^N] holding this irrational value.

        N is the least integer >= min_bits at which the cell holds no other
        root of the minimal polynomial.  The cell depends only on the value,
        not on how far it happens to have been refined, and is chosen by the
        exact sign of the minimal polynomial at the grid point.
        """
        mp = self.minpoly
        bits = min_bits
        while True:
            scale = 1 << bits
            iv = self._isolating(Fraction(1, scale))
            # width < 2^-bits, so at most the grid point above k/2^bits
            # lies inside (lo, hi)
            k = math.floor(iv.lo * scale)
            grid = Fraction(k + 1, scale)
            if grid < iv.hi and (mp(grid) > 0) == (mp(iv.lo) > 0):
                k += 1
            lo, hi = Fraction(k, scale), Fraction(k + 1, scale)
            if mp.count_roots(lo, hi, self._sturm()) == 1:
                return Interval(lo, hi)
            bits += 1

    def __float__(self):
        """The nearest double, independent of how far theta was refined."""
        while True:
            iv = self.interval()
            lo, hi = float(iv.lo), float(iv.hi)
            if lo == hi:
                return lo
            self.field.refine()

    def __repr__(self):
        return "Alg(~%.6f, minpoly=%s)" % (float(self), self.minpoly.render("x"))

    # ---- equality and order ----

    def __eq__(self, other):
        if isinstance(other, _RATIONAL):
            return False
        if not isinstance(other, Alg):
            return NotImplemented
        if self.field is other.field:
            return self.coords == other.coords
        if self.minpoly != other.minpoly:
            return False
        a, b = self._isolating(), other._isolating()
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        return lo < hi and self.minpoly.count_roots(lo, hi, self._sturm()) > 0

    def __hash__(self):
        return hash(self.minpoly)

    def _cmp(self, other):
        """-1, 0 or 1 as self lies below, at or above a rational or
        irrational other."""
        if not isinstance(other, _NUMBER):
            return NotImplemented
        if self == other:
            return 0
        irrational = isinstance(other, Alg)
        for _ in range(_MAX_REFINE):
            a = self.interval()
            b = other.interval() if irrational else Interval.point(other)
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            self.field.refine()
            if irrational:
                other.field.refine()
        raise PreconditionViolation("comparison refinement did not terminate")

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    # ---- arithmetic ----

    def __neg__(self):
        return Alg(self.field, tuple(-c for c in self.coords))

    def __add__(self, other):
        if isinstance(other, Alg):
            return _binary_add(self, other)
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        if not other:
            return self
        return Alg(self.field, (self.coords[0] + other,) + self.coords[1:])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, _NUMBER):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Alg):
            return _binary_mul(self, other)
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        if not other:
            return _ZERO
        if other == 1:
            return self
        return Alg(self.field, tuple(c * other for c in self.coords))

    __rmul__ = __mul__

    def _inverse(self):
        return Alg(self.field, self.field.inverse(self.coords))

    def __truediv__(self, other):
        if isinstance(other, Alg):
            return self * other._inverse()
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return self * (_ONE / other)

    def __rtruediv__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return self._inverse() * other

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = _ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __abs__(self):
        return -self if sign(self) < 0 else self


_RATIONAL = (int, Fraction)
_NUMBER = (int, Fraction, Alg)


def sign(x):
    """-1, 0 or 1: the sign of a rational or irrational value."""
    if not isinstance(x, Alg):
        return (x > 0) - (x < 0)
    # an irrational value is nonzero, so its enclosure leaves zero
    for _ in range(_MAX_REFINE):
        iv = x.interval()
        if iv.lo > 0:
            return 1
        if iv.hi < 0:
            return -1
        x.field.refine()
    raise PreconditionViolation("sign refinement did not terminate")


# ---- binary operations on two irrational values ----


def _aligned(a, b):
    """The common field of a and b with both coordinate vectors in it."""
    if a.field is b.field:
        return a.field, a.coords, b.coords
    field, into_a, into_b = a.field.join(b.field)
    return field, _lift(a.coords, into_a), _lift(b.coords, into_b)


def _binary_add(a, b):
    field, x, y = _aligned(a, b)
    return field.element(tuple(u + v for u, v in zip(x, y)))


def _binary_mul(a, b):
    field, x, y = _aligned(a, b)
    return field.element(field.mul(x, y))


def _select_root(poly, target_fn, refine_fn):
    """The unique root of poly inside the shrinking target interval.

    A rational root comes back rational; an irrational one as the
    generator of a new field, its irreducible factor as the modulus.
    """
    factors = [f for f, _ in factor_rational(poly)[1]]
    seqs = [f.sturm_sequence() if f.degree() > 1 else None for f in factors]
    for _ in range(_MAX_REFINE):
        iv = target_fn()
        lo, hi = iv.lo, iv.hi
        hits = []
        for f, seq in zip(factors, seqs):
            if seq is None:
                r = -f.coeff(0)
                if lo <= r <= hi:
                    hits.append((f, r))
            else:
                # no rational endpoint is a root of an irreducible factor
                hits.extend([(f, None)] * f.count_roots(lo, hi, seq))
        if len(hits) == 1:
            f, r = hits[0]
            return r if r is not None else Alg._make(f, lo, hi)
        refine_fn()
    raise PreconditionViolation("root selection did not converge")


def alg_sqrt(x):
    """Exact square root of a nonnegative rational or irrational value."""
    if sign(x) < 0:
        raise PreconditionViolation("square root of a negative value")
    if not isinstance(x, Alg):
        r = Fraction(x)
        if r == 0:
            return _ZERO
        pn, qn = math.isqrt(r.numerator), math.isqrt(r.denominator)
        if pn * pn == r.numerator and qn * qn == r.denominator:
            return Fraction(pn, qn)
        lo, hi = _sqrt_bounds(r, 32)
        # r is not a square, so no dyadic bound squares to it
        return Alg._make(UniPoly([-r, 0, 1]), lo, hi)
    doubled = x.minpoly(UniPoly([0, 0, 1]))  # minpoly(x^2)
    prec = [32]

    def target():
        # sign(x) > 0 left the enclosure positive, and it only shrinks
        iv = x.interval()
        lo, _ = _sqrt_bounds(iv.lo, prec[0])
        _, hi = _sqrt_bounds(iv.hi, prec[0])
        return Interval(lo, hi)

    def refine():
        x.refine()
        prec[0] += 16

    return _select_root(doubled, target, refine)


def isolate_real_roots(p):
    """All distinct real roots of a rational univariate polynomial, sorted."""
    if p.is_zero():
        raise ZeroInput("root isolation of the zero polynomial")
    roots = []
    for f, _ in factor_rational(p)[1]:
        if f.degree() == 1:
            roots.append(-f.coeff(0))
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
            if f(mid) == 0:
                raise PreconditionViolation(
                    "the irreducible factor %s vanishes at %s"
                    % (f.render("x"), mid))
            stack.append((a, mid))
            stack.append((mid, b))
    roots.sort()
    return roots


def evaluate_certified(poly, point):
    """Exact zero test of a multivariate polynomial at an algebraic point.

    The arithmetic carries the point's irrational values into their common
    field, where the value is computed exactly.  Returns True exactly when
    the value is zero.
    """
    return poly.eval(point) == 0
