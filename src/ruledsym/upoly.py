"""Dense univariate polynomials over an exact field.

Coefficients are ``fractions.Fraction`` in the common case, but any exact
field element with Python arithmetic (notably ``algnum.Alg``)
works for the ring operations; gcds, the square-free decomposition, the
root-finding helpers (Sturm sequences) and factorisation require rational
coefficients.

Rational polynomials run on an integer kernel: a product clears the
denominators of both factors once, convolves Python integers and builds one
``Fraction`` per output coefficient, and the gcd is a primitive remainder
sequence over the integers; ``rational_homogenized_eval`` substitutes a
rational function into a polynomial the same way, and ``factor_rational``
factors over Z by Zassenhaus's method, modulo a prime and its powers.
Products with other coefficients use the generic loop.

Coefficients are stored dense and ascending: ``UniPoly([1, 0, 2])`` is
``1 + 2*t^2``.  The zero polynomial has an empty coefficient tuple and
degree -1.
"""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm

from .errors import PreconditionViolation, ZeroInput


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


def _integer_form(coeffs):
    """The common denominator of rational coefficients and the integers
    it turns them into."""
    den = _int_lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _convolve(a, b):
    """Product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive_ints(ints):
    """Integer coefficients divided by their content, trailing zeros cut."""
    while ints and not ints[-1]:
        ints.pop()
    g = _int_gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _integer_remainder(a, b):
    """The primitive part of the pseudo-remainder of a by b (integer
    coefficient lists, b nonzero); each step scales by the least factor
    that keeps the arithmetic in the integers."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    for k in range(len(r) - 1 - db, -1, -1):
        c = r.pop()
        if c:
            g = _int_gcd(c, lead)
            u, v = lead // g, c // g
            if u != 1:
                r = [u * x for x in r]
            for j in range(db):
                r[k + j] -= v * b[j]
    return _primitive_ints(r)


def frac_gcd(a, b):
    """gcd of two non-negative rationals: gcd of numerators / lcm of denominators."""
    a, b = abs(Fraction(a)), abs(Fraction(b))
    if a == 0:
        return b
    if b == 0:
        return a
    num = _int_gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator) // _int_gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    # ---- constructors ----

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    # ---- basic queries ----

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def const_value(self):
        if not self.is_constant():
            raise PreconditionViolation("the polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def lead(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_rational(self):
        """Whether every coefficient is a Fraction."""
        return all(isinstance(c, Fraction) for c in self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return self == UniPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # ---- arithmetic ----

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly()
            if self.is_rational() and other.is_rational():
                da, a = _integer_form(self.coeffs)
                db, b = _integer_form(other.coeffs)
                den = da * db
                return UniPoly([Fraction(v, den) for v in _convolve(a, b)])
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UniPoly(out)
        # scalar
        return UniPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = UniPoly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c):
        return UniPoly([a * c for a in self.coeffs])

    def divmod(self, other):
        """Exact field division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree() < other.degree():
            return UniPoly(), self
        rem = list(self.coeffs)
        dq = self.degree() - other.degree()
        quot = [Fraction(0)] * (dq + 1)
        lead_inv = 1 / other.lead()
        oc = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * lead_inv
            quot[k] = c
            if c != 0:
                for j, b in enumerate(oc):
                    rem[k + j] = rem[k + j] - c * b
        return UniPoly(quot), UniPoly(rem[: other.degree()])

    def __floordiv__(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise PreconditionViolation("inexact polynomial division")
        return q

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = 1 / self.lead()
        return UniPoly([c * inv for c in self.coeffs])

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    # ---- evaluation / composition ----

    def __call__(self, x):
        """Horner evaluation; x may be a Fraction, AlgebraicNumber or UniPoly."""
        if not self.coeffs:
            return Fraction(0) if not isinstance(x, UniPoly) else UniPoly()
        acc = self.coeffs[-1]
        if isinstance(x, UniPoly):
            acc = UniPoly([acc])
            for c in reversed(self.coeffs[:-1]):
                acc = acc * x + UniPoly([c])
            return acc
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    # ---- content / gcd ----

    def content(self):
        """Non-negative rational content (Fraction coefficients only)."""
        c = Fraction(0)
        for a in self.coeffs:
            c = frac_gcd(c, a)
        return c

    def primitive(self):
        c = self.content()
        if c == 0:
            return self, Fraction(0)
        return self.scale(1 / c), c

    def gcd(self, other):
        """Monic gcd of two rational polynomials; gcd(p, 0) is monic p.

        A primitive remainder sequence over the integers (Brown, On
        Euclid's algorithm and the computation of polynomial greatest
        common divisors, JACM 1971): every remainder is divided by its
        content, so coefficients stay as small as the inputs allow.
        """
        a = _primitive_ints(_integer_form(self.coeffs)[1])
        b = _primitive_ints(_integer_form(other.coeffs)[1])
        while b:
            a, b = b, _integer_remainder(a, b)
        return UniPoly([Fraction(c, a[-1]) for c in a])

    # ---- square-free structure (rational coefficients) ----

    def squarefree_decomposition(self):
        """Yun's algorithm.

        Returns a list of (factor, multiplicity) with monic square-free,
        pairwise-coprime factors such that the product of factor^multiplicity
        equals the monic part of self.  Degree-zero factors are dropped.
        """
        if self.is_zero():
            raise ZeroInput("square-free decomposition of zero")
        p = self.monic()
        if p.degree() == 0:
            return []
        d = p.derivative()
        g = p.gcd(d)
        if g.degree() == 0:
            return [(p, 1)]
        out = []
        w = p // g
        y = d // g
        z = y - w.derivative()
        i = 1
        while w.degree() > 0:
            f = w.gcd(z)
            if f.degree() > 0:
                out.append((f, i))
            w = w // f
            y = z // f
            z = y - w.derivative()
            i += 1
        return out

    # ---- Sturm machinery (rational coefficients) ----

    def sturm_sequence(self):
        seq = [self, self.derivative()]
        while not seq[-1].is_zero():
            seq.append(-(seq[-2] % seq[-1]))
        seq.pop()
        return seq

    def cauchy_bound(self):
        """All real roots lie strictly inside (-B, B)."""
        if self.is_zero():
            raise ZeroInput("root bound of zero")
        lead = abs(self.lead())
        m = max((abs(c) for c in self.coeffs[:-1]), default=Fraction(0))
        return 1 + m / lead

    def count_roots(self, a, b, _seq=None):
        """Number of distinct real roots in (a, b]; self must be square-free."""
        seq = _seq if _seq is not None else self.sturm_sequence()

        def changes(x):
            signs = []
            for q in seq:
                v = q(x)
                if v != 0:
                    signs.append(1 if v > 0 else -1)
            return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])

        return changes(a) - changes(b)

    # ---- rendering ----

    def render(self, var="t"):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                pw = var if i == 1 else "%s^%d" % (var, i)
                body = pw if mag == 1 else "%s*%s" % (mag, pw)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "UniPoly(%s)" % self.render()


# ---- factorisation over Q: Zassenhaus on Python integers (cached) ----
#
# Polynomials modulo m are ascending lists of residues in [0, m) with no
# trailing zeros; the modulus is a prime p or, during Hensel lifting, a
# power of it.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _add_mod(a, b, m, sign=1):
    """a + sign*b modulo m."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = list(a)
    for i, c in enumerate(b):
        out[i] += sign * c
    return _trim([c % m for c in out])


def _mul_mod(a, b, m):
    return _trim([c % m for c in _convolve(a, b)])


def _divmod_mod(a, b, m):
    """Quotient and remainder of a by b modulo m; the lead of b must be a
    unit modulo m."""
    inv = pow(b[-1], -1, m)
    r, db = list(a), len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % m
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    return _trim(q), _trim([c % m for c in r[:db]])


def _monic_mod(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_mod(a, b, p):
    """Monic gcd over the field of p elements."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _xgcd_mod(a, b, p):
    """s and t with s a + t b = 1 modulo p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add_mod(s0, _mul_mod(q, s1, p), p, -1)
        t0, t1 = t1, _add_mod(t0, _mul_mod(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _pow_mod(a, e, f, p):
    """a^e modulo f and p, by repeated squaring."""
    out, a = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return out


def _good_prime(f):
    """The least odd prime that divides neither the lead of f nor its
    discriminant (f modulo p keeps its degree and stays square-free)."""
    p = 3
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)) and f[-1] % p:
            g = _monic_mod([c % p for c in f], p)
            dg = _trim([i * c % p for i, c in enumerate(g)][1:])
            if dg and len(_gcd_mod(g, dg, p)) == 1:
                return p
        p += 2


def _distinct_degree(f, p):
    """(product of all irreducible factors of degree d, d) for monic
    square-free f modulo p."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _add_mod(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """Cantor-Zassenhaus: the monic irreducible factors, all of degree d, of
    square-free g modulo an odd prime p."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = _gcd_mod(g, _add_mod(_pow_mod(a, e, g, p), [1], p, -1), p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod_mod(g, h, p)[0], d, p, rng))


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step (von zur Gathen and Gerhard, Modern
    Computer Algebra, Algorithm 15.10): from f = g h and s g + t h = 1
    modulo m, h monic, to the same modulo m^2."""
    mm = m * m
    e = _add_mod([c % mm for c in f], _mul_mod(g, h, mm), mm, -1)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, mm), _mul_mod(q, g, mm), mm), mm)
    h = _add_mod(h, r, mm)
    b = _add_mod(_add_mod(_mul_mod(s, g, mm), _mul_mod(t, h, mm), mm),
                 [1], mm, -1)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h, mm)
    s = _add_mod(s, d, mm, -1)
    t = _add_mod(t, _add_mod(_mul_mod(t, b, mm), _mul_mod(c, g, mm), mm),
                 mm, -1)
    return g, h, s, t


def _hensel_lift(f, factors, p, modulus):
    """The monic lifts modulo modulus = p^(2^k) of monic factors with f =
    lead(f) * prod(factors) modulo p, by a balanced factor tree."""
    if len(factors) == 1:
        return [_monic_mod([c % modulus for c in f], modulus)]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in factors[half:]:
        h = _mul_mod(h, u, p)
    s, t = _xgcd_mod(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(g, factors[:half], p, modulus)
            + _hensel_lift(h, factors[half:], p, modulus))


def _exact_quotient(f, g):
    """f / g if g divides f in Z[x], else None."""
    r, dg, lead = list(f), len(g) - 1, g[-1]
    if len(r) < len(g) or (f[0] and (not g[0] or f[0] % g[0])):
        return None
    q = [0] * (len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + dg], lead)
        if rest:
            return None
        q[k] = c
        if c:
            for j in range(dg):
                r[k + j] -= c * g[j]
    return None if any(r[:dg]) else q


def _recombine(f, lifts, modulus):
    """Zassenhaus recombination: the irreducible factors of f from the
    lifts of its modular factors, trying subsets smallest first.

    Every irreducible factor g of f is lead(f)/lead(g) g = lead(f) times
    the product of one subset of the lifts modulo the modulus, which
    exceeds twice the coefficient bound, so the symmetric residue is g up
    to its content; a factor from a smallest subset is irreducible.
    """
    out, size, half = [], 1, modulus // 2
    while 2 * size <= len(lifts):
        for subset in itertools.combinations(range(len(lifts)), size):
            g = [f[-1] % modulus]
            for i in subset:
                g = _mul_mod(g, lifts[i], modulus)
            g = _primitive_ints([c - modulus if c > half else c for c in g])
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifts = [u for i, u in enumerate(lifts) if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


def _factor_squarefree(f, rng):
    """The irreducible factors in Z[x] of primitive square-free f."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p = _good_prime(f)
    blocks = _distinct_degree(_monic_mod([c % p for c in f], p), p)
    modular = [u for g, d in blocks for u in _equal_degree(g, d, p, rng)]
    if len(modular) == 1:
        return [f]
    # Mignotte: a factor of f has coefficients at most 2^n ||f||_2
    bound = 2 * abs(f[-1]) * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    return _recombine(f, _hensel_lift(f, modular, p, modulus), modulus)


@functools.lru_cache(maxsize=1024)
def factor_rational(p):
    """Factor a rational-coefficient polynomial over Q.

    Returns (leading_unit, [(monic irreducible UniPoly, multiplicity), ...])
    with leading_unit a Fraction so that the product reconstructs p.  Each
    square-free part is factored over Z by Zassenhaus's method: modulo the
    first good prime p, Hensel lifting to a power of p above twice the
    Mignotte bound, and recombination by trial division.  The equal-degree
    splitting draws from a generator seeded per call; the factorisation is
    unique, so the seed only makes the times repeat.
    """
    if p.is_zero():
        raise ZeroInput("factorisation of zero")
    if p.degree() == 0:
        return (p.coeffs[0], [])
    rng = random.Random(0)
    out = []
    for g, mult in p.squarefree_decomposition():
        ints = _primitive_ints(_integer_form(g.coeffs)[1])
        for f in _factor_squarefree(ints, rng):
            out.append((UniPoly([Fraction(c, f[-1]) for c in f]), mult))
    out.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
    return (p.lead(), out)


def rational_homogenized_eval(p, num, den, m):
    """den^m p(num/den) for rational p, num and den, with m >= deg p.

    The homogeneous Horner scheme of ``ratfunc.homogenized_eval`` on
    integers: with P = D_p p, N = L num and E = L den integral, the value
    is (sum P_i N^i E^(m-i)) / (D_p L^m), one Fraction per coefficient.
    """
    dp, pc = _integer_form(p.coeffs)
    dl, ints = _integer_form(num.coeffs + den.coeffs)
    n, e = ints[:len(num.coeffs)], ints[len(num.coeffs):]
    d = p.degree()
    acc, e_pow = pc[d:], [1]
    for c in reversed(pc[:d]):
        e_pow = _convolve(e_pow, e)
        acc = _convolve(acc, n)
        if c:
            acc += [0] * (len(e_pow) - len(acc))
            for i, v in enumerate(e_pow):
                acc[i] += c * v
    for _ in range(m - d):
        acc = _convolve(acc, e)
    scale = dp * dl ** m
    return UniPoly([Fraction(v, scale) for v in acc])


def poly_gcd(a, b):
    """Monic gcd of two rational polynomials; gcd(0, p) is monic p."""
    return a.gcd(b)


def poly_lcm(a, b):
    if a.is_zero() or b.is_zero():
        return UniPoly()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()
