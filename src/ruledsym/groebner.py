"""Reduced lex Groebner bases over the rationals, on packed monomials.

A polynomial is a dict from packed monomial to int, kept primitive with a
positive leading coefficient, so the monic basis over Q is each element
divided by its leading coefficient.  A packed monomial is one int with
one field of `bits` bits per unknown, the solve order's first unknown in
the most significant field; the top bit of every field is a guard bit
that no exponent may reach.  Then lex comparison is int comparison, a
product of monomials is an addition (no carry can cross a field, since
both exponents are below the guard), and lm divides m exactly when
((m | G) - lm) & G == G for G the guard mask: a field of m below lm's
clears its guard bit and borrows from nothing else.  Every new monomial
is tested against G; on a hit the computation starts again with fields
twice as wide, so an exponent never wraps.  The first width is taken
from the input degrees.

The algorithm is Buchberger's with the structure of sympy's groebnertools
(Becker and Weispfenning, Groebner Bases, 1993, pp. 203 and 230-232):
interreduce the input, keep the critical pairs by the Gebauer-Moeller
criteria, take the pair with the least lcm, and reduce its S-polynomial
by the basis sorted by ascending leading monomial.  A reduction is
fraction-free, f <- (lc_g / d) f - (c / d) x^q g with d = gcd(lc_g, c),
and pops the monomials of f from a max-heap (Monagan and Pearce, Sparse
polynomial division using a heap, J. Symb. Comput. 2011), so each step
costs one divisibility scan and one pass over the divisor's tail, which
is cached with its leading term when the divisor joins the basis.  The
result is the unique reduced basis, sorted by leading monomial,
descending.

Normal forms modulo a finished basis come from Basis.normal_form, which
also returns the integer multiplier the fraction-free steps applied: the
exact normal form over Q is the returned polynomial divided by it.
"""

from heapq import heapify, heappop, heappush
from math import gcd


class ExponentOverflow(OverflowError):
    """An exponent reached the guard bit of its field."""


class Ring:
    """The packing of exponent tuples in nvars unknowns into ints."""

    __slots__ = ("nvars", "bits", "units", "guard")

    def __init__(self, nvars, bits):
        self.nvars, self.bits = nvars, bits
        # units[i] is the packed monomial of unknown i alone
        self.units = [1 << (nvars - 1 - i) * bits for i in range(nvars)]
        self.guard = sum(self.units) << (bits - 1)

    def pack(self, exps):
        m = 0
        for e in exps:
            if e >> (self.bits - 1):
                raise ExponentOverflow("exponent %d needs wider fields" % e)
            m = (m << self.bits) | e
        return m

    def unpack(self, m):
        mask = (1 << self.bits) - 1
        return tuple((m // u) & mask for u in self.units)

    def pack_poly(self, p, ring=None):
        """p with its monomials packed in self: p's keys are exponent
        tuples, or monomials packed in ring when it is given."""
        if ring is None:
            return {self.pack(m): c for m, c in p.items()}
        if ring is self:
            return p
        return {self.pack(ring.unpack(m)): c for m, c in p.items()}


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    if c == 1:
        return p
    return {m: v // c for m, v in p.items()}


def _divisor(p):
    """The leading monomial, leading coefficient and tail of p."""
    lm = max(p)
    return lm, p[lm], [(m, c) for m, c in p.items() if m != lm]


def _reduce(f, divisors, guard):
    """(r, a) with r = a f modulo the divisors, no monomial of r divisible
    by a leading monomial, and a a positive int.  The first divisor in
    the list whose leading monomial divides a term reduces it."""
    f = dict(f)
    heap = [-m for m in f]
    heapify(heap)
    r, multiplier = {}, 1
    while heap:
        m = -heappop(heap)
        # a monomial is pushed only when it enters f and never recurs once
        # popped, since every product below is smaller than m
        c = f.pop(m)
        if not c:
            continue
        mg = m | guard
        for lm, lc, tail in divisors:
            if (mg - lm) & guard == guard:
                break
        else:
            r[m] = c
            continue
        d = gcd(c, lc)
        if d != lc:
            a = lc // d
            multiplier *= a
            f = {k: v * a for k, v in f.items()}
            r = {k: v * a for k, v in r.items()}
        b = c // d
        q = m - lm
        get = f.get
        for mt, ct in tail:
            p = q + mt
            if p & guard:
                raise ExponentOverflow("an exponent needs wider fields")
            v = get(p)
            if v is None:
                f[p] = -b * ct
                heappush(heap, -p)
            else:
                f[p] = v - b * ct
    return r, multiplier


def _multiply(f, g, guard):
    out = {}
    for m, c in f.items():
        for n, d in g.items():
            p = m + n
            if p & guard:
                raise ExponentOverflow("an exponent needs wider fields")
            out[p] = out.get(p, 0) + c * d
    return {m: c for m, c in out.items() if c}


def _buchberger(f, ring):
    """The reduced basis of the ideal of f, packed in ring."""
    guard, low = ring.guard, ring.bits - 1

    def divides(a, b):
        return ((b | guard) - a) & guard == guard

    def lcm(a, b):
        # the fields where a >= b keep their guard bit in (a | G) - b
        keep = ((a | guard) - b) & guard
        mask = keep - (keep >> low)
        return (a & mask) | (b & ~mask)

    # interreduce the input, [BW] page 203
    f1 = [_primitive(p) for p in f if p]
    while True:
        f, f1 = f1, []
        divisors = [_divisor(p) for p in f]
        for i, p in enumerate(f):
            r = _reduce(p, divisors[:i], guard)[0]
            if r:
                f1.append(_primitive(r))
        if f == f1:
            break
    if not f:
        return []
    lms = [d[0] for d in divisors]

    def update(G, B, ih):
        # Gebauer-Moeller, [BW] page 230
        mh = lms[ih]
        C, D = set(G), set()
        while C:
            ig = C.pop()
            mg = lms[ig]
            lcm_hg = lcm(mh, mg)
            if mh + mg == lcm_hg or (
                    not any(divides(lcm(mh, lms[ip]), lcm_hg) for ip in C)
                    and not any(divides(lcm(mh, lms[jg]), lcm_hg)
                                for _, jg in D)):
                D.add((ih, ig))
        E = {(ih, ig) for _, ig in D if mh + lms[ig] != lcm(mh, lms[ig])}
        B_new = set()
        for pair in B:
            mg1, mg2 = lms[pair[0]], lms[pair[1]]
            lcm12 = lcm(mg1, mg2)
            if (not divides(mh, lcm12) or lcm(mg1, mh) == lcm12
                    or lcm(mg2, mh) == lcm12):
                B_new.add(pair)
        G_new = {ig for ig in G if not divides(mh, lms[ig])}
        G_new.add(ih)
        return G_new, B_new | E

    G, pairs = set(), set()
    for i in sorted(range(len(f)), key=lms.__getitem__):
        G, pairs = update(G, pairs, i)
    while pairs:
        pair = min(pairs, key=lambda p: lcm(lms[p[0]], lms[p[1]]))
        pairs.remove(pair)
        lm1, lc1, tail1 = divisors[pair[0]]
        lm2, lc2, tail2 = divisors[pair[1]]
        ell = lcm(lm1, lm2)
        d = gcd(lc1, lc2)
        s = _multiply({ell - lm1: lc2 // d}, dict(tail1), guard)
        for m, c in _multiply({ell - lm2: -(lc1 // d)},
                              dict(tail2), guard).items():
            s[m] = s.get(m, 0) + c
        # the divisors by ascending leading monomial, which on average
        # reduces faster (Cox, Little, O'Shea, p. 111)
        h = _reduce(s, [divisors[g] for g in sorted(G, key=lms.__getitem__)],
                    guard)[0]
        if h:
            h = _primitive(h)
            f.append(h)
            divisors.append(_divisor(h))
            lms.append(divisors[-1][0])
            G, pairs = update(G, pairs, len(f) - 1)
    # reducing each element by the rest makes the basis reduced; an
    # element whose leading monomial another one divides reduces to zero
    order = sorted(G, key=lms.__getitem__)
    reduced = [_reduce(f[i], [divisors[g] for g in order if g != i], guard)[0]
               for i in order]
    return [_primitive(r) for r in reversed(reduced) if r]


class Basis:
    """A reduced lex basis: ring packs its monomials, polys holds its
    elements (primitive, positive leading coefficient) by descending
    leading monomial."""

    __slots__ = ("ring", "polys", "_work")

    def __init__(self, ring, polys):
        self.ring, self.polys = ring, polys
        # the ring and divisors normal forms are computed in; they widen
        # when a reduction overflows
        self._work = ring, self._divisors(ring)

    def _divisors(self, ring):
        """The elements packed in ring, by ascending leading monomial."""
        return sorted((_divisor(ring.pack_poly(p, self.ring))
                       for p in self.polys), key=lambda d: d[0])

    def is_unit(self):
        return self.polys == [{0: 1}]

    def leads(self):
        """The leading monomials, as exponent tuples."""
        return [self.ring.unpack(max(p)) for p in self.polys]

    def elements(self):
        """The elements, keyed by exponent tuples."""
        return [{self.ring.unpack(m): c for m, c in p.items()}
                for p in self.polys]

    def normal_form(self, f, times=None):
        """(r, a) with r / a the normal form of f (times `times`, when
        given) over Q; f, times and r are packed in self.ring, and a is a
        positive int.  The monomials of r are standard, so on a
        zero-dimensional basis they fit self.ring even when the reduction
        needed wider fields."""
        while True:
            ring, divisors = self._work
            try:
                g = ring.pack_poly(f, self.ring)
                if times is not None:
                    g = _multiply(g, ring.pack_poly(times, self.ring),
                                  ring.guard)
                r, a = _reduce(g, divisors, ring.guard)
                break
            except ExponentOverflow:
                wider = Ring(ring.nvars, 2 * ring.bits)
                self._work = wider, self._divisors(wider)
        return self.ring.pack_poly(r, ring), a


def groebner(polys, nvars):
    """The reduced lex Basis of the ideal generated by polys, dicts from
    exponent tuples of length nvars (the first unknown greatest) to ints.
    An empty ideal has no elements; the unit ideal has the element 1."""
    degree = max((e for p in polys for m in p for e in m), default=0)
    bits = (2 * degree).bit_length() + 1
    while True:
        ring = Ring(nvars, bits)
        try:
            return Basis(ring, _buchberger([ring.pack_poly(p) for p in polys],
                                           ring))
        except ExponentOverflow:
            bits *= 2
