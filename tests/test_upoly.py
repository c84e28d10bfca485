"""Univariate polynomial layer: arithmetic, gcd, square-free structure, Sturm."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from ruledsym.algnum import alg_sqrt
from ruledsym.errors import ZeroInput
from ruledsym.mpoly import MultiPoly
from ruledsym.ratfunc import RatFunc, homogenized_eval
from ruledsym.upoly import UniPoly, factor_rational, frac_gcd, poly_gcd, poly_lcm

T = UniPoly.x()
TSYM = sympy.Symbol("t")


def P(*coeffs):
    return UniPoly(coeffs)


def test_construction_trims_and_degrees():
    assert P(0, 0, 0).is_zero()
    assert P().degree() == -1
    assert P(1, 2, 0).degree() == 1
    assert P(5).degree() == 0
    assert (T ** 4).coeff(4) == 1
    assert (T ** 4).coeff(2) == 0


def test_arithmetic_ring_axioms_random():
    rng = random.Random(7)

    def rand_poly():
        return UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(rng.randint(0, 6))])

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        q, r = (a * b + c).divmod(b) if not b.is_zero() else (None, None)
        if q is not None:
            assert q * b + r == a * b + c
            assert r.is_zero() or r.degree() < b.degree()


def test_gcd_examples():
    # shared root at t = 1
    assert poly_gcd(T * T - 1, T - 1) == T - 1
    # gcd with zero is the monic other argument
    assert poly_gcd(UniPoly(), 3 * T + 6) == T + 2
    # the standard direction triple is relatively prime as a whole
    q1 = 2 * T * (T ** 4 - 6 * T ** 2 + 1)
    q2 = -(T ** 6) + 7 * T ** 4 - 7 * T ** 2 + 1
    q3 = (T ** 2 + 1) ** 3
    assert poly_gcd(poly_gcd(q1, q2), q3) == P(1)


def test_gcd_random_planted_factors():
    rng = random.Random(123)
    for _ in range(40):
        g = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        a = g * UniPoly([rng.randint(-4, 4) for _ in range(3)] + [1])
        b = g * UniPoly([rng.randint(-4, 4) for _ in range(3)] + [1])
        got = poly_gcd(a, b)
        # the planted factor divides the computed gcd
        _, r = got.divmod(g.monic())
        assert r.is_zero()
        qa, ra = a.divmod(got)
        qb, rb = b.divmod(got)
        assert ra.is_zero() and rb.is_zero()


def test_lcm():
    assert poly_lcm(T - 1, T + 1) == T * T - 1
    assert poly_lcm(T, T * T) == T * T


def test_divmod_exactness_flag():
    q = (T ** 3 + 2 * T + 1) // (T ** 3 + 2 * T + 1)
    assert q == P(1)


def test_squarefree_decomposition():
    w = (T ** 4 - 6 * T ** 2 + 1) ** 2 + (T ** 2 + 1) ** 4
    m = (T * T + 1) ** 2 * w
    dec = m.squarefree_decomposition()
    assert sorted(mult for _, mult in dec) == [1, 2]
    by_mult = {mult: f for f, mult in dec}
    assert by_mult[2] == T * T + 1
    assert by_mult[1] == w.monic()
    # squarefree input comes back whole
    dec2 = (T ** 2 + 3).squarefree_decomposition()
    assert dec2 == [(T ** 2 + 3, 1)]
    # t^2 * (t-1)^3
    dec3 = (T ** 2 * (T - 1) ** 3).squarefree_decomposition()
    assert dict((m_, f) for f, m_ in dec3) == {2: T, 3: T - 1}


def test_sturm_root_counts():
    sf = (T - 1) * (T + 1) * T  # roots -1, 0, 1
    b = sf.cauchy_bound()
    assert sf.count_roots(-b, b) == 3
    assert sf.count_roots(Fraction(-1, 2), b) == 2
    assert sf.count_roots(Fraction(1, 2), b) == 1
    # no real roots
    assert (T * T + 1).count_roots(-10, 10) == 0
    # irrational pair
    assert (T * T - 3).count_roots(-2, 2) == 2
    assert (T * T - 3).count_roots(0, 2) == 1


def test_eval_and_compose():
    p = T ** 2 + 2 * T + 3
    assert p(Fraction(1, 2)) == Fraction(1, 4) + 1 + 3
    comp = p(T + 1)
    assert comp == T ** 2 + 4 * T + 6
    assert p(UniPoly()) == P(3)


def test_content_primitive():
    p = UniPoly([Fraction(2, 3), Fraction(4, 3), 2])
    prim, c = p.primitive()
    assert c == Fraction(2, 3)
    assert prim == P(1, 2, 3)
    assert frac_gcd(Fraction(2, 3), Fraction(4, 9)) == Fraction(2, 9)


def test_factor_rational():
    unit, factors = factor_rational(2 * (T ** 2 - 1) * (T ** 2 + 1))
    assert unit == 2
    assert (T - 1, 1) in factors and (T + 1, 1) in factors and (T ** 2 + 1, 1) in factors
    unit2, factors2 = factor_rational((3 * T - 1) ** 2)
    assert unit2 == 9
    assert factors2 == [(T - Fraction(1, 3), 2)]


def test_render_round_trip_shape():
    p = -(T ** 8) - 1
    assert p.render() == "-t^8 - 1"
    assert (2 * T).render() == "2*t"
    assert UniPoly().render() == "0"
    assert P(Fraction(-1, 2), 1).render() == "t - 1/2"


def test_exactness_checks_raise_under_optimization():
    # an inexact division, a homogenisation degree below the degree of the
    # polynomial, a variable that a projection or a univariate view would
    # drop, a sum over two variable spaces, an exponent that does not fit
    # the variables, the constant value of a nonconstant polynomial or
    # rational function and the polynomial view of a proper fraction must
    # raise even with asserts compiled away
    code = (
        "from ruledsym.errors import PreconditionViolation\n"
        "from ruledsym.mpoly import MultiPoly, project\n"
        "from ruledsym.ratfunc import RatFunc, homogenized_eval\n"
        "from ruledsym.upoly import UniPoly\n"
        "t = UniPoly([0, 1])\n"
        "s = MultiPoly.var(('s', 'alpha'), 's')\n"
        "for attempt in (lambda: (t * t + 1) // (t + 1),\n"
        "                lambda: homogenized_eval(t * t, t, t + 1, 1),\n"
        "                lambda: project(s, ('alpha',)),\n"
        "                lambda: s.to_unipoly('alpha'),\n"
        "                lambda: s + MultiPoly.var(('s',), 's'),\n"
        "                lambda: MultiPoly(('s',), {(1, 0): 1}),\n"
        "                lambda: (s + 1).const_value(),\n"
        "                lambda: (t + 1).const_value(),\n"
        "                lambda: RatFunc(t + 1).const_value(),\n"
        "                lambda: RatFunc(t, t + 1).as_unipoly()):\n"
        "    try:\n"
        "        attempt()\n"
        "    except PreconditionViolation:\n"
        "        print('raised')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 10


def test_zero_polynomials_and_bad_exponents_raise():
    for attempt in (P().squarefree_decomposition, P().cauchy_bound,
                    lambda: factor_rational(P())):
        with pytest.raises(ZeroInput):
            attempt()
    s = MultiPoly.var(("s",), "s")
    for attempt in (lambda: T ** -1, lambda: s ** -1, lambda: s ** 0.5,
                    lambda: RatFunc(T) ** 0.5):
        with pytest.raises(ValueError):
            attempt()


# ---- the rational kernel against sympy ----

SQRT2 = alg_sqrt(Fraction(2))

rationals = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    # large heights and denominators
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 25)),
)
polys = st.lists(rationals, max_size=6).map(UniPoly)


def to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)] or [0], TSYM, domain="QQ")


def from_sympy(sp):
    return UniPoly([Fraction(c.p, c.q) for c in reversed(sp.all_coeffs())])


def in_q_sqrt2(expr):
    """A sympy number a + b*sqrt(2) as an element of Q(sqrt 2)."""
    a, rest = sympy.expand(expr).as_independent(sympy.sqrt(2), as_Add=True)
    b = rest / sympy.sqrt(2)
    assert a.is_Rational and b.is_Rational
    return Fraction(a.p, a.q) + Fraction(b.p, b.q) * SQRT2


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys, st.integers(0, 2))
@example(UniPoly(), UniPoly([3]), UniPoly(), 0)
@example(UniPoly([Fraction(1, 3)]), UniPoly([Fraction(-5, 7)]),
         UniPoly([Fraction(2, 9)]), 2)
def test_rational_kernel_matches_sympy(a, b, p, pad):
    sa, sb = to_sympy(a), to_sympy(b)
    assert a * b == from_sympy(sa * sb)
    want = sa.gcd(sb)
    assert a.gcd(b) == (from_sympy(want.monic()) if not want.is_zero
                        else UniPoly())
    # den^m p(num/den) for num = a and den = b, by the definition
    m = max(p.degree(), 0) + pad
    terms = [sympy.Rational(c.numerator, c.denominator) * sa ** i
             * sb ** (m - i) for i, c in enumerate(p.coeffs)]
    want = from_sympy(sum(terms, to_sympy(UniPoly())))
    assert homogenized_eval(p, a, b, m) == want
    # the generic Horner loop, with the same values as MultiPolys in t
    a_gen, b_gen = (MultiPoly.from_unipoly(("t",), "t", x) for x in (a, b))
    assert homogenized_eval(p, a_gen, b_gen, m) == \
        MultiPoly.from_unipoly(("t",), "t", want)
    # one product through the generic loop, with coefficients in Q(sqrt 2)
    shift = UniPoly([SQRT2, 1])
    got = a * shift
    ref = (sa * sympy.Poly(TSYM + sympy.sqrt(2), TSYM)).all_coeffs()
    ref = [in_q_sqrt2(c) for c in reversed(ref)] if not a.is_zero() else []
    assert len(got.coeffs) == len(ref)
    assert all(x == y for x, y in zip(got.coeffs, ref))
