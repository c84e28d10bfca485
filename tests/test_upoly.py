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
from ruledsym import upoly as upoly_module
from ruledsym.mpoly import MultiPoly
from ruledsym.parser import parse_unipoly
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


# ---- factorisation against sympy ----

def sympy_factor(p):
    """factor_rational's result, from sympy's factor_list over QQ."""
    _, factors = to_sympy(p).factor_list()
    out = [(from_sympy(f).monic(), int(m)) for f, m in factors]
    out.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
    return (p.lead(), out)


# the distinct polynomials that tier-1 factors, the zero polynomial of
# test_zero_polynomials_and_bad_exponents_raise left out
TIER1_FACTORED = [
    't',
    't - 2',
    't - 6',
    '9*t^2 - 6*t + 1',
    't^2 + 1',
    't^2 + 14*t + 45',
    't^2 + 2*t - 8',
    't^2 + 3*t - 10',
    't^2 + t - 6',
    't^2 - 1',
    't^2 - 14*t + 45',
    't^2 - 2',
    't^2 - 2*t',
    't^2 - 2*t - 3',
    't^2 - 2/3*t - 26/9',
    't^2 - 225/16',
    't^2 - 4',
    't^2 - 48',
    't^2 - 9',
    't^2 - t',
    '2*t^3 - t^2 - 4*t + 2',
    't^3 - 109/4*t^2 + 206/105*t',
    't^3 - 9*t^2 + 26*t - 24',
    '2*t^4 - 2',
    't^4 + 4*t^3 - 10500*t^2 - 54288*t + 10160640',
    't^4 + 4*t^3 - 472/3*t^2 - 968/3*t + 6716/3',
    't^4 - 10*t^2 + 1',
    't^4 - 10248*t^2 - 32768*t + 9396240',
    't^4 - 105/2*t^3 + 1118309/1680*t^2 + 9829/16*t - 299/4',
    't^4 - 1125/2048*t^2 + 15625/16777216',
    't^4 - 113/105*t^2 + 16/11025',
    't^4 - 113/2*t^3 + 1392989/1680*t^2 - 1475893/1680*t + 12641/420',
    't^4 - 14*t^2 + 9',
    't^4 - 16*t^2 + 4',
    't^4 - 2*t^2 - 4*t',
    't^4 - 20*t^2 + 36',
    't^4 - 260/3*t^2 + 1024/9',
    't^4 - 28*t^2 + 100',
    't^4 - 30*t^2 + 81',
    't^4 - 32*t^2 - 144',
    't^4 - 392/9*t^2 - 64/9*t + 35332/81',
    't^4 - 4*t^3 - 264*t^2 + 536*t + 6292',
    't^4 - 5/4*t^2 + 5/16',
    't^5 - 6*t^4 + 7*t^3 + 12*t^2 - 18*t',
    't^6 + 42*t^5 + 593*t^4 + 3012*t^3 + 972*t^2 - 19440*t',
    't^6 - 142*t^4 + 128*t^3 + 4017*t^2 - 512*t - 13860',
    't^6 - 81*t^4 - 4*t^3 + 2187*t^2 - 324*t - 19679',
    't^6 - 9*t^4 - 4*t^3 + 27*t^2 - 36*t - 23',
    ('t^8 + 71/8*t^7 - 1658001/5120*t^6 - 102170351/163840*t^5'
     ' + 7322317748323/209715200*t^4 - 495283565911871/3355443200*t^3'
     ' - 114638569911198961/2147483648000*t^2'
     ' + 46734056523171595191/68719476736000*t'
     ' + 84219721204102858057921/175921860444160000'),
    ('t^8 - 121/8*t^7 - 666641/5120*t^6 + 39802845/32768*t^5'
     ' + 2277255912803/209715200*t^4 + 48077499364993/3355443200*t^3'
     ' - 97255721757133681/2147483648000*t^2'
     ' - 4326658985964230537/68719476736000*t'
     ' + 13332829674229546219201/175921860444160000'),
    ('t^8 - 1514/5*t^6 + 2624/5*t^5 + 372531/25*t^4 - 168448/25*t^3'
     ' - 23129854/125*t^2 - 10288576/125*t + 129065081/625'),
    't^8 - 40*t^6 + 352*t^4 - 960*t^2 + 576',
    't^8 - 44*t^6 + 438*t^4 - 1292*t^2 + 529',
    ('t^16 - 144*t^14 + 7296*t^12 - 170368*t^10 + 1939584*t^8'
     ' - 10343424*t^6 + 22749184*t^4 - 13885440*t^2 + 921600'),
]

# Swinnerton-Dyer polynomials: irreducible, with factors of degree at most
# 2 modulo every prime, so recombination tries every small subset
SWINNERTON_DYER = {
    # roots +-sqrt 2 +- sqrt 3 +- sqrt 5
    8: "t^8 - 40*t^6 + 352*t^4 - 960*t^2 + 576",
    # roots +-sqrt 2 +- sqrt 3 +- sqrt 5 +- sqrt 7
    16: ("t^16 - 136*t^14 + 6476*t^12 - 141912*t^10 + 1513334*t^8"
         " - 7453176*t^6 + 13950764*t^4 - 5596840*t^2 + 46225"),
}


@pytest.mark.parametrize("text", TIER1_FACTORED)
def test_factor_rational_matches_sympy_on_tier1(text):
    p = parse_unipoly(text)
    assert factor_rational.__wrapped__(p) == sympy_factor(p)


def test_factor_rational_matches_sympy_on_random_products():
    # repeated and shared factors, non-monic, coefficients up to 10^12
    rng = random.Random(11)
    for _ in range(150):
        height = rng.choice((3, 40, 10 ** 12))
        pool = [UniPoly([rng.randint(-height, height)
                         for _ in range(rng.randint(1, 5))]
                        + [rng.randint(1, height)])
                for _ in range(3)]
        p = UniPoly([Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))])
        while True:
            f, e = rng.choice(pool), rng.randint(1, 3)
            if p.degree() + f.degree() * e > 16:
                break
            p = p * f ** e
        assert factor_rational.__wrapped__(p) == sympy_factor(p), p


@pytest.mark.parametrize("degree", sorted(SWINNERTON_DYER))
def test_factor_rational_recombines_swinnerton_dyer(degree, monkeypatch):
    seen = []
    recombine = upoly_module._recombine

    def spy(f, lifts, modulus):
        seen.append(len(lifts))
        return recombine(f, lifts, modulus)

    monkeypatch.setattr(upoly_module, "_recombine", spy)
    p = parse_unipoly(SWINNERTON_DYER[degree])
    assert factor_rational.__wrapped__(p) == (Fraction(1), [(p, 1)])
    assert len(seen) == 1 and seen[0] >= degree // 2
    assert sympy_factor(p) == (Fraction(1), [(p, 1)])
