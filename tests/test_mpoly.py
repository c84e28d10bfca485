import random
from fractions import Fraction

import pytest
import sympy

from ruledsym.mpoly import (
    MultiPoly,
    exact_div,
    mp_gcd,
    prem,
)
from ruledsym.upoly import UniPoly

V3 = ("t", "a", "b")


def P(expr_terms):
    return MultiPoly(V3, expr_terms)


def t_pow(k):
    return MultiPoly.var(V3, "t", k)


def rand_poly(rng, vars, max_deg, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[exp] = Fraction(rng.randint(-9, 9))
    return MultiPoly(vars, terms)


def to_sympy(p, syms):
    expr = 0
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exp):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def test_arithmetic_and_substitution():
    t = MultiPoly.var(V3, "t")
    a = MultiPoly.var(V3, "a")
    f = (t + a) * (t - a)
    assert f == t * t - a * a
    assert f.substitute_values({"a": Fraction(3)}) == t * t - 9
    assert f.eval({"t": Fraction(5), "a": Fraction(3)}) == 16
    g = f.substitute_poly("t", a + 1)
    assert g == (a + 1) * (a + 1) - a * a
    assert (t ** 3).derivative("t") == 3 * t * t
    assert f.derivative("a") == -2 * a


def test_univar_views_round_trip():
    t = MultiPoly.var(V3, "t")
    a = MultiPoly.var(V3, "a")
    f = t ** 2 * a + t * (a ** 2 - 1) + 3
    coeffs = f.as_univar("t")
    assert len(coeffs) == 3
    assert coeffs[2] == a
    assert MultiPoly.from_univar(coeffs, "t") == f
    u = UniPoly([1, 0, 2])
    lifted = MultiPoly.from_unipoly(V3, "t", u)
    assert lifted.to_unipoly("t") == u


def test_exact_division():
    t = MultiPoly.var(V3, "t")
    a = MultiPoly.var(V3, "a")
    f = (t + a) ** 3 * (t - 2)
    assert exact_div(f, (t + a) ** 2) == (t + a) * (t - 2)
    with pytest.raises(ValueError):
        exact_div(f, t + a + 1)


def test_prem_matches_definition():
    rng = random.Random(11)
    vars = ("t", "a")
    t = MultiPoly.var(vars, "t")
    for _ in range(20):
        f = rand_poly(rng, vars, 4, 5)
        g = rand_poly(rng, vars, 3, 4) + t ** 2
        df, dg = f.degree_in("t"), g.degree_in("t")
        if df < dg:
            continue
        r = prem(f, g, "t")
        lg = g.as_univar("t")[-1]
        scaled = f * lg ** (df - dg + 1)
        diff = scaled - r
        # the difference must be divisible by g as a polynomial in t
        q, rem = _poly_divmod_in_t(diff, g)
        assert rem.is_zero()
        assert r.degree_in("t") < dg


def _poly_divmod_in_t(f, g):
    # division over the rational-function field in the remaining variables is
    # not available here, so check divisibility via prem with unit adjustments
    r = prem(f, g, "t")
    return None, r if not r.is_zero() else MultiPoly(f.vars)


def test_mp_gcd_and_squarefree():
    vars = ("x", "y")
    x = MultiPoly.var(vars, "x")
    y = MultiPoly.var(vars, "y")
    f = (x + y) ** 2 * (x - y)
    g = (x + y) * (x + 1)
    got = mp_gcd(f, g)
    assert got == (x + y).normalized()
    # f divided by its gcd with df/dx is its square-free part
    sf = exact_div(f, mp_gcd(f, f.derivative("x")))
    assert sf.normalized() == ((x + y) * (x - y)).normalized()
    # gcd with disjoint factors is constant
    assert mp_gcd(x + 1, y + 1).is_constant()


def test_mp_gcd_against_sympy_random():
    rng = random.Random(63)
    vars = ("x", "y")
    syms = sympy.symbols("x y")
    for _ in range(10):
        common = rand_poly(rng, vars, 2, 3)
        if common.is_zero() or common.is_constant():
            continue
        f = common * rand_poly(rng, vars, 2, 3)
        g = common * rand_poly(rng, vars, 2, 3)
        if f.is_zero() or g.is_zero():
            continue
        ours = to_sympy(mp_gcd(f, g), syms)
        theirs = sympy.gcd(to_sympy(f, syms), to_sympy(g, syms))
        q = sympy.simplify(ours / theirs)
        assert q.is_constant()


def test_normalized_and_content():
    vars = ("x", "y")
    x = MultiPoly.var(vars, "x")
    f = -6 * x ** 2 + 4 * x - 2
    n = f.normalized()
    assert n == 3 * x ** 2 - 2 * x + 1
    assert f.rational_content() == Fraction(2)
