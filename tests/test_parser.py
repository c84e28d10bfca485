from fractions import Fraction

import pytest

from ruledsym.errors import ParseError
from ruledsym.mpoly import MultiPoly
from ruledsym.parser import parse_multipoly, parse_ratfunc, parse_unipoly
from ruledsym.ratfunc import RatFunc, homogenized_eval, mobius
from ruledsym.upoly import UniPoly


def test_basic_polynomials():
    assert parse_unipoly("t^2 - 2*t + 1") == UniPoly([1, -2, 1])
    assert parse_unipoly("-t^8 - 1") == UniPoly([-1, 0, 0, 0, 0, 0, 0, 0, -1])
    assert parse_unipoly("(t - 1)*(t + 1)") == UniPoly([-1, 0, 1])
    assert parse_unipoly("2") == UniPoly.const(2)
    assert parse_unipoly("t/2 - 1/3") == UniPoly([Fraction(-1, 3), Fraction(1, 2)])


def test_precedence_and_unary():
    assert parse_unipoly("-t^2") == UniPoly([0, 0, -1])
    assert parse_unipoly("(-t)^2") == UniPoly([0, 0, 1])
    assert parse_unipoly("2*t^3 - -1") == UniPoly([1, 0, 0, 2])
    assert parse_unipoly("1/2*t") == UniPoly([0, Fraction(1, 2)])
    assert parse_unipoly("t**3 + t") == UniPoly([0, 1, 0, 1])


def test_decimals_are_exact():
    assert parse_unipoly("0.25*t") == UniPoly([0, Fraction(1, 4)])


def test_rational_functions():
    r = parse_ratfunc("(t^2 - 1)/(t^2 + 1)")
    assert r.num == UniPoly([-1, 0, 1])
    assert r.den == UniPoly([1, 0, 1])
    # reduction to lowest terms
    s = parse_ratfunc("(t^2 - 1)/(t - 1)")
    assert s.is_polynomial() and s.as_unipoly() == UniPoly([1, 1])
    assert parse_ratfunc("1/t")(Fraction(4)) == Fraction(1, 4)


def test_multivariate():
    f = parse_multipoly("x^2 + y^2 + z^2 - 1", ("x", "y", "z"))
    assert f.degree_in("x") == 2 and f.total_degree() == 2
    g = parse_multipoly("x*y/2", ("x", "y", "z"))
    assert g == MultiPoly(("x", "y", "z"), {(1, 1, 0): Fraction(1, 2)})


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_unipoly("t +")
    with pytest.raises(ParseError):
        parse_unipoly("t^(1/2)")
    with pytest.raises(ParseError):
        parse_unipoly("2t")  # implicit multiplication is not supported
    with pytest.raises(ParseError):
        parse_unipoly("u + 1", var="t")
    with pytest.raises(ParseError):
        parse_unipoly("1/t")  # true denominator
    with pytest.raises(ParseError):
        parse_multipoly("x/y", ("x", "y"))
    with pytest.raises(ParseError):
        parse_ratfunc("1/(t - t)")
    with pytest.raises(ParseError):
        parse_ratfunc("")
    with pytest.raises(ParseError):
        parse_ratfunc("t $ 2")


def test_ratfunc_arithmetic():
    t = RatFunc.x()
    one = RatFunc.const(1)
    f = (t - 1) / (t + 1)
    g = (t + 1) / (t - 1)
    assert f * g == one
    assert f + g != one
    assert (f / f) == 1
    assert (t ** -2) == RatFunc(UniPoly.const(1), UniPoly([0, 0, 1]))
    assert -f == (1 - t) / (t + 1)


def test_ratfunc_compose_and_mobius():
    f = parse_ratfunc("(t^2 + 1)/t")
    m = mobius(0, 1, 1, 0)  # t -> 1/t
    c = _compose(f, m)
    assert c == f  # this particular f is symmetric under inversion
    g = parse_ratfunc("t^2")
    shifted = _compose(g, mobius(1, 3, 0, 1))  # t -> t + 3
    assert shifted.is_polynomial()
    assert shifted.as_unipoly() == UniPoly([9, 6, 1])


def _compose(f, g):
    """f(g(t)) through the homogenized numerator and denominator of f."""
    m = max(f.num.degree(), f.den.degree())
    return RatFunc(homogenized_eval(f.num, g.num, g.den, m),
                   homogenized_eval(f.den, g.num, g.den, m))


def test_homogenized_eval():
    p = UniPoly([1, 0, 1])  # t^2 + 1
    a, b = UniPoly([1, 2]), UniPoly([3, 1])  # (2t+1), (t+3)
    out = homogenized_eval(p, a, b, 2)
    assert out == a * a + b * b
    padded = homogenized_eval(UniPoly([1, 1]), a, b, 3)  # degree padding
    assert padded == b * b * (a + b)


def test_mobius_degenerate():
    from ruledsym.errors import ZeroInput
    with pytest.raises(ZeroInput):
        mobius(1, 2, 2, 4)
    with pytest.raises(ZeroInput):
        mobius(0, 0, 0, 1)
