from fractions import Fraction

from ruledsym.mpoly import MultiPoly
from ruledsym.upoly import UniPoly

from conftest import substitute_poly

V3 = ("t", "a", "b")


def test_arithmetic_and_substitution():
    t = MultiPoly.var(V3, "t")
    a = MultiPoly.var(V3, "a")
    f = (t + a) * (t - a)
    assert f == t * t - a * a
    assert f.substitute_values({"a": Fraction(3)}) == t * t - 9
    assert f.eval({"t": Fraction(5), "a": Fraction(3)}) == 16
    g = substitute_poly(f, "t", a + 1)
    assert g == (a + 1) * (a + 1) - a * a
    assert t ** 3 == t * t * t


def test_eval_substitutes_polynomials_simultaneously():
    xyz = ("x", "y", "z")
    x, y = MultiPoly.var(xyz, "x"), MultiPoly.var(xyz, "y")
    F = x * x + y
    out = F.eval({"x": x + y, "y": x})
    assert out == (x + y) ** 2 + x
    # a zero form substitutes to the zero polynomial, not to a number
    zero = MultiPoly(xyz).eval({"x": x + y, "y": x, "z": y})
    assert isinstance(zero, MultiPoly) and zero.is_zero()


def test_univar_views_round_trip():
    t = MultiPoly.var(V3, "t")
    a = MultiPoly.var(V3, "a")
    f = t ** 2 * a + t * (a ** 2 - 1) + 3
    coeffs = f.as_univar("t")
    assert len(coeffs) == 3
    assert coeffs[2] == a
    assert coeffs[0] == MultiPoly.const(V3, 3)
    u = UniPoly([1, 0, 2])
    lifted = MultiPoly.from_unipoly(V3, "t", u)
    assert lifted.to_unipoly("t") == u
