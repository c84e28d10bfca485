import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ruledsym.algnum import (
    Alg,
    Interval,
    alg_sqrt,
    common_field,
    evaluate_certified,
    isolate_real_roots,
    sign,
)
from ruledsym.errors import PreconditionViolation
from ruledsym.mpoly import MultiPoly
from ruledsym.upoly import UniPoly

SQRT2 = UniPoly([-2, 0, 1])


def sqrt_of(n):
    return alg_sqrt(Fraction(n))


def test_interval_arithmetic():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(-1), Fraction(3))
    assert (a + b).lo == 0 and (a + b).hi == 5
    assert (a * b).lo == -2 and (a * b).hi == 6
    assert (a + 1).lo == 2 and (a * 3).hi == 6
    assert a.width() == 1 and Interval.point(Fraction(5)).width() == 0


def test_sqrt2_basics():
    r = sqrt_of(2)
    assert r.minpoly == SQRT2
    assert isinstance(r, Alg)
    assert 1 < r < 2
    assert abs(float(r) - 2 ** 0.5) < 1e-12
    assert Fraction(sqrt_of(9)) == 3
    assert Fraction(sqrt_of(Fraction(0))) == 0
    with pytest.raises(PreconditionViolation):
        alg_sqrt(Fraction(-1))


def test_sum_of_roots_demotes_to_rational():
    r = sqrt_of(2)
    s = -r
    assert Fraction(r + s) == 0
    assert Fraction(r * r) == 2
    assert Fraction(r * (1 / r)) == 1


def test_sqrt2_plus_sqrt3():
    v = sqrt_of(2) + sqrt_of(3)
    # minimal polynomial of sqrt(2)+sqrt(3) is x^4 - 10 x^2 + 1
    assert v.minpoly == UniPoly([1, 0, -10, 0, 1])
    assert abs(float(v) - (2 ** 0.5 + 3 ** 0.5)) < 1e-10


def test_product_and_quotient():
    v = sqrt_of(2) * sqrt_of(3)
    assert v == sqrt_of(6)
    w = sqrt_of(8) / sqrt_of(2)
    assert Fraction(w) == 2


def test_rational_shift_and_scale():
    r = sqrt_of(2)
    v = 2 * r - 1
    assert v.minpoly == UniPoly([-7, 2, 1])  # (x+1)^2 = 8
    assert abs(float(v) - (2 * 2 ** 0.5 - 1)) < 1e-10
    assert (r / 2).minpoly == UniPoly([Fraction(-1, 2), 0, 1])


def test_order_and_sign():
    r2, r3 = sqrt_of(2), sqrt_of(3)
    assert r2 < r3 and r3 > r2
    assert sign(-r2) == -1 and sign(r2) == 1
    assert sorted([r3, Fraction(1), -r2, r2]) == [-r2, Fraction(1), r2, r3]
    assert abs(-r2) == r2


def test_equality_across_intervals():
    a = Alg._make(SQRT2, Fraction(1), Fraction(2))
    b = Alg._make(SQRT2, Fraction(5, 4), Fraction(100))
    assert a == b
    c = Alg._make(SQRT2, Fraction(-2), Fraction(0))
    assert a != c
    assert hash(a) == hash(b)


def test_refine_rejects_a_rational_midpoint_root_under_optimization():
    # (x - 1)(x^2 - 2) is not a minimal polynomial: bisecting (0, 2) lands
    # on its root 1, which must raise even with asserts compiled away
    code = (
        "from fractions import Fraction\n"
        "from ruledsym.algnum import Alg\n"
        "from ruledsym.errors import PreconditionViolation\n"
        "from ruledsym.upoly import UniPoly\n"
        "forged = Alg._make(UniPoly([-1, 1]) * UniPoly([-2, 0, 1]),\n"
        "                   Fraction(0), Fraction(2))\n"
        "try:\n"
        "    forged.field.refine()\n"
        "except PreconditionViolation:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_joins_are_computed_once_per_pair_of_fields():
    r3, again, r12, r2 = sqrt_of(3), sqrt_of(3), sqrt_of(12), sqrt_of(2)
    # the same generator twice: the first field serves both
    assert (r3 + again).field is r3.field
    # Q(sqrt 12) is Q(sqrt 3): the two meet in a quadratic field
    s = r12 + r3
    assert s.field.degree == 2 and s.minpoly == UniPoly([-27, 0, 1])
    # Q(sqrt 2, sqrt 3) has degree four; the join is cached on both fields
    joined = r2.field.join(r3.field)
    assert joined[0].degree == 4
    assert r2.field.join(r3.field) is joined
    assert r3.field.join(r2.field)[0] is joined[0]
    assert (r2 * r3).field is joined[0]


def test_common_field_folds_three_fields_into_one():
    values = [sqrt_of(2), Fraction(1, 2), sqrt_of(3), sqrt_of(5), sqrt_of(8)]
    field, coords = common_field(values)
    assert field.degree == 8
    assert all(len(c) == 8 for c in coords)
    assert coords[1] == (Fraction(1, 2),) + (Fraction(0),) * 7
    # every value is recovered from its coordinates in the one field
    for v, c in zip(values, coords):
        assert field.element(c) == v
    assert isinstance(field.element(coords[1]), Fraction)
    assert common_field([Fraction(2), Fraction(3)]) == (None, [(2,), (3,)])


def test_isolate_real_roots():
    p = UniPoly([-2, 0, 1]) * UniPoly([0, 1]) * UniPoly([-3, 1]) ** 2
    roots = isolate_real_roots(p)
    vals = [float(r) for r in roots]
    assert len(roots) == 4
    assert abs(vals[0] + 2 ** 0.5) < 1e-9
    assert roots[1] == 0
    assert abs(vals[2] - 2 ** 0.5) < 1e-9
    assert roots[3] == 3
    assert isolate_real_roots(UniPoly([1, 0, 1])) == []


def test_rational_results_are_fractions():
    # a rational value is always a Fraction, never an int or an Alg
    roots = isolate_real_roots(UniPoly([-2, 0, 1]) * UniPoly([-1, 2]))
    assert [type(r) for r in roots] == [Alg, Fraction, Alg]
    assert roots[1] == Fraction(1, 2)
    r = sqrt_of(2)
    rational = [alg_sqrt(Fraction(9, 4)), alg_sqrt(0), r * r, r - r,
                (1 / r) * r, r ** 0, r * 0, 0 * r]
    assert all(type(v) is Fraction for v in rational)
    assert rational[0] == Fraction(3, 2) and rational[4] == 1


def test_evaluate_certified_zero_and_nonzero():
    vars = ("u", "v")
    u = MultiPoly.var(vars, "u")
    v = MultiPoly.var(vars, "v")
    r2, r3 = sqrt_of(2), sqrt_of(3)
    # u^2 v^2 - 6 vanishes at (sqrt2, sqrt3)
    assert evaluate_certified(u ** 2 * v ** 2 - 6, {"u": r2, "v": r3})
    assert not evaluate_certified(u * v - 2, {"u": r2, "v": r3})
    # u*v - sqrt(6) is a true zero that needs the exact fallback
    prod = sqrt_of(6)
    expr = u * v - 1
    shifted = {"u": r2 * r3, "v": 1 / prod}
    assert evaluate_certified(expr, shifted)


def test_evaluate_certified_rational_points():
    vars = ("u",)
    u = MultiPoly.var(vars, "u")
    assert evaluate_certified(u ** 2 - 4, {"u": Fraction(2)})
    assert not evaluate_certified(u ** 2 - 4, {"u": Fraction(3)})


def test_random_arith_consistency():
    rng = random.Random(17)
    pool = [sqrt_of(2), sqrt_of(3), sqrt_of(5), Fraction(1, 3)]
    for _ in range(12):
        a, b = rng.choice(pool), rng.choice(pool)
        s = a + b
        d = s - b
        assert d == a
        p = a * b
        if sign(b) != 0:
            q = p / b
            assert q == a
        fa, fb = float(a), float(b)
        assert abs(float(s) - (fa + fb)) < 1e-9
        assert abs(float(p) - fa * fb) < 1e-9


# Generators of Q(sqrt 2), Q(sqrt 3), Q(cbrt 2) and Q(sqrt 12) = Q(sqrt 3),
# with their float values; elements are drawn on the power basis.
FIELDS = {
    "sqrt2": (sqrt_of(2), 2 ** 0.5),
    "sqrt3": (sqrt_of(3), 3 ** 0.5),
    "cbrt2": (Alg._make(UniPoly([-2, 0, 0, 1]), Fraction(1), Fraction(2)),
              2 ** (1 / 3)),
    "sqrt12": (sqrt_of(12), 12 ** 0.5),
}


@st.composite
def field_elements(draw):
    """(value, float value, coefficients on the power basis)."""
    gen, approx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    coeffs = draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=1, max_size=gen.field.degree))
    value, fvalue = Fraction(0), 0.0
    for i, c in enumerate(coeffs):
        value = value + c * gen ** i
        fvalue += float(c) * approx ** i
    return value, fvalue, coeffs


def _check_value(v, approx):
    if abs(approx) > 1e-6:
        assert sign(v) == (1 if approx > 0 else -1)
    if isinstance(v, Alg):
        assert any(v.coords[1:])
        assert v.minpoly(v) == 0
        assert v.minpoly.lead() == 1


@settings(max_examples=40, deadline=None)
@given(field_elements(), field_elements(), field_elements())
def test_field_arithmetic_properties(x, y, z):
    (a, fa, ca), (b, fb, _), (c, fc, _) = x, y, z
    # constant coordinates come back as rationals
    assert isinstance(a, Alg) == any(ca[1:])
    assert (a + b) - b == a
    if b != 0:
        assert a * b / b == a
    assert Fraction(a - a) == 0
    for v, approx in ((a, fa), (a + b, fa + fb), (a * b, fa * fb),
                      ((a + b) * c, (fa + fb) * fc)):
        _check_value(v, approx)
