"""The library's lex Groebner engine, against sympy's groebnertools."""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys import groebnertools, polytools
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from ruledsym import groebner as engine
from ruledsym import solver
from ruledsym.algnum import alg_sqrt
from ruledsym.errors import PositiveDimensional
from ruledsym.implicit import ImplicitSurface, implicit_pipeline
from ruledsym.parser import parse_multipoly
from ruledsym.phisys import build_system, build_systems

from conftest import SURFACE_JSON, build_surface, monic_elements


def oracle(polys, nvars):
    """sympy's monic reduced lex basis, keyed by exponent tuples."""
    R = ring(["x%d" % i for i in range(nvars)], QQ, lex)[0]
    basis = groebnertools.groebner(
        [R.from_dict({m: QQ(c) for m, c in p.items()}) for p in polys], R)
    return [{m: Fraction(int(c.numerator), int(c.denominator))
             for m, c in g.items()} for g in basis]


def agrees(polys, nvars):
    assert monic_elements(engine.groebner(polys, nvars)) == \
        oracle(polys, nvars)


def solver_inputs(equations, vars, nonzero):
    """The engine inputs of one solve_zero_dim call."""
    seen = []

    def record(polys, nvars):
        seen.append((polys, nvars))
        return engine.groebner(polys, nvars)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "groebner", record)
        with contextlib.suppress(PositiveDimensional):
            solver.solve_zero_dim(equations, vars, nonzero=nonzero)
    return seen


def test_corpus_class_systems_agree():
    # every corpus surface, both charts, saturated by the determinant; each
    # of these bases takes sympy under 0.5 s, so none is left out
    count = 0
    for name in SURFACE_JSON:
        surface = build_surface(name)
        for gamma in (0, 1):
            system = build_system(surface, gamma)
            for polys, nvars in solver_inputs(system.class_equations,
                                              system.vars,
                                              system.determinant):
                agrees(polys, nvars)
                count += 1
    assert count >= 24


def _random_system(nvars):
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    poly = st.dictionaries(monomial, st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=3)
    return st.lists(poly, min_size=1, max_size=3)


# 47 drawn systems and the 3 explicit ones: 50 examples in all
@settings(max_examples=47, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), _random_system(n))))
@example((2, [{(1, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): -2}]))  # unit
@example((3, [{(1, 1, 0): 2, (0, 0, 2): -1}]))  # positive-dimensional
@example((2, [{(2, 1): 3, (0, 1): -1}, {(1, 2): 2, (1, 0): 5}]))
def test_random_small_systems_agree(case):
    agrees(case[1], case[0])


def _reductions_that_overflow(monkeypatch):
    """The guard masks of the reductions that stopped at a guard bit."""
    hits = []
    reduce = engine._reduce

    def watched(f, divisors, guard):
        try:
            return reduce(f, divisors, guard)
        except engine.ExponentOverflow:
            hits.append(guard)
            raise

    monkeypatch.setattr(engine, "_reduce", watched)
    return hits


def test_square_chain_widens_to_x_1024(monkeypatch):
    # y0 - y1^2, ..., y9 - x^2: degree-2 inputs whose lex basis holds
    # y0 - x^1024
    n = 11
    polys = []
    for k in range(10):
        polys.append({tuple(int(i == k) for i in range(n)): 1,
                      tuple(2 * int(i == k + 1) for i in range(n)): -1})
    hits = _reductions_that_overflow(monkeypatch)
    basis = engine.groebner(polys, n)
    assert hits
    assert basis.ring.bits > 11
    assert monic_elements(basis)[0] == {
        (1,) + (0,) * 10: 1, (0,) * 10 + (1024,): -1}
    agrees(polys, n)


def test_exponent_crosses_the_width_inside_one_reduction(monkeypatch):
    # reducing x^3 - y by x - y^3 passes through y^9, past the fields the
    # degree-3 inputs start with, although the basis {x - y, y^2 - 1}
    # itself needs none of that width
    polys = [{(1, 0): 1, (0, 3): -1}, {(3, 0): 1, (0, 1): -1},
             {(0, 2): 1, (0, 0): -1}]
    hits = _reductions_that_overflow(monkeypatch)
    basis = engine.groebner(polys, 2)
    assert hits
    assert monic_elements(basis) == [{(1, 0): 1, (0, 1): -1},
                                     {(0, 2): 1, (0, 0): -1}]
    agrees(polys, 2)


def test_normal_form_widens_and_stays_exact(monkeypatch):
    # {x - y^6, y^7 - 1} packed in fields that hold exponents up to 7:
    # the reduction of x^2 passes y^12, and x^2 = y^12 = y^5
    ring = engine.Ring(2, 4)
    basis = engine.Basis(ring, [ring.pack_poly({(1, 0): 1, (0, 6): -1}),
                                ring.pack_poly({(0, 7): 1, (0, 0): -1})])
    x = {ring.units[0]: 3}
    hits = _reductions_that_overflow(monkeypatch)
    r, multiplier = basis.normal_form(x, x)
    assert hits
    assert {ring.unpack(m): Fraction(c, multiplier)
            for m, c in r.items()} == {(0, 5): 9}
    r, multiplier = basis.normal_form({ring.pack((0, 6)): 1}, x)
    assert {ring.unpack(m): Fraction(c, multiplier)
            for m, c in r.items()} == {(0, 5): 3}


def test_no_sympy_groebner_is_reached(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy's Groebner engine was called")

    monkeypatch.setattr(groebnertools, "groebner", refuse)
    monkeypatch.setattr(polytools, "_groebner", refuse)
    surface = build_surface("x2")
    cands = solver.solve_parameter_maps(surface, build_systems(surface))
    root = alg_sqrt(Fraction(1, 3))
    assert {(c.alpha, c.beta, c.delta) for c in cands if c.gamma == 1} == {
        (a, b, -a * b) for a in (root, -root) for b in (1, -1)}
    poly = "x^6 + y^5*z + 6*x^5 + 14*x^4 + 16*x^3 + 8*x^2 + z^2"
    report = implicit_pipeline(
        ImplicitSurface(parse_multipoly(poly, ("x", "y", "z"))))
    assert sorted(f.kind for f in report.isometries) == [
        "axial_rotation", "central_inversion", "identity", "reflection"]
