"""Zero-dimensional solving and parameter-map enumeration."""

from fractions import Fraction

import pytest

from ruledsym import solver
from ruledsym.algnum import alg_sqrt
from ruledsym.errors import PositiveDimensional, PreconditionViolation
from ruledsym.groebner import groebner
from ruledsym.mpoly import MultiPoly
from ruledsym.phisys import (
    build_system,
    build_systems,
)
from ruledsym.solver import solve_parameter_maps, solve_zero_dim

from conftest import build_surface, is_identity_map, monic_elements


def _mp(vars, builder):
    xs = {n: MultiPoly.var(vars, n) for n in vars}
    return builder(xs)


def test_single_variable():
    v = ("x",)
    eq = _mp(v, lambda s: s["x"] * s["x"] - 2)
    pts = solve_zero_dim([eq], v)
    assert len(pts) == 2
    lo, hi = pts[0]["x"], pts[1]["x"]
    assert lo == -alg_sqrt(Fraction(2)) and hi == alg_sqrt(Fraction(2))


def test_circle_line_intersection():
    v = ("x", "y")
    circle = _mp(v, lambda s: s["x"] ** 2 + s["y"] ** 2 - 5)
    line = _mp(v, lambda s: s["x"] - s["y"] - 1)
    pts = solve_zero_dim([circle, line], v)
    got = {(Fraction(p["x"]), Fraction(p["y"])) for p in pts}
    assert got == {(Fraction(2), Fraction(1)), (Fraction(-1), Fraction(-2))}


def test_inconsistent_system_is_empty():
    v = ("x",)
    a = _mp(v, lambda s: s["x"] - 1)
    b = _mp(v, lambda s: s["x"] - 2)
    assert solve_zero_dim([a, b], v) == []
    one = MultiPoly.const(v, 1)
    assert solve_zero_dim([one], v) == []


def test_linear_chain_substitution():
    v = ("x", "y", "z")
    eqs = [
        _mp(v, lambda s: s["x"] + s["y"] + s["z"] - 6),
        _mp(v, lambda s: s["x"] - s["y"]),
        _mp(v, lambda s: s["z"] - 3),
    ]
    pts = solve_zero_dim(eqs, v)
    assert len(pts) == 1
    p = pts[0]
    assert Fraction(p["x"]) == Fraction(3, 2)
    assert Fraction(p["y"]) == Fraction(3, 2)
    assert Fraction(p["z"]) == Fraction(3)


def test_positive_dimensional_detected():
    v = ("x", "y")
    line = _mp(v, lambda s: s["x"] - s["y"])
    with pytest.raises(PositiveDimensional):
        solve_zero_dim([line], v)
    # a whole coordinate line of real solutions hides behind a shared factor
    a = _mp(v, lambda s: s["x"] * s["y"])
    b = _mp(v, lambda s: s["x"] * (s["y"] - 1))
    with pytest.raises(PositiveDimensional):
        solve_zero_dim([a, b], v)


def test_nonzero_saturates_away_a_component():
    # x*y = x*(x-1) = 0 is the line x = 0 plus the point (1, 0); saturating
    # by x removes the line
    v = ("x", "y")
    eqs = [_mp(v, lambda s: s["x"] * s["y"]),
           _mp(v, lambda s: s["x"] * (s["x"] - 1))]
    pts = solve_zero_dim(eqs, v, nonzero=_mp(v, lambda s: s["x"]))
    got = {(Fraction(p["x"]), Fraction(p["y"])) for p in pts}
    assert got == {(Fraction(1), Fraction(0))}
    with pytest.raises(PositiveDimensional):
        solve_zero_dim(eqs, v)


def test_degenerate_complex_component_is_harmless():
    # (x^2+1)=0 carries positive-dimensional *complex* components; the
    # real solutions are still finite and must all be found
    v = ("x", "y", "z")
    eqs = [
        _mp(v, lambda s: (s["x"] ** 2 + 1) * (s["y"] - 2)),
        _mp(v, lambda s: (s["x"] ** 2 + 1) * (s["z"] - 1)),
        _mp(v, lambda s: s["x"] ** 3 - s["x"]),
    ]
    pts = solve_zero_dim(eqs, v)
    got = {(Fraction(p["x"]), Fraction(p["y"]), Fraction(p["z"]))
           for p in pts}
    assert got == {(Fraction(a), Fraction(2), Fraction(1)) for a in (-1, 0, 1)}


def test_fat_point_at_the_origin():
    # x^2 = xy = y^2 = 0: the origin with a three-dimensional local ring of
    # embedding dimension two, so no linear form generates the quotient
    # until the radical is taken
    v = ("x", "y")
    eqs = [_mp(v, lambda s: s["x"] ** 2),
           _mp(v, lambda s: s["x"] * s["y"]),
           _mp(v, lambda s: s["y"] ** 2)]
    pts = solve_zero_dim(eqs, v)
    assert [(p["x"], p["y"]) for p in pts] == [(0, 0)]


def test_fat_point_beside_a_simple_point():
    # x^2 (x - 1) = xy = y^2 = 0: the fat origin and the simple point (1, 0)
    v = ("x", "y")
    eqs = [_mp(v, lambda s: s["x"] ** 2 * (s["x"] - 1)),
           _mp(v, lambda s: s["x"] * s["y"]),
           _mp(v, lambda s: s["y"] ** 2)]
    pts = solve_zero_dim(eqs, v)
    assert [(p["x"], p["y"]) for p in pts] == [(0, 0), (1, 0)]


def test_spurious_projection_combinations_are_culled():
    # projections give x in {1,-1} and y in {1,-1}; only the pairing with
    # x = y survives validation
    v = ("x", "y")
    eqs = [
        _mp(v, lambda s: s["x"] ** 2 - 1),
        _mp(v, lambda s: s["y"] ** 2 - 1),
        _mp(v, lambda s: s["x"] - s["y"] * s["y"] * s["y"]),
    ]
    pts = solve_zero_dim(eqs, v)
    got = {(Fraction(p["x"]), Fraction(p["y"])) for p in pts}
    assert got == {(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(-1))}


def test_translation_unknowns_solved_as_ordinary_unknowns():
    # b1 and b2 occur linearly once x is fixed; they are read from the
    # same representation as x
    v = ("x", "b1", "b2")
    eqs = [
        _mp(v, lambda s: s["x"] ** 2 - 4),
        _mp(v, lambda s: s["b1"] + s["x"] * s["b2"] - 1),
        _mp(v, lambda s: s["b1"] - s["b2"] - 1),
    ]
    pts = solve_zero_dim(eqs, v)
    assert [(p["x"], p["b1"], p["b2"]) for p in pts] == [
        (Fraction(-2), Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(1), Fraction(0))]


def test_underdetermined_linear_unknowns_raise():
    v = ("x", "b1", "b2")
    eqs = [
        _mp(v, lambda s: s["x"] ** 2 - 1),
        _mp(v, lambda s: s["b1"] + s["b2"]),
    ]
    with pytest.raises(PositiveDimensional):
        solve_zero_dim(eqs, v)


def test_nonlinear_trailing_unknown_is_solved():
    # b^2 = x on x^2 = 1: only x = 1 carries real points, b = +-1
    v = ("x", "b")
    eqs = [_mp(v, lambda s: s["x"] ** 2 - 1),
           _mp(v, lambda s: s["b"] * s["b"] - s["x"])]
    pts = solve_zero_dim(eqs, v)
    assert [(p["x"], p["b"]) for p in pts] == [
        (Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1))]


def test_nonzero_vanishing_with_a_linear_equation():
    # x - y = 0 while x - y must not vanish: saturation leaves no point
    v = ("x", "y")
    eqs = [_mp(v, lambda s: s["x"] - s["y"]),
           _mp(v, lambda s: s["x"] ** 2 - 4)]
    nonzero = _mp(v, lambda s: s["x"] - s["y"])
    assert solve_zero_dim(eqs, v, nonzero=nonzero) == []
    assert solve_zero_dim(eqs[:1], v, nonzero=nonzero) == []


def test_unknowns_outside_vars_are_an_explicit_error():
    v = ("x", "y")
    eqs = [_mp(v, lambda s: s["x"] ** 2 - 1),
           _mp(v, lambda s: s["y"] - s["x"])]
    with pytest.raises(PreconditionViolation):
        solve_zero_dim(eqs, ("x",))
    with pytest.raises(PreconditionViolation):
        solve_zero_dim(eqs[:1], ("x",), nonzero=_mp(v, lambda s: s["y"]))


def test_irrational_coordinates_validated():
    v = ("x", "y")
    eqs = [
        _mp(v, lambda s: s["x"] ** 2 - 3),
        _mp(v, lambda s: s["y"] - s["x"] ** 3),
    ]
    pts = solve_zero_dim(eqs, v)
    assert len(pts) == 2
    for p in pts:
        assert p["y"] == p["x"] * 3  # x^3 = 3x on x^2 = 3


def test_golden_affine_parameter_maps(golden):
    system = build_system(golden, 0)
    cands = solve_parameter_maps(golden, [system])
    assert len(cands) == 4
    seen = {(Fraction(c.alpha), Fraction(c.beta), Fraction(c.k))
            for c in cands}
    assert seen == {(Fraction(1), Fraction(0), Fraction(1)),
                    (Fraction(1), Fraction(0), Fraction(-1)),
                    (Fraction(-1), Fraction(0), Fraction(1)),
                    (Fraction(-1), Fraction(0), Fraction(-1))}
    assert sum(1 for c in cands if is_identity_map(c)) == 1


def test_golden_general_parameter_maps(golden):
    system = build_system(golden, 1)
    cands = solve_parameter_maps(golden, [system])
    assert len(cands) == 12
    triples = {(Fraction(c.alpha), Fraction(c.beta),
                Fraction(c.delta)) for c in cands}
    assert triples == {
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(-1), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(-1), Fraction(1)),
        (Fraction(-1), Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(-1), Fraction(-1)),
    }
    for c in cands:
        expect = Fraction(1, 8) if c.alpha != 0 else Fraction(1)
        assert abs(Fraction(c.k)) == expect


def test_x2_general_branch_maps(monkeypatch):
    surface = build_surface("x2")
    calls = []

    def counted(*args):
        calls.append(args)
        return groebner(*args)

    monkeypatch.setattr(solver, "groebner", counted)
    cands = solve_parameter_maps(surface, build_systems(surface))
    # one basis per chart
    assert 1 <= len(calls) <= 2
    root = alg_sqrt(Fraction(1, 3))
    expected = [(a, b, -a * b) for a in (root, -root)
                for b in (Fraction(1), Fraction(-1))]
    maps = []
    for c in cands:
        m = (c.alpha, c.beta, c.delta)
        if c.gamma == 1 and m not in maps:
            maps.append(m)
    assert len(maps) == 4 and all(m in expected for m in maps)


# ---- what the Groebner engine returns, which the solver relies on ----

def test_groebner_unit_ideal_is_one():
    # x - 1, x - 2, y in (x, y)
    basis = groebner([{(1, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): -2},
                      {(0, 1): 1}], 2)
    assert basis.is_unit()
    assert monic_elements(basis) == [{(0, 0): 1}]


def test_groebner_basis_is_reduced_and_monic():
    # 2x^2 + 2y^2 - 2, 3x - 3y
    basis = groebner([{(2, 0): 2, (0, 2): 2, (0, 0): -2},
                      {(1, 0): 3, (0, 1): -3}], 2)
    assert monic_elements(basis) == [{(1, 0): 1, (0, 1): -1},
                                     {(0, 2): 1, (0, 0): Fraction(-1, 2)}]
    assert basis.leads() == [(1, 0), (0, 2)]


def test_lone_product_is_positive_dimensional():
    # {xy} has no pure power of either unknown among its leading monomials
    assert monic_elements(groebner([{(1, 1): 1}], 2)) == [{(1, 1): 1}]
    v = ("x", "y")
    with pytest.raises(PositiveDimensional):
        solve_zero_dim([_mp(v, lambda s: s["x"] * s["y"])], v)
