"""Reparametrization-system construction and scale-factor recovery."""

from fractions import Fraction

import pytest

from ruledsym.algnum import Alg, alg_sqrt
from ruledsym.errors import PreconditionViolation
from ruledsym.phisys import (
    GENERAL_VARS,
    ReparamSystem,
    build_affine_system,
    build_general_system,
    build_systems,
    candidate_from_point,
    scale_factors,
    squarefree_classes,
)
from ruledsym.upoly import UniPoly

from conftest import build_surface


def _eval_all(system, **values):
    vals = {k: Fraction(v) for k, v in values.items()}
    return [e.eval({n: vals[n] for n in e.used_vars()})
            for e in system.class_equations + system.raw_equations]


def test_golden_class_structure(golden):
    m = golden.norm_square()
    classes = squarefree_classes(m)
    by_mult = {mult: f for f, mult in classes}
    assert set(by_mult) == {1, 2}
    assert by_mult[2] == UniPoly([1, 0, 1])  # t^2 + 1
    assert by_mult[1].degree() == 8
    rebuilt = UniPoly.const(m.lead())
    for f, mult in classes:
        rebuilt = rebuilt * f ** mult
    assert rebuilt == m


def test_affine_system_golden_solutions(golden):
    system = build_affine_system(golden)
    assert system.gamma == 0
    assert system.unknowns() == ("alpha", "beta")
    assert system.class_equations and system.raw_equations
    # identity and the half-turn t -> -t solve every equation ...
    for a in (1, -1):
        assert all(v == 0 for v in _eval_all(system, alpha=a, beta=0))
    # ... while a pure shift and a rescale do not
    assert any(v != 0 for v in _eval_all(system, alpha=1, beta=2))
    assert any(v != 0 for v in _eval_all(system, alpha=2, beta=0))


def test_general_system_golden_solutions(golden):
    system = build_general_system(golden)
    assert system.gamma == 1
    assert system.unknowns() == ("alpha", "beta", "delta")
    # t -> 1/t and t -> (t+1)/(t-1) are symmetries of the golden surface
    for a, b, d in [(0, 1, 0), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
                    (0, -1, 0), (-1, -1, -1)]:
        assert all(v == 0 for v in _eval_all(system, alpha=a, beta=b, delta=d))
    assert any(v != 0 for v in _eval_all(system, alpha=0, beta=1, delta=1))
    assert any(v != 0 for v in _eval_all(system, alpha=2, beta=1, delta=0))


def test_general_small_class_collapse(golden):
    """The degree-two class forces delta = -alpha*beta and beta^2 = 1."""
    system = build_general_system(golden)
    small = [e for e in system.class_equations
             if e.total_degree() <= 2 and e.degree_in("delta") > 0]
    assert small, "expected equations tying delta to the degree-two class"
    # any point with delta = -alpha*beta and beta = +/-1 kills the whole
    # class block of the degree-two class, independently of alpha
    degree_two_block = system.class_equations[:0]
    for e in system.class_equations:
        vals = {"alpha": Fraction(5), "beta": Fraction(-1), "delta": Fraction(5)}
        used = {n: vals[n] for n in e.used_vars()}
        if e.total_degree() <= 2:
            assert e.eval(used) == 0
            degree_two_block = degree_two_block + [e]
    assert degree_two_block


def test_scale_factors_affine(golden):
    system = build_affine_system(golden)
    k_plus, k_minus = scale_factors(system, {"alpha": Fraction(-1),
                                             "beta": Fraction(0)})
    ks = sorted([k_plus, k_minus], key=float)
    assert ks[0] == -1 and ks[1] == 1
    half = scale_factors(system, {"alpha": Fraction(2), "beta": Fraction(0)})
    assert sorted(half, key=float)[1] == Fraction(1, 64)  # 2^-6


def test_scale_factors_general(golden):
    system = build_general_system(golden)
    # alpha = 0: K = lead(M)/M(0) = 2/2 = 1
    ks = scale_factors(system, {"alpha": Fraction(0), "beta": Fraction(1),
                                "delta": Fraction(0)})
    assert sorted(ks, key=float) == [-1, 1]
    # alpha = 1: M(1) = 128, lead = 2, K = 1/64, k = 1/8
    ks = scale_factors(system, {"alpha": Fraction(1), "beta": Fraction(1),
                                "delta": Fraction(-1)})
    assert sorted(ks, key=float) == [Fraction(-1, 8), Fraction(1, 8)]


def test_scale_factors_reject_a_nonpositive_norm():
    # M(t) = t^2 - 1 is negative at alpha = 0, so K = lead/M(0) = -1
    system = ReparamSystem(1, GENERAL_VARS[1:], [], [], [],
                           UniPoly([-1, 0, 1]), 1, None)
    with pytest.raises(PreconditionViolation):
        scale_factors(system, {"alpha": Fraction(0), "beta": Fraction(1),
                               "delta": Fraction(0)})


def test_scale_factors_irrational_square_root():
    surface = build_surface("x6")
    system = build_general_system(surface)
    m = system.norm_square
    # generic alpha: k^2 = lead/M(2) is not a perfect square here
    ks = scale_factors(system, {"alpha": Fraction(2), "beta": Fraction(0),
                                "delta": Fraction(0)})
    k = max(ks, key=float)
    expected = alg_sqrt(Alg.rational(Fraction(m.lead(), 1) /
                                     sum(c * 2 ** i
                                         for i, c in enumerate(m.coeffs))))
    assert k == expected


def test_candidate_accessors(golden):
    affine = build_affine_system(golden)
    cand = candidate_from_point(affine, {"alpha": Fraction(1),
                                         "beta": Fraction(0)}, Fraction(1))
    assert cand.is_identity_map()
    assert cand.det() == 1
    assert cand.delta == 1

    general = build_general_system(golden)
    inv = candidate_from_point(general, {"alpha": Fraction(0),
                                         "beta": Fraction(1),
                                         "delta": Fraction(0)}, Fraction(1))
    assert not inv.is_identity_map()
    assert inv.det() == -1
    assert not inv.same_map(cand)
    other = candidate_from_point(general, {"alpha": Fraction(0),
                                           "beta": Fraction(1),
                                           "delta": Fraction(0)},
                                 Fraction(-1))
    assert not other.same_map(inv)


def test_build_systems_pair(golden):
    systems = build_systems(golden)
    assert [s.gamma for s in systems] == [0, 1]
    assert [s.unknowns() for s in systems] == [
        ("alpha", "beta"), ("alpha", "beta", "delta")]
    assert all(s.class_equations and s.raw_equations for s in systems)
