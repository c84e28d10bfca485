"""Reparametrization-system construction and scale-factor recovery."""

from fractions import Fraction

import pytest
import sympy

from ruledsym.algnum import alg_sqrt, evaluate_certified
from ruledsym.errors import PreconditionViolation
from ruledsym.mpoly import MultiPoly, project
from ruledsym.phisys import (
    AFFINE_VARS,
    GENERAL_VARS,
    ReparamSystem,
    build_system,
    build_systems,
    candidate_from_point,
    psi_parts,
    scale_factors,
)
from ruledsym.ratfunc import homogenized_eval
from ruledsym.implicit import sympy_poly
from ruledsym.solver import solve_zero_dim
from ruledsym.upoly import UniPoly

from conftest import SURFACE_JSON, build_surface, is_identity_map, \
    same_map, substitute_poly


def _eval_all(system, **values):
    vals = {k: Fraction(v) for k, v in values.items()}
    return [e.eval({n: vals[n] for n in e.used_vars()})
            for e in system.class_equations]


def _general_point(alpha, beta, delta):
    """The general chart's unknowns at the map (alpha t + beta)/(t + delta)."""
    return {"alpha": Fraction(alpha), "delta": Fraction(delta),
            "c": Fraction(beta) - Fraction(alpha) * Fraction(delta)}


def test_golden_class_structure(golden):
    m = golden.norm_square()
    classes = m.squarefree_decomposition()
    by_mult = {mult: f for f, mult in classes}
    assert set(by_mult) == {1, 2}
    assert by_mult[2] == UniPoly([1, 0, 1])  # t^2 + 1
    assert by_mult[1].degree() == 8
    rebuilt = UniPoly.const(m.lead())
    for f, mult in classes:
        rebuilt = rebuilt * f ** mult
    assert rebuilt == m


def test_affine_system_golden_solutions(golden):
    system = build_system(golden, 0)
    assert system.gamma == 0
    assert system.vars == ("alpha", "beta")
    assert system.class_equations
    # identity and the half-turn t -> -t solve every equation ...
    for a in (1, -1):
        assert all(v == 0 for v in _eval_all(system, alpha=a, beta=0))
    # ... while a pure shift and a rescale do not
    assert any(v != 0 for v in _eval_all(system, alpha=1, beta=2))
    assert any(v != 0 for v in _eval_all(system, alpha=2, beta=0))


def test_general_system_golden_solutions(golden):
    system = build_system(golden, 1)
    assert system.gamma == 1
    assert system.vars == ("alpha", "delta", "c")
    # t -> 1/t and t -> (t+1)/(t-1) are symmetries of the golden surface
    for abd in [(0, 1, 0), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
                (0, -1, 0), (-1, -1, -1)]:
        assert all(v == 0 for v in _eval_all(system, **_general_point(*abd)))
    assert any(v != 0 for v in _eval_all(system, **_general_point(0, 1, 1)))
    assert any(v != 0 for v in _eval_all(system, **_general_point(2, 1, 0)))


def test_general_small_class_collapse(golden):
    """The degree-two class forces delta = -alpha*beta and beta^2 = 1,
    so c = beta - alpha*delta = beta*(1 + alpha^2)."""
    system = build_system(golden, 1)
    # the degree-two class's equations have total degree at most 4 in
    # (alpha, delta, c); the degree-eight class's have more
    small = [e for e in system.class_equations
             if e.total_degree() <= 4 and e.degree_in("delta") > 0]
    assert small, "expected equations tying delta to the degree-two class"
    # any point with delta = -alpha*beta and beta = +/-1 kills the whole
    # class block of the degree-two class, independently of alpha
    vals = _general_point(alpha=5, beta=-1, delta=5)
    assert vals["c"] == -26
    degree_two_block = system.class_equations[:0]
    for e in system.class_equations:
        used = {n: vals[n] for n in e.used_vars()}
        if e.total_degree() <= 4:
            assert e.eval(used) == 0
            degree_two_block = degree_two_block + [e]
    assert degree_two_block


def test_scale_factors_affine(golden):
    system = build_system(golden, 0)
    k_plus, k_minus = scale_factors(system, {"alpha": Fraction(-1),
                                             "beta": Fraction(0)})
    ks = sorted([k_plus, k_minus], key=float)
    assert ks[0] == -1 and ks[1] == 1
    half = scale_factors(system, {"alpha": Fraction(2), "beta": Fraction(0)})
    assert sorted(half, key=float)[1] == Fraction(1, 64)  # 2^-6


def test_scale_factors_general(golden):
    system = build_system(golden, 1)
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
    system = ReparamSystem(1, GENERAL_VARS, [], UniPoly([-1, 0, 1]), 1, None)
    with pytest.raises(PreconditionViolation):
        scale_factors(system, {"alpha": Fraction(0), "beta": Fraction(1),
                               "delta": Fraction(0)})


def test_scale_factors_irrational_square_root():
    surface = build_surface("x6")
    system = build_system(surface, 1)
    m = system.norm_square
    # generic alpha: k^2 = lead/M(2) is not a perfect square here
    ks = scale_factors(system, {"alpha": Fraction(2), "beta": Fraction(0),
                                "delta": Fraction(0)})
    k = max(ks, key=float)
    expected = alg_sqrt(Fraction(m.lead(), 1) /
                        sum(c * 2 ** i for i, c in enumerate(m.coeffs)))
    assert k == expected


def test_candidate_accessors(golden):
    affine = build_system(golden, 0)
    cand = candidate_from_point(affine, {"alpha": Fraction(1),
                                         "beta": Fraction(0)}, Fraction(1))
    assert is_identity_map(cand)
    assert cand.det() == 1
    assert cand.delta == 1

    general = build_system(golden, 1)
    inv = candidate_from_point(general, _general_point(0, 1, 0), Fraction(1))
    assert not is_identity_map(inv)
    assert inv.det() == -1
    assert not same_map(inv, cand)
    other = candidate_from_point(general, _general_point(0, 1, 0),
                                 Fraction(-1))
    assert not same_map(other, inv)
    # beta = c + alpha*delta comes back from the chart's unknowns
    shifted = candidate_from_point(general, _general_point(1, -1, 1),
                                   Fraction(1))
    assert (shifted.alpha, shifted.beta, shifted.delta) == (1, -1, 1)
    assert shifted.det() == 2


def test_build_systems_pair(golden):
    systems = build_systems(golden)
    assert [s.gamma for s in systems] == [0, 1]
    assert [s.vars for s in systems] == [
        ("alpha", "beta"), ("alpha", "delta", "c")]
    assert all(s.class_equations for s in systems)


# ---- the closed forms against a direct expansion ----

# every corpus surface that takes the parameter-map solve (n >= 2)
SOLVED = [name for name in SURFACE_JSON if build_surface(name).n >= 2]


def _invariance_equations(f, gamma):
    """The s^j coefficients, j < deg f, of lead(f)*H - [s^d]H * F by
    expanding H = den^d f(num/den) and F = f(t) over (s, unknowns), with
    t = s - gamma delta and psi = num/den written in s."""
    unknowns = GENERAL_VARS if gamma else AFFINE_VARS
    space = ("s",) + unknowns
    a, b, g, d = psi_parts(space, gamma)
    t = MultiPoly.var(space, "s") - g * d
    num, den = a * t + b, g * t + d
    deg = f.degree()
    h = homogenized_eval(f, num, den, deg).as_univar("s")
    ft = homogenized_eval(f, t, t ** 0, deg).as_univar("s")
    eqs = []
    for j in range(deg):
        e = h[j] * f.lead() - h[deg] * ft[j]
        if not e.is_zero():
            eqs.append(project(e, unknowns))
    return eqs


@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("name", SOLVED)
def test_class_equations_match_the_expansion(name, gamma):
    # term for term and in the same order: class by class, then by j
    surface = build_surface(name)
    expected = []
    for f, _ in surface.norm_square().squarefree_decomposition():
        expected.extend(_invariance_equations(f, gamma))
    system = build_system(surface, gamma)
    assert system.class_equations == expected


@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("name", SOLVED)
def test_every_class_gives_one_equation_per_degree(name, gamma):
    # the k = d term of e_j is never zero, so no e_j is dropped; both
    # charts of build_systems share one norm square and equal build_system
    surface = build_surface(name)
    system = build_system(surface, gamma)
    degrees = [f.degree() for f, _ in
               surface.norm_square().squarefree_decomposition()]
    assert len(system.class_equations) == sum(degrees)
    assert all(not e.is_zero() for e in system.class_equations)
    paired = build_systems(surface)[gamma]
    assert paired.class_equations == system.class_equations
    assert paired.determinant == system.determinant
    assert paired.norm_square == system.norm_square


@pytest.mark.parametrize("gamma", [0, 1])
@pytest.mark.parametrize("name", SOLVED)
def test_class_points_satisfy_the_norm_square_law(name, gamma):
    # the class equations imply the equations of M = |q|^2 itself at every
    # nondegenerate map, and the saturation leaves no other point
    surface = build_surface(name)
    system = build_system(surface, gamma)
    raw = _invariance_equations(surface.norm_square(), gamma)
    points = solve_zero_dim(system.class_equations, system.vars,
                            nonzero=system.determinant)
    # the identity is on the affine chart; the general chart may be empty
    assert points or gamma
    for point in points:
        assert all(evaluate_certified(e, point) for e in raw)


# ---- the s-form general chart against the t-form ----

def _t_form_class_equations(surface, unknowns):
    """The general chart's class equations as the t-coefficients of
    lead(f) (t + delta)^d f(psi) - [t^d](...) f, with beta = c + alpha delta.
    """
    space = ("t", "alpha", "beta", "delta", "c")
    t, alpha, beta, delta, c = (MultiPoly.var(space, v) for v in space)
    num, den = alpha * t + beta, t + delta
    eqs = []
    for f, _ in surface.norm_square().squarefree_decomposition():
        d = f.degree()
        coeffs = homogenized_eval(f, num, den, d).as_univar("t")
        for j in range(d):
            e = coeffs[j] * f.lead() - coeffs[d] * f.coeff(j)
            e = substitute_poly(e, "beta", c + alpha * delta)
            if not e.is_zero():
                eqs.append(project(e, unknowns))
    return eqs


def _lex_basis(eqs):
    # the solver's cover order: delta > c > alpha
    gens = [sympy.Symbol(v) for v in ("delta", "c", "alpha")]
    return sympy.groebner([sympy_poly(e).as_expr() for e in eqs], *gens,
                          order="lex")


@pytest.mark.parametrize("name", ["golden", "x4", "x6"])
def test_general_chart_equations_generate_the_t_form_ideal(name):
    # the s- and t-coefficients of one identity differ by a unitriangular
    # matrix over Q[delta], so both generate one ideal; a slip in the sign
    # of c or of the shift would lose points without raising anything
    surface = build_surface(name)
    system = build_system(surface, 1)
    s_form = system.class_equations
    t_form = _t_form_class_equations(surface, system.vars)
    assert s_form and t_form
    s_basis, t_basis = _lex_basis(s_form), _lex_basis(t_form)
    assert all(t_basis.contains(sympy_poly(e).as_expr()) for e in s_form)
    assert all(s_basis.contains(sympy_poly(e).as_expr()) for e in t_form)
