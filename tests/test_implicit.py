from fractions import Fraction

import pytest

from ruledsym import implicit as implicit_module
from ruledsym.algnum import alg_sqrt, sign
from ruledsym.errors import HeuristicFailure, PreconditionViolation, ZeroInput
from ruledsym.implicit import (
    ImplicitSurface,
    detect_revolution_axis,
    highest_form,
    implicit_pipeline,
    lift_symmetry,
    parametrize_highest_form,
    sanity_check,
    substitution_holds,
)
from ruledsym.isometry import symmetries
from ruledsym.linalg import identity3
from ruledsym.parser import parse_multipoly, parse_unipoly
from ruledsym.upoly import UniPoly

XYZ = ("x", "y", "z")
EXAMPLE = "x^6 + y^5*z + 6*x^5 + 14*x^4 + 16*x^3 + 8*x^2 + z^2"
ODD_CONE = "x^3 - 27*y*z^2"
THREE_FOLD = "(x^3 - 3*x*y^2)*z + (x^2 + y^2)^2"
FIVE_FOLD = "(x^5 - 10*x^3*y^2 + 5*x*y^4)*z + (x^2 + y^2)^3"
SPHERE = "x^2 + y^2 + z^2 - 1"


def implicit(text):
    return ImplicitSurface(parse_multipoly(text, XYZ))


def mp(text):
    return parse_multipoly(text, XYZ)


def kind_counts(report):
    out = {}
    for f in report.isometries:
        out[f.kind] = out.get(f.kind, 0) + 1
    return out


def test_surface_construction():
    s = implicit(EXAMPLE)
    assert s.N == 6
    with pytest.raises(ZeroInput):
        implicit("0")


def test_highest_form_extraction():
    assert highest_form(implicit("x^2 + y + 1")) == mp("x^2")
    assert highest_form(implicit(EXAMPLE)) == mp("x^6 + y^5*z")
    # homogeneous input is its own top form
    assert highest_form(implicit(ODD_CONE)) == mp(ODD_CONE)


def test_sanity_check_refutes_repeated_factors():
    sanity_check(implicit(EXAMPLE))
    with pytest.raises(PreconditionViolation):
        sanity_check(implicit("(x + y)^2"))
    with pytest.raises(PreconditionViolation):
        sanity_check(implicit("(x^2 + y^2 + z^2)^2"))
    # a product of two distinct irreducible factors, named in the details
    with pytest.raises(PreconditionViolation) as info:
        sanity_check(implicit("(%s)*(x + y + z)" % SPHERE))
    assert "x + y + z" in info.value.details["factors"]


# irreducible inputs that the first lines of sanity_check certify: the
# four bases of the implicit benchmark (the README sextic, the sextic with
# a linear term, the odd cone and the surface of revolution), the three-
# and five-fold cones and the sphere
CERTIFIED = [EXAMPLE, EXAMPLE + " + x", ODD_CONE, "x*y + x*z + y*z",
             THREE_FOLD, FIVE_FOLD, SPHERE]
REDUCIBLE = ["(x + y)^2", "(x^2 + y^2 + z^2)^2", "(%s)*(x + y + z)" % SPHERE,
             # on the first line 3x + 2y is the constant 7, so F restricts
             # to an irreducible quadratic, of degree below N
             "(3*x + 2*y)*(%s)" % SPHERE]


@pytest.mark.parametrize("text", CERTIFIED)
def test_sanity_check_certifies_on_a_line(text, monkeypatch):
    def fallback(e):
        raise AssertionError("no line certified %s" % text)

    monkeypatch.setattr(implicit_module, "sympy_poly", fallback)
    sanity_check(implicit(text))


@pytest.mark.parametrize("text", REDUCIBLE)
def test_reducible_input_reaches_the_exact_fallback(text, monkeypatch):
    # no line can certify a reducible F; the exact factorisation refutes it
    calls = []
    exact = implicit_module.sympy_poly

    def spy(e):
        calls.append(e)
        return exact(e)

    monkeypatch.setattr(implicit_module, "sympy_poly", spy)
    with pytest.raises(PreconditionViolation):
        sanity_check(implicit(text))
    assert len(calls) == 1


def test_parametrize_default_section():
    cone = parametrize_highest_form(highest_form(implicit(EXAMPLE)))
    assert cone is not None
    assert all(c.num.is_zero() for c in cone.p)
    assert cone.q == (parse_unipoly("t^5"), parse_unipoly("t^6"),
                      parse_unipoly("-1"))


def test_parametrize_plane_override():
    form = highest_form(implicit(EXAMPLE))
    cone = parametrize_highest_form(form, plane=("y", 2))
    assert cone.q == (parse_unipoly("32*t"), parse_unipoly("64"),
                      parse_unipoly("-t^6"))


def test_parametrize_sphere_fails():
    assert parametrize_highest_form(mp("x^2 + y^2 + z^2")) is None
    with pytest.raises(HeuristicFailure):
        implicit_pipeline(implicit("x^2 + y^2 + z^2 + x"))


def test_example_pipeline_report():
    rep = implicit_pipeline(implicit(EXAMPLE))
    assert kind_counts(rep) == {
        "identity": 1,
        "reflection": 1,
        "axial_rotation": 1,
        "central_inversion": 1,
    }
    by_kind = {f.kind: f for f in rep.isometries}
    axial = by_kind["axial_rotation"]
    assert axial.Q == ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert axial.b == (0, 0, 0)
    assert axial.geometry["axis_direction"] == (1, 0, 0)
    mirror = by_kind["reflection"]
    assert mirror.Q == ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert mirror.b == (-2, 0, 0)
    # the mirror plane is x = -1
    assert mirror.geometry["plane_normal"] == (1, 0, 0)
    assert mirror.geometry["plane_offset"] == -1
    assert by_kind["central_inversion"].geometry["center"] == (-1, 0, 0)
    for extra in rep.extras:
        assert extra == {"lambda": {"rat": "1"}}
    assert [n["code"] for n in rep.notes] == ["HIGHEST_FORM_METHOD"]


def test_example_substitution_identities():
    s = implicit(EXAMPLE)
    mirror = ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert substitution_holds(s, mirror, (-2, 0, 0), Fraction(1))
    assert not substitution_holds(s, mirror, (0, 0, 0), Fraction(1))
    assert not substitution_holds(s, mirror, (-2, 0, 0), Fraction(2))


def test_homogeneous_cone_lifts():
    # for a homogeneous polynomial every symmetry fixes the origin and the
    # multiplier is forced by parity
    rep = implicit_pipeline(implicit(ODD_CONE))
    assert kind_counts(rep) == {
        "identity": 1,
        "reflection": 1,
        "axial_rotation": 1,
        "central_inversion": 1,
    }
    lam_by_kind = {}
    for f, extra in zip(rep.isometries, rep.extras):
        assert f.b == (0, 0, 0)
        lam_by_kind[f.kind] = extra["lambda"]
    assert lam_by_kind == {
        "identity": {"rat": "1"},
        "reflection": {"rat": "1"},
        "axial_rotation": {"rat": "-1"},
        "central_inversion": {"rat": "-1"},
    }


@pytest.mark.parametrize("text", [EXAMPLE, THREE_FOLD])
def test_cone_symmetries_hold_the_central_inversion(text):
    # the cone's base is its vertex, so psi = id with k = -1 gives Q = -I;
    # the pipeline lifts -I from the cone's own symmetries
    cone = parametrize_highest_form(highest_form(implicit(text)))
    minus = tuple(tuple(-1 if i == j else 0 for j in range(3))
                  for i in range(3))
    assert any(iso.Q == minus for iso in symmetries(cone))


def test_lift_translations_from_coefficients():
    s = implicit(EXAMPLE)
    mirror = ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
    b, lam = lift_symmetry(s, mirror)
    assert b == (-2, 0, 0) and lam == 1


def test_rank_deficient_lift_raises():
    # x^2 - y^2 is constant along z, so the degree-1 rows cannot fix b3
    with pytest.raises(PreconditionViolation):
        lift_symmetry(implicit("x^2 - y^2 + z"), identity3())
    # the pipeline never gets there: a top form constant along a direction
    # parametrizes as a plane, whose symmetries form a family
    rep = implicit_pipeline(implicit("x*y + z"))
    assert [n["code"] for n in rep.notes][-1] == "REVOLUTION_SUSPECTED"


def test_perturbation_pruning():
    # adding x keeps the half-turn about the x-axis (x is invariant under
    # it) but destroys the mirror and the inversion
    rep = implicit_pipeline(implicit(EXAMPLE + " + x"))
    assert kind_counts(rep) == {"identity": 1, "axial_rotation": 1}
    # adding x + y leaves nothing
    rep = implicit_pipeline(implicit(EXAMPLE + " + x + y"))
    assert kind_counts(rep) == {"identity": 1}


def test_revolution_cone_reported_not_enumerated():
    rep = implicit_pipeline(implicit("x*y + x*z + y*z"))
    assert kind_counts(rep) == {"identity": 1}
    codes = [n["code"] for n in rep.notes]
    assert codes == ["HIGHEST_FORM_METHOD", "REVOLUTION_SUSPECTED"]
    note = rep.notes[1]
    axis = note["axes"][0]
    # the axis is (1,1,1)/sqrt(3), encoded exactly
    assert [e["minpoly"] for e in axis] == ["x^2 - 1/3"] * 3


def test_detect_revolution_axis_exact():
    cone = parametrize_highest_form(mp("x*y + x*z + y*z"))
    axes = detect_revolution_axis(cone)
    assert len(axes) == 1
    u = axes[0]
    assert u[0].minpoly == UniPoly([Fraction(-1, 3), 0, 1])
    assert sign(u[0]) > 0
    assert all(x == u[0] for x in u)


def test_nonrevolution_cone_has_no_axis():
    cone = parametrize_highest_form(highest_form(implicit(EXAMPLE)))
    assert detect_revolution_axis(cone) == []


def test_axis_detection_propagates_solver_faults(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(implicit_module, "solve_zero_dim", broken)
    cone = parametrize_highest_form(mp("x*y + x*z + y*z"))
    with pytest.raises(RuntimeError):
        detect_revolution_axis(cone)


def test_lifting_solves_no_polynomial_system(monkeypatch):
    # lifts are linear in (b, lambda): only axis detection may reach the
    # zero-dimensional solver from this module
    def broken(*args, **kwargs):
        raise RuntimeError("solver called")

    monkeypatch.setattr(implicit_module, "solve_zero_dim", broken)
    assert kind_counts(implicit_pipeline(implicit(EXAMPLE))) == {
        "identity": 1,
        "reflection": 1,
        "axial_rotation": 1,
        "central_inversion": 1,
    }
    assert kind_counts(implicit_pipeline(implicit(THREE_FOLD))) == {
        "identity": 1,
        "reflection": 3,
        "axial_rotation": 3,
        "rotation": 2,
        "rotoreflection": 2,
        "central_inversion": 1,
    }


def matmul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)), Fraction(0))
                       for j in range(3)) for i in range(3))


def turn_z(c, s):
    return ((c, -s, 0), (s, c, 0), (0, 0, 1))


def turn_x(c, s):
    return ((1, 0, 0), (0, c, -s), (0, s, c))


def test_irrational_lifts_in_the_common_field():
    half_sqrt2, half_sqrt3 = alg_sqrt(2) / 2, alg_sqrt(3) / 2
    thirty = turn_z(half_sqrt3, Fraction(1, 2))
    matrices = [
        # a rational turn after a 30 degree turn: entries a + b*sqrt(3) that
        # are not multiples of one radical
        matmul(turn_z(Fraction(3, 5), Fraction(4, 5)), thirty),
        # entries over Q(sqrt 2, sqrt 3)
        matmul(thirty, turn_x(half_sqrt2, half_sqrt2)),
    ]
    sphere = implicit(SPHERE)
    for q in matrices:
        assert substitution_holds(sphere, q, (0, 0, 0), Fraction(1))
        assert not substitution_holds(sphere, q, (1, 0, 0), Fraction(1))
        assert lift_symmetry(sphere, q) == ((0, 0, 0), 1)


def test_three_fold_cone_lifts():
    rep = implicit_pipeline(implicit(THREE_FOLD))
    assert kind_counts(rep) == {
        "identity": 1,
        "reflection": 3,
        "axial_rotation": 3,
        "rotation": 2,
        "rotoreflection": 2,
        "central_inversion": 1,
    }
    rep = implicit_pipeline(implicit(THREE_FOLD + " + z"))
    assert kind_counts(rep) == {"identity": 1, "reflection": 3, "rotation": 2}


def test_five_fold_cone_symmetries():
    # the parameter-map coordinates of this cone's general chart live in
    # different quartic fields, so a solver that combines coordinates
    # root by root pays for every spurious combination here; each of the
    # 20 orthogonal parts is then lifted over the field of its entries
    rep = implicit_pipeline(implicit(FIVE_FOLD))
    assert kind_counts(rep) == {
        "identity": 1,
        "reflection": 5,
        "axial_rotation": 5,
        "rotation": 4,
        "rotoreflection": 4,
        "central_inversion": 1,
    }
    # F is homogeneous, so every symmetry fixes the origin; each one maps
    # the plane z = 0, where F = (x^2 + y^2)^3 > 0, onto itself, so lambda
    # is 1
    for f, extra in zip(rep.isometries, rep.extras):
        assert f.b == (0, 0, 0)
        assert extra == {"lambda": {"rat": "1"}}
