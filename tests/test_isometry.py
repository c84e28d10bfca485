import random
from fractions import Fraction

import pytest
import sympy

from ruledsym.algnum import Alg, alg_sqrt, sign
from ruledsym.errors import CylindricalInput, NotAnIsometry
from ruledsym.isometry import (
    Isometry,
    PsiImages,
    classify,
    compose,
    filter_involutions,
    solve_q_matrices,
    symmetries,
    verify_symmetry,
)
from ruledsym.linalg import mat_inv3, mat_mul, mat_vec
from ruledsym.parser import parse_ratfunc
from ruledsym.phisys import build_systems
from ruledsym.solver import solve_parameter_maps
from ruledsym.surface import RuledSurface, surface_from_json
from ruledsym.upoly import UniPoly

from conftest import SURFACE_JSON, is_identity_map, same_map

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def kind_counts(isos):
    out = {}
    for f in isos:
        out[f.kind] = out.get(f.kind, 0) + 1
    return out


# ---------------------------------------------------------------------------
# the worked example with eight symmetries


def test_golden_group(golden):
    syms = symmetries(golden)
    assert len(syms) == 8
    assert kind_counts(syms) == {
        "identity": 1,
        "reflection": 2,
        "axial_rotation": 3,
        "rotoreflection": 2,
    }


def test_golden_axial_half_turn_details(golden):
    syms = symmetries(golden)
    target = [f for f in syms
              if f.Q == ((-1, 0, 0), (0, 1, 0), (0, 0, -1))]
    assert len(target) == 1
    f = target[0]
    assert f.kind == "axial_rotation"
    assert f.b == (4, 0, 10)
    assert f.c == parse_ratfunc("-(t^8 + 1)/t")
    # the axis is the line {x = 2, z = 5}
    assert f.geometry["axis_direction"] == (0, 1, 0)
    assert f.geometry["axis_point"] == (2, 0, 5)
    assert f.geometry["cos_angle"] == -1


def test_golden_all_symmetries_certify(golden):
    for f in symmetries(golden):
        assert verify_symmetry(golden, f.candidate, f.Q, f.b, f.c)


def test_golden_tampered_translation_rejected(golden):
    f = next(f for f in symmetries(golden) if f.kind == "axial_rotation"
             and f.b != (0, 0, 0))
    wrong = (f.b[0] + 1, f.b[1], f.b[2])
    assert not verify_symmetry(golden, f.candidate, f.Q, wrong, f.c)


def test_golden_involution_subset(golden):
    syms = symmetries(golden)
    invs = filter_involutions(syms)
    # the two rotoreflections are the only non-involutive motions
    assert len(invs) == 6
    assert kind_counts(invs) == {
        "identity": 1,
        "reflection": 2,
        "axial_rotation": 3,
    }
    for f in syms:
        twice = compose(f, f)
        assert (twice.kind == "identity") == f.is_involution()


def test_golden_group_closure(golden):
    syms = symmetries(golden)
    for f in syms:
        for g in syms:
            h = compose(f, g)
            assert any(h.same_motion(u) for u in syms)


def test_golden_distinct_parameter_maps(golden):
    syms = symmetries(golden)
    for i, f in enumerate(syms):
        for g in syms[i + 1:]:
            assert not same_map(f.candidate, g.candidate)


# ---------------------------------------------------------------------------
# conical corpus


def test_x5_cone_group(corpus):
    syms = symmetries(corpus["x5"])
    assert len(syms) == 16
    assert kind_counts(syms) == {
        "identity": 1,
        "reflection": 5,
        "axial_rotation": 5,
        "central_inversion": 1,
        "rotation": 2,
        "rotoreflection": 2,
    }
    for f in syms:
        assert f.b == (0, 0, 0)
        assert f.c.num.is_zero()


def test_x5_rotations_are_quarter_turns(corpus):
    # the group is the full symmetry group of a square prism (order 16);
    # its two proper non-half-turn rotations are the quarter turns about z
    rots = [f for f in symmetries(corpus["x5"]) if f.kind == "rotation"]
    assert len(rots) == 2
    sines = set()
    for f in rots:
        assert f.geometry["axis_direction"] == (0, 0, 1)
        assert f.geometry["cos_angle"] == 0
        sines.add(f.geometry["sin_angle"])
    assert sines == {1, -1}


def test_cone_vertex_translation_forced():
    # moving the vertex off the origin forces b = v - Qv exactly
    shifted = surface_from_json({
        "p": ["1", "2", "3"],
        "q": [
            "2*t*(t^4 - 6*t^2 + 1)",
            "(-t^2 + 1)*(t^4 - 6*t^2 + 1)",
            "(t^2 + 1)^3",
        ],
    })
    syms = symmetries(shifted)
    assert len(syms) == 16
    v = (1, 2, 3)
    for f in syms:
        qv = tuple(sum(f.Q[i][j] * v[j] for j in range(3)) for i in range(3))
        assert f.b == tuple(a - b for a, b in zip(v, qv))


def test_cone_x2_contains_exact_third_turn(corpus):
    syms = symmetries(corpus["cone_x2"])
    rots = [f for f in syms if f.kind == "rotation"
            and f.geometry["axis_direction"] == (0, 0, 1)
            and f.geometry["cos_angle"] == Fraction(-1, 2)]
    assert rots, "2pi/3 rotation about the z-axis is missing"
    f = rots[0]
    # entries live in Q(sqrt 3): sin = ±sqrt(3)/2, so Q[1][0] = ±sqrt(3)/2
    entry = f.Q[1][0]
    assert entry.minpoly == UniPoly([Fraction(-3, 4), 0, 1])
    assert f.Q[0][0] == Fraction(-1, 2) and f.Q[2][2] == 1
    assert f.b == (0, 0, 0)


# ---------------------------------------------------------------------------
# the non-conical table rows


def test_x6_single_axial(corpus):
    syms = symmetries(corpus["x6"])
    assert kind_counts(syms) == {"identity": 1, "axial_rotation": 1}


def test_x7_group(corpus):
    syms = symmetries(corpus["x7"])
    assert kind_counts(syms) == {
        "identity": 1,
        "reflection": 1,
        "axial_rotation": 1,
        "central_inversion": 1,
    }


def test_x8_central_only(corpus):
    syms = symmetries(corpus["x8"])
    assert kind_counts(syms) == {"identity": 1, "central_inversion": 1}


def test_x9_axial_half_turn(corpus):
    # the only non-trivial symmetry is the half-turn about the z-axis;
    # writing p = t*q + (t, t^3, t^2) exhibits the base curve components as
    # odd/odd/even, which forces exactly this motion
    syms = symmetries(corpus["x9"])
    assert kind_counts(syms) == {"identity": 1, "axial_rotation": 1}
    f = next(f for f in syms if f.kind == "axial_rotation")
    assert f.Q == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert f.b == (0, 0, 0)
    assert f.c == parse_ratfunc("2*t")


def test_x9_no_mirror(corpus):
    # regression: the z-mirror candidate Q = diag(1, 1, -1) intertwines the
    # direction curve but admits no translation, so it must not survive
    syms = symmetries(corpus["x9"])
    assert all(f.Q != ((1, 0, 0), (0, 1, 0), (0, 0, -1)) for f in syms)
    assert all(f.kind != "reflection" for f in syms)


def test_x2_trivial_group(corpus):
    syms = symmetries(corpus["x2"])
    assert len(syms) == 1
    assert syms[0].kind == "identity"


def test_x3_x4_groups(corpus):
    # each carries a single coordinate-plane mirror through the origin
    x3 = symmetries(corpus["x3"])
    assert kind_counts(x3) == {"identity": 1, "reflection": 1}
    assert next(f for f in x3 if f.kind == "reflection").geometry[
        "plane_normal"] == (1, 0, 0)
    x4 = symmetries(corpus["x4"])
    assert kind_counts(x4) == {"identity": 1, "reflection": 1}
    assert next(f for f in x4 if f.kind == "reflection").geometry[
        "plane_normal"] == (0, 0, 1)


def test_x10_group(corpus):
    syms = symmetries(corpus["x10"])
    assert len(syms) == 8
    assert kind_counts(syms) == {
        "identity": 1,
        "reflection": 4,
        "axial_rotation": 1,
        "rotation": 2,
    }


# ---------------------------------------------------------------------------
# degenerate inputs


def test_cylinder_rejected(corpus):
    with pytest.raises(CylindricalInput):
        symmetries(corpus["cylinder"])


def test_linear_direction_fallback(corpus):
    # hyperbolic paraboloid z = xy; the fallback enumerates the symmetries
    # compatible with the sampled ruling family
    syms = symmetries(corpus["linear_q"])
    assert kind_counts(syms) == {"identity": 1, "axial_rotation": 3}
    rng = random.Random(7)
    surface = corpus["linear_q"]
    for f in syms:
        for _ in range(8):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            x, y, z = f.apply(surface.point(t, s))
            assert z == x * y


# ---------------------------------------------------------------------------
# orthogonal-part solving on a rank-deficient direction system


def test_quadratic_direction_cone_group():
    cone = surface_from_json({
        "p": ["0", "0", "0"],
        "q": ["t^2 + 1", "t", "2*t^2 + t + 2"],
    })
    syms = symmetries(cone)
    assert len(syms) == 8
    assert kind_counts(syms) == {
        "identity": 1,
        "reflection": 3,
        "axial_rotation": 3,
        "central_inversion": 1,
    }
    # the rational mirror is I - (1/3) a a^T for a = (2, 1, -1)
    mirrors = [f for f in syms if f.kind == "reflection"
               and f.geometry["plane_normal"] == (2, 1, -1)]
    assert len(mirrors) == 1
    assert mirrors[0].Q[0] == (Fraction(-1, 3), Fraction(-2, 3), Fraction(2, 3))


def test_identity_candidate_can_carry_extra_matrices():
    cone = surface_from_json({
        "p": ["0", "0", "0"],
        "q": ["t^2 + 1", "t", "2*t^2 + t + 2"],
    })
    cands = solve_parameter_maps(cone, build_systems(cone))
    ident = [c for c in cands if is_identity_map(c)]
    assert len(ident) == 1
    mats = solve_q_matrices(PsiImages(cone, ident[0]))
    # the direction curve spans only a plane, so the identity map is
    # intertwined by the identity matrix and by one genuine mirror
    assert len(mats) == 2


def _is_exact_value(v):
    """A Fraction, or an Alg with a nonconstant coordinate."""
    if isinstance(v, Alg):
        return any(v.coords[1:])
    return type(v) is Fraction


@pytest.mark.parametrize("name", ["golden", "x2", "cone_x2", "linear_q"])
def test_symmetry_values_are_fractions_or_irrational(corpus, name):
    syms = symmetries(corpus[name])
    assert syms
    for f in syms:
        cand = f.candidate
        values = [x for row in f.Q for x in row] + list(f.b)
        values += [cand.alpha, cand.beta, cand.delta, cand.k]
        values += list(f.c.num.coeffs) + list(f.c.den.coeffs)
        for v in f.geometry.values():
            values += list(v) if isinstance(v, tuple) else [v]
        assert all(_is_exact_value(v) for v in values), (f, values)


# ---------------------------------------------------------------------------
# classification unit checks


def test_classify_identity():
    assert classify(I3, (0, 0, 0)) == ("identity", {})


def test_classify_rejects_motions_of_infinite_order():
    # a surface invariant under one of these is cylindrical
    translation = (I3, (1, 2, 3))
    screw = (((-1, 0, 0), (0, -1, 0), (0, 0, 1)), (0, 0, 5))
    glide_reflection = (((-1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 3, 0))
    for q, b in (translation, screw, glide_reflection):
        with pytest.raises(NotAnIsometry):
            classify(q, b)


def test_classify_rotation_angle_and_axis():
    half = Fraction(1, 2)
    s = alg_sqrt(Fraction(3, 4))
    q = ((half, -s, 0), (s, half, 0), (0, 0, 1))
    kind, geom = classify(q, (0, 0, 0))
    assert kind == "rotation"
    assert geom["axis_direction"] == (0, 0, 1)
    assert geom["cos_angle"] == half
    assert sign(geom["sin_angle"]) > 0


def test_classify_reflection_plane():
    mirror = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    kind, geom = classify(mirror, (0, 0, 4))
    assert kind == "reflection"
    assert geom["plane_normal"] == (0, 0, 1)
    assert geom["plane_offset"] == 2
    assert geom["plane_point"] == (0, 0, 2)


def test_classify_central_inversion():
    minus = tuple(tuple(-v for v in row) for row in I3)
    kind, geom = classify(minus, (2, 4, 6))
    assert kind == "central_inversion"
    assert geom["center"] == (1, 2, 3)


def test_classify_rotoreflection_fixed_point():
    s = alg_sqrt(Fraction(3, 4))
    q = ((-Fraction(1, 2), s, 0), (-s, -Fraction(1, 2), 0), (0, 0, -1))
    kind, geom = classify(q, (0, 0, 2))
    assert kind == "rotoreflection"
    assert geom["axis_direction"] == (0, 0, 1)
    assert geom["axis_point"] == (0, 0, 1)
    assert geom["cos_angle"] == -Fraction(1, 2)


def test_isometry_involution_flags():
    mirror = Isometry(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 4),
                      None, None)
    assert mirror.is_involution()
    quarter_turn = Isometry(((0, -1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, 0),
                            None, None)
    assert not quarter_turn.is_involution()


# ---------------------------------------------------------------------------
# metamorphic: a reparametrization of t does not change the symmetry group

_T = sympy.Symbol("t")
_REPARAMETRIZATIONS = {"1/t": 1 / _T, "-t": -_T, "1/(t+1)": 1 / (_T + 1)}


def _reparametrized(name, image):
    """The corpus surface name with t replaced by image, as input JSON."""
    def substitute(text):
        expr = sympy.sympify(text.replace("^", "**")).subs(_T, image)
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        return "(%s)/(%s)" % (sympy.expand(num), sympy.expand(den))

    return {key: [substitute(c) for c in comps]
            for key, comps in SURFACE_JSON[name].items()}


@pytest.mark.parametrize("image", sorted(_REPARAMETRIZATIONS))
@pytest.mark.parametrize("name", ["x4", "x5", "x6", "linear_q"])
def test_reparametrization_keeps_the_symmetries(corpus, name, image):
    _check_reparametrization(corpus, name, image)


# the general chart's lex bases changed most on these two inputs
@pytest.mark.parametrize("image", ["1/t", "1/(t+1)"])
@pytest.mark.parametrize("name", ["x7", "x10"])
def test_reparametrization_keeps_the_symmetries_of_x7_and_x10(
        corpus, name, image):
    _check_reparametrization(corpus, name, image)


def _check_reparametrization(corpus, name, image):
    moved = surface_from_json(
        _reparametrized(name, _REPARAMETRIZATIONS[image]))
    want = symmetries(corpus[name])
    got = symmetries(moved)
    assert len(got) == len(want)
    for f in want:
        assert any(f.same_motion(g) for g in got), (f.Q, f.b)


# ---------------------------------------------------------------------------
# metamorphic: a rigid motion of the surface conjugates its symmetries


def _cayley(a, b, c):
    """The rational rotation (I - S)(I + S)^-1 of the skew matrix of (a, b, c)."""
    skew = ((0, -c, b), (c, 0, -a), (-b, a, 0))
    shifted = [tuple(tuple(Fraction(i == j) + sgn * skew[i][j]
                           for j in range(3)) for i in range(3))
               for sgn in (-1, 1)]
    return mat_mul(shifted[0], mat_inv3(shifted[1]))


_ROTATION = _cayley(1, 2, 0)
_SHIFT = (Fraction(1), Fraction(-2), Fraction(1, 2))


# linear_q takes the degree-one candidates, x5 the conical fast path and
# x4 the parameter-map solver; all three share the one motion loop
@pytest.mark.parametrize("name", ["linear_q", "x5", "x4"])
def test_rigid_motion_conjugates_the_symmetries(corpus, name):
    surface, r, v = corpus[name], _ROTATION, _SHIFT
    moved = RuledSurface(
        [sum((r[i][j] * surface.p[j] for j in range(3)), v[i])
         for i in range(3)],
        [sum(r[i][j] * surface.q[j] for j in range(3)) for i in range(3)])
    rt = tuple(zip(*r))
    want = []
    for f in symmetries(surface):
        q = mat_mul(mat_mul(r, f.Q), rt)
        b = tuple(x + y - z for x, y, z in
                  zip(mat_vec(r, f.b), v, mat_vec(q, v)))
        want.append(Isometry(q, b, None, None))
    got = symmetries(moved)
    assert len(got) == len(want)
    for f in want:
        assert any(f.same_motion(g) for g in got), (f.Q, f.b)
