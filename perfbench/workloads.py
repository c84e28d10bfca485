"""Seeded metamorphic variants of the pinned base inputs, per workload.

Every variant is a base input moved by a transformation that cannot change
its symmetry group up to conjugacy: a rigid motion of space, a Moebius
reparametrisation of t, a re-anchoring of the rulings p -> p + nu q, or, for
implicit surfaces, a signed permutation of the coordinates plus a
translation.  The expected count, counts by kind and note codes therefore
stay those of the base input, and are pinned here.  README.md says why
each workload was chosen and which inputs are left out.
"""

import itertools
import json
import random
from fractions import Fraction

from algebra import RatFunc, parse_poly3, parse_ratfunc, X, Y, Z

# Base surfaces, copied from the test corpus so that the benchmark inputs
# stay fixed when the tests change.
SURFACES = {
    "golden": {
        "p": [
            "(2*t^8 - 10*t^6 - 10*t^4 + 5*t^2 + 1)/(t^2 + 1)",
            "-(t^9 - 6*t^7 + 6*t^3 + t^2 - 3*t + 1)/(t^2 + 1)",
            "t^7 + 3*t^5 + 3*t^3 + t + 5",
        ],
        "q": [
            "2*t*(t^4 - 6*t^2 + 1)",
            "-t^6 + 7*t^4 - 7*t^2 + 1",
            "(t^2 + 1)^3",
        ],
    },
    "x2": {
        "p": [
            "(t^7 + 7*t^5 + 3*t^3 - t^2 - 3*t + 1)/(t^2 + 1)",
            "2*t*(4*t^5 + 4*t^3 + 1)/(t^2 + 1)",
            "t*(t^2 + 1)^2",
        ],
        "q": ["-t^4 - 6*t^2 + 3", "8*t^3", "(t^2 + 1)^2"],
    },
    "x3": {
        "p": [
            "t^6 - 6*t^4 + t^2 + 2*t",
            "-t^7 + 6*t^5 - t^3 + t^2 + t",
            "t^3 + t",
        ],
        "q": ["t^5 - 6*t^3 + t", "-t^6 + 6*t^4 - t^2 + 1", "t^2 + 1"],
    },
    "x4": {
        "p": ["t^2/(t^2 + 1)", "t^4/(t^2 + 1)", "t^5/(t^2 + 1)"],
        "q": ["t", "t^3", "1"],
    },
    "x5": {
        "p": ["0", "0", "0"],
        "q": [
            "2*t*(t^4 - 6*t^2 + 1)",
            "(-t^2 + 1)*(t^4 - 6*t^2 + 1)",
            "(t^2 + 1)^3",
        ],
    },
    "x6": {
        "p": ["4", "1", "t"],
        "q": ["(t + 1)^2", "t + 1", "1"],
    },
    "x7": {
        "p": ["0", "0", "0"],
        "q": ["3*(t + 1)^2*(t - 1)", "(t - 1)^3", "(t + 1)^3"],
    },
    "x8": {
        "p": ["t^3/(t^2 + 1)", "t^5/(t^2 + 1)", "t^7/(t^2 + 1)"],
        "q": ["-t^5 + t", "3*t^7", "-2*t^3"],
    },
    "x9": {
        "p": ["t^4 + t^2 + t", "t^6 + t^3", "t^5 + t^3 + t^2 + 3*t"],
        "q": ["t^3 + t", "t^5", "t^4 + t^2 + 3"],
    },
    "x10": {
        "p": [
            "-(t^17 - 6*t^15 + 6*t^11 - 6*t^7 + 6*t^3 - t^2 - t + 1)/(t^2 + 1)",
            "2*t*(t^15 - 5*t^13 - 5*t^11 + t^9 + t^7 - 5*t^5 - 5*t^3 + t + 1)/(t^2 + 1)",
            "t*(t^2 + 1)^3*(t^8 + 1)",
        ],
        "q": [
            "-t^6 + 7*t^4 - 7*t^2 + 1",
            "2*t*(t^4 - 6*t^2 + 1)",
            "(t^2 + 1)^3",
        ],
    },
    "cone_x2": {
        "p": ["0", "0", "0"],
        "q": ["-t^4 - 6*t^2 + 3", "8*t^3", "(t^2 + 1)^2"],
    },
    "linear_q": {
        "p": ["t", "0", "0"],
        "q": ["0", "1", "t"],
    },
}

IMPLICIT = {
    "sextic": "x^6 + y^5*z + 6*x^5 + 14*x^4 + 16*x^3 + 8*x^2 + z^2",
    "sextic_x": "x^6 + y^5*z + 6*x^5 + 14*x^4 + 16*x^3 + 8*x^2 + z^2 + x",
    "cubic_cone": "x^3 - 27*y*z^2",
    "revolution": "x*y + x*z + y*z",
}

_PROPER = "PROPERNESS_ASSUMED"
_CONICAL = "CONICAL_FAST_PATH"
_RESTRICTED = "RESTRICTED_FALLBACK"
_HIGHEST = "HIGHEST_FORM_METHOD"
_REVOLUTION = "REVOLUTION_SUSPECTED"

# Symmetry group of each base input: (count, counts_by_kind, note codes
# other than the constant-base note, which depends on the variant).  The
# groups of golden, x5-x9, cone_x2 and linear_q are those asserted by the
# acceptance tests.
EXPECTED = {
    "golden": (8, {"identity": 1, "reflection": 2, "axial_rotation": 3,
                   "rotoreflection": 2}, [_PROPER]),
    "x2": (1, {"identity": 1}, [_PROPER]),
    "x3": (2, {"identity": 1, "reflection": 1}, [_PROPER]),
    "x4": (2, {"identity": 1, "reflection": 1}, [_PROPER]),
    "x5": (16, {"identity": 1, "reflection": 5, "axial_rotation": 5,
                "central_inversion": 1, "rotation": 2,
                "rotoreflection": 2}, [_PROPER]),
    "x6": (2, {"identity": 1, "axial_rotation": 1}, [_PROPER]),
    "x7": (4, {"identity": 1, "central_inversion": 1, "reflection": 1,
               "axial_rotation": 1}, [_PROPER]),
    "x8": (2, {"identity": 1, "central_inversion": 1}, [_PROPER]),
    "x9": (2, {"identity": 1, "axial_rotation": 1}, [_PROPER]),
    "x10": (8, {"identity": 1, "axial_rotation": 1, "reflection": 4,
                "rotation": 2}, [_PROPER]),
    "cone_x2": (12, {"identity": 1, "reflection": 3, "axial_rotation": 3,
                     "central_inversion": 1, "rotation": 2,
                     "rotoreflection": 2}, [_PROPER]),
    "linear_q": (4, {"identity": 1, "axial_rotation": 3},
                 [_PROPER, _RESTRICTED]),
    "sextic": (4, {"identity": 1, "axial_rotation": 1, "reflection": 1,
                   "central_inversion": 1}, [_HIGHEST]),
    "sextic_x": (2, {"identity": 1, "axial_rotation": 1}, [_HIGHEST]),
    "cubic_cone": (4, {"identity": 1, "central_inversion": 1,
                       "reflection": 1, "axial_rotation": 1}, [_HIGHEST]),
    "revolution": (1, {"identity": 1}, [_HIGHEST, _REVOLUTION]),
}

# Bases per workload, in the order a cycle visits them.
BASES = {
    "rational": ("golden", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10",
                 "linear_q"),
    "sqrt3": ("x2", "cone_x2"),
    "reparam": ("golden", "x4", "x5", "x6", "x7", "x8", "x9", "x10"),
    "implicit": ("sextic", "sextic_x", "cubic_cone", "revolution"),
}

WORKLOADS = tuple(BASES)

# Skew vectors (a, b, c) of the Cayley transform: rotations by angles
# that are not multiples of a quarter turn, with small denominators.
_CAYLEY = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
_SHIFTS = (-1, 1)
_ANCHORS = (Fraction(-1), Fraction(1), Fraction(1, 2), Fraction(-1, 2))
_AFFINE = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# Inversion-type Moebius maps (a t + b)/(c t + d) with c = 1: 1/t,
# 1/(t + 1) and -1/t.  (t + 1)/t, t/(t + 1) and (t - 1)/t are left out:
# each takes more than 30 s on x8 and on x9.
_INVERSIONS = ((0, 1, 1, 0), (0, 1, 1, 1), (0, -1, 1, 0))


def cayley(a, b, c):
    """The rational rotation (I - A)(I + A)^-1 of the skew matrix A of (a, b, c)."""
    skew = ((0, -c, b), (c, 0, -a), (-b, a, 0))
    minus = [[(i == j) - skew[i][j] for j in range(3)] for i in range(3)]
    plus = [[(i == j) + skew[i][j] for j in range(3)] for i in range(3)]
    det = 1 + a * a + b * b + c * c
    # inverse of I + A by cofactors: its determinant is 1 + |v|^2
    inverse = [[Fraction(plus[(j + 1) % 3][(i + 1) % 3] * plus[(j + 2) % 3][(i + 2) % 3]
                         - plus[(j + 1) % 3][(i + 2) % 3] * plus[(j + 2) % 3][(i + 1) % 3],
                         det) for j in range(3)] for i in range(3)]
    return tuple(tuple(sum(minus[i][k] * inverse[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


_PERMUTATIONS = tuple(itertools.permutations(range(3)))


def signed_permutation(rng, perm):
    """The matrix of the permutation ``perm`` with seeded signs."""
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    return tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(3))
                 for i in range(3))


def _apply(matrix, vec):
    return [sum((matrix[i][j] * vec[j] for j in range(3)), RatFunc(()))
            for i in range(3)]


def _translation(rng):
    while True:
        v = tuple(rng.choice(_SHIFTS + (0,)) for _ in range(3))
        if any(v):
            return v


def _direction_degree(q):
    return max(len(c.num) - 1 for c in q)


def _surface_variant(name, rng, rot, mobius=None, anchor=False):
    """Base surface ``name`` moved by the orthogonal matrix ``rot`` and a
    seeded translation, after the optional reparametrisation and
    re-anchoring."""
    base = SURFACES[name]
    p = [parse_ratfunc(e) for e in base["p"]]
    q = [parse_ratfunc(e) for e in base["q"]]
    if mobius is not None:
        n = _direction_degree(q)
        p = [c.mobius(*mobius, 0) for c in p]
        q = [c.mobius(*mobius, n) for c in q]
    if anchor:
        nu = rng.choice(_ANCHORS)
        p = [pi + nu * qi for pi, qi in zip(p, q)]
    shift = _translation(rng)
    p = [c + s for c, s in zip(_apply(rot, p), shift)]
    q = _apply(rot, q)
    count, kinds, notes = EXPECTED[name]
    notes = list(notes)
    if all(c.is_constant() for c in p):
        notes.insert(1, _CONICAL)
    payload = {"p": [c.render() for c in p], "q": [c.render() for c in q]}
    return {"kind": "parametric", "base": name, "text": json.dumps(payload),
            "expected": {"count": count, "counts_by_kind": kinds,
                         "notes": notes}}


def _implicit_variant(name, rng, perm):
    perm = signed_permutation(rng, perm)
    shift = _translation(rng)
    images = [sum((perm[i][j] * v for j, v in enumerate((X, Y, Z))), shift[i])
              for i in range(3)]
    moved = parse_poly3(IMPLICIT[name]).substitute(images)
    count, kinds, notes = EXPECTED[name]
    return {"kind": "implicit", "base": name, "text": moved.render(),
            "expected": {"count": count, "counts_by_kind": kinds,
                         "notes": list(notes)}}


# Variants of each base in one cycle.  The parameter that moves the cost
# most is not left to the seed but fixed by position, ``level``: the
# rotation and inversion map of a surface follow its place in BASES, and
# every implicit base is moved by every permutation of the coordinates (the
# permutation picks the plane its cone is sliced with).  Every seed's cycle
# then costs about the same; the seed picks signs, translations,
# re-anchoring and the affine map.  One variant of each surface keeps a
# cycle short enough that a run repeats every input at least twice.
DRAWS = {"rational": 1, "sqrt3": 1, "reparam": 1, "implicit": len(_PERMUTATIONS)}


def variant(workload, name, rng, level):
    if workload == "rational":
        return _surface_variant(name, rng, cayley(*_CAYLEY[level % 3]),
                                mobius=rng.choice(_AFFINE) + (0, 1),
                                anchor=True)
    if workload == "sqrt3":
        return _surface_variant(name, rng,
                                signed_permutation(rng, _PERMUTATIONS[level % 6]))
    if workload == "reparam":
        return _surface_variant(name, rng, cayley(*_CAYLEY[level % 3]),
                                mobius=_INVERSIONS[level % 3], anchor=True)
    if workload == "implicit":
        return _implicit_variant(name, rng, _PERMUTATIONS[level % 6])
    raise ValueError("unknown workload %r" % workload)


def generate(workload, seed):
    """One cycle: DRAWS seeded variants of every base, in a seeded order.

    A run repeats the cycle, so any whole number of cycles has the same mix
    of inputs, and counts per cycle repeat exactly.
    """
    ops = []
    for index, name in enumerate(BASES[workload]):
        for draw in range(DRAWS[workload]):
            rng = random.Random("%s:%d:%s:%d" % (workload, seed, name, draw))
            op = variant(workload, name, rng, index + draw)
            op["id"] = "%s-%d-%s-%d" % (workload, seed, name, draw)
            ops.append(op)
    random.Random("%s:%d" % (workload, seed)).shuffle(ops)
    return ops


def dump(ops):
    """Canonical bytes of a list of operations."""
    return json.dumps(ops, sort_keys=True).encode()
