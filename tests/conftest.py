from fractions import Fraction

import pytest

from ruledsym.mpoly import MultiPoly
from ruledsym.surface import RuledSurface, surface_from_json

# The worked corpus: rational ruled surfaces with known symmetry structure.
SURFACE_JSON = {
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
        "p": [
            "t^4 + t^2 + t",
            "t^6 + t^3",
            "t^5 + t^3 + t^2 + 3*t",
        ],
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
    # the cone spanned by the direction of x2 (rulings only, vertex at origin)
    "cone_x2": {
        "p": ["0", "0", "0"],
        "q": ["-t^4 - 6*t^2 + 3", "8*t^3", "(t^2 + 1)^2"],
    },
    # negative control: all rulings parallel to (1, 2, 3)
    "cylinder": {
        "p": ["t^2", "t", "1"],
        "q": ["t + 1", "2*(t + 1)", "3*(t + 1)"],
    },
    # hyperbolic paraboloid z = xy: every direction component is linear
    "linear_q": {
        "p": ["t", "0", "0"],
        "q": ["0", "1", "t"],
    },
}


def build_surface(name):
    return surface_from_json(SURFACE_JSON[name])


@pytest.fixture(scope="session")
def corpus():
    return {name: build_surface(name) for name in SURFACE_JSON}


@pytest.fixture
def golden(corpus):
    return corpus["golden"]


# ---- helpers that only the tests need ----

def substitute_poly(p, name, poly):
    """p with the variable name replaced by poly, a MultiPoly on p.vars."""
    i = p.vars.index(name)
    total = MultiPoly(p.vars)
    for exp, c in p.terms.items():
        rest = list(exp)
        rest[i] = 0
        total = total + MultiPoly(p.vars, {tuple(rest): c}) * poly ** exp[i]
    return total


def is_identity_map(c):
    """Whether a parameter-map candidate is psi(t) = t with k = 1."""
    return c.gamma == 0 and c.alpha == 1 and c.beta == 0 and c.k == 1


def same_map(c, d):
    """Whether two parameter-map candidates carry the same psi and k."""
    return (c.gamma == d.gamma and c.alpha == d.alpha and c.beta == d.beta
            and c.delta == d.delta and c.k == d.k)


def monic_elements(basis):
    """A groebner.Basis as its monic elements over Q, keyed by exponent
    tuples, in the basis's order."""
    out = []
    for p in basis.elements():
        lc = p[max(p)]
        out.append({m: Fraction(c, lc) for m, c in p.items()})
    return out
