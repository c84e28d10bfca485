"""Canonical JSON reports for computed symmetry groups.

Every numeric value is serialized exactly: rationals as ``{"rat": "a/b"}``
and irrational algebraic numbers as minimal polynomial plus isolating
interval, with a 30-digit decimal rendering that is display-only.  The
interval is the cell of a fixed dyadic grid that holds the root, so it does
not depend on how far the computation happened to refine the value.  The
report is byte-deterministic for a given input: isometries are already
canonically sorted by the recovery stage, object keys are sorted on
serialization, and nothing time- or host-dependent is embedded.
"""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from . import __version__
from .algnum import Alg
from .isometry import symmetries, filter_involutions
from .errors import PreconditionViolation

_APPROX_DIGITS = 30
# isolation width that pins down 30 decimal digits with room to spare
_APPROX_WIDTH = Fraction(1, 10 ** (_APPROX_DIGITS + 5))
# coarsest dyadic grid whose cells are no wider than _APPROX_WIDTH (117)
_GRID_BITS = (math.ceil(1 / _APPROX_WIDTH) - 1).bit_length()


def encode_value(v):
    """Exact JSON encoding of a rational or real algebraic number."""
    if isinstance(v, Alg):
        iv = v.canonical_interval(_GRID_BITS)
        return {
            "minpoly": v.minpoly.render("x"),
            "interval": [_frac_str(iv.lo), _frac_str(iv.hi)],
            "approx": _decimal_str((iv.lo + iv.hi) / 2),
        }
    return {"rat": _frac_str(v)}


def _frac_str(v):
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


def _decimal_str(mid):
    with localcontext() as ctx:
        ctx.prec = _APPROX_DIGITS
        d = Decimal(mid.numerator) / Decimal(mid.denominator)
    return str(d)


def encode_vector(vec):
    return [encode_value(x) for x in vec]


def encode_matrix(mat):
    return [encode_vector(row) for row in mat]


def _poly_entries(poly):
    return [encode_value(c) for c in poly.coeffs]


def _poly_display(poly, var="t"):
    """Human-readable form when every coefficient is rational, else None."""
    if any(isinstance(c, Alg) for c in poly.coeffs):
        return None
    return poly.render(var)


def encode_ratfunc(r, var="t"):
    if r is None:
        return None
    num_disp = _poly_display(r.num, var)
    den_disp = _poly_display(r.den, var)
    display = None
    if num_disp is not None and den_disp is not None:
        display = num_disp if den_disp == "1" else "(%s)/(%s)" % (num_disp, den_disp)
    return {
        "num": _poly_entries(r.num),
        "den": _poly_entries(r.den),
        "display": display,
    }


def _fixed_locus(kind, geometry):
    if kind == "identity":
        return {"type": "space"}
    if kind in ("rotation", "axial_rotation"):
        return {
            "type": "line",
            "point": encode_vector(geometry["axis_point"]),
            "direction": encode_vector(geometry["axis_direction"]),
        }
    if kind == "reflection":
        return {
            "type": "plane",
            "normal": encode_vector(geometry["plane_normal"]),
            "offset": encode_value(geometry["plane_offset"]),
            "point": encode_vector(geometry["plane_point"]),
        }
    if kind == "central_inversion":
        return {"type": "point", "point": encode_vector(geometry["center"])}
    # the last of the six kinds classify names: a rotoreflection
    return {"type": "point", "point": encode_vector(geometry["axis_point"])}


def _angle(geometry):
    if "cos_angle" not in geometry:
        return None
    out = {"cos": encode_value(geometry["cos_angle"])}
    if "sin_angle" in geometry:
        out["sin"] = encode_value(geometry["sin_angle"])
    return out


def _mobius(candidate):
    if candidate is None:
        return None
    return {
        "gamma": candidate.gamma,
        "alpha": encode_value(candidate.alpha),
        "beta": encode_value(candidate.beta),
        "delta": encode_value(candidate.delta),
    }


def isometry_record(f, extra=None):
    record = {
        "kind": f.kind,
        "Q": encode_matrix(f.Q),
        "b": encode_vector(f.b),
        "involution": f.is_involution(),
        "fixed_locus": _fixed_locus(f.kind, f.geometry),
        "angle": _angle(f.geometry),
        "mobius": _mobius(f.candidate),
        "k": None if f.candidate is None else encode_value(f.candidate.k),
        "c": encode_ratfunc(f.c),
    }
    if f.kind == "rotoreflection":
        record["axis"] = {
            "point": encode_vector(f.geometry["axis_point"]),
            "direction": encode_vector(f.geometry["axis_direction"]),
        }
    if extra:
        record.update(extra)
    return record


class SymmetryReport:
    """Assembled result of one symmetry computation, ready to serialize."""

    __slots__ = ("surface", "mode", "isometries", "notes", "extras")

    def __init__(self, surface, mode, isometries, notes=(), extras=None):
        self.surface = surface
        self.mode = mode
        self.isometries = list(isometries)
        self.notes = list(notes)
        # per-isometry extra fields, aligned with self.isometries
        self.extras = list(extras) if extras is not None else [None] * len(self.isometries)

    def counts(self):
        out = {}
        for f in self.isometries:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def to_dict(self):
        if self.surface is None or isinstance(self.surface, dict):
            subject = self.surface
        else:
            subject = self.surface.render()
        return {
            "generator": {"name": "ruledsym", "version": __version__},
            "mode": self.mode,
            "surface": subject,
            "count": len(self.isometries),
            "counts_by_kind": self.counts(),
            "isometries": [
                isometry_record(f, extra)
                for f, extra in zip(self.isometries, self.extras)
            ],
            "notes": self.notes,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


_PROPERNESS_NOTE = {
    "code": "PROPERNESS_ASSUMED",
    "message": "the parametrization is assumed proper (generically injective); "
               "properness itself is not verified",
}


def build_report(surface, mode):
    """Run the parametric pipeline and wrap the result for serialization.

    ``mode`` is one of ``all``, ``involutions``, ``conical``; the implicit
    pipeline assembles its own report.
    """
    if mode == "conical" and not base_vertex_exists(surface):
        raise PreconditionViolation(
            "conical mode requires a surface whose rulings pass through a "
            "common vertex")
    found = symmetries(surface)
    notes = [dict(_PROPERNESS_NOTE)]
    if surface.base_is_constant():
        notes.append({
            "code": "CONICAL_FAST_PATH",
            "message": "all rulings pass through a single vertex, so every "
                       "symmetry fixes it: translation data is forced and the "
                       "ruling shift vanishes",
        })
    if surface.n <= 1:
        notes.append({
            "code": "RESTRICTED_FALLBACK",
            "message": "the direction curve has degree at most one; only "
                       "symmetries compatible with the given ruling family "
                       "are enumerated (a doubly ruled quadric can carry "
                       "further symmetries exchanging its two rulings)",
        })
    if mode == "involutions":
        found = filter_involutions(found)
    return SymmetryReport(surface, mode, found, notes)


def base_vertex_exists(surface):
    return surface.base_is_constant() or surface.conical_vertex() is not None
