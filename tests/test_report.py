import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ruledsym.algnum import alg_sqrt
from ruledsym.errors import PreconditionViolation
from ruledsym.report import (
    SymmetryReport,
    base_vertex_exists,
    build_report,
    encode_ratfunc,
    encode_value,
    isometry_record,
)
from ruledsym.parser import parse_ratfunc


def test_encode_value_rational():
    assert encode_value(Fraction(4, 3)) == {"rat": "4/3"}
    assert encode_value(Fraction(-7)) == {"rat": "-7"}
    assert encode_value(5) == {"rat": "5"}


def test_encode_value_algebraic():
    root = alg_sqrt(Fraction(3, 4))
    enc = encode_value(root)
    assert set(enc) == {"minpoly", "interval", "approx"}
    assert enc["minpoly"] == "x^2 - 3/4"
    lo, hi = (Fraction(s) for s in enc["interval"])
    assert lo < hi and hi - lo < Fraction(1, 10 ** 35)
    # display string carries 30 significant digits of sqrt(3)/2
    assert enc["approx"].startswith("0.86602540378443864676")
    assert len(enc["approx"].replace("0.", "")) == 30


def test_encode_value_is_independent_of_refinement_depth():
    shallow = alg_sqrt(Fraction(3, 4))
    deep = alg_sqrt(Fraction(3, 4))
    deep.refine_below(Fraction(1, 1 << 200))
    assert shallow.interval().lo != deep.interval().lo
    enc = encode_value(shallow)
    assert json.dumps(enc) == json.dumps(encode_value(deep))
    lo, hi = (Fraction(s) for s in enc["interval"])
    assert hi - lo == Fraction(1, 1 << 117)
    assert (lo * (1 << 117)).denominator == 1
    assert lo * lo < Fraction(3, 4) < hi * hi


def test_encode_ratfunc_display():
    r = parse_ratfunc("-(t^8 + 1)/t")
    enc = encode_ratfunc(r)
    assert enc["display"] == "(-t^8 - 1)/(t)"
    assert enc["num"][0] == {"rat": "-1"}
    assert enc["den"] == [{"rat": "0"}, {"rat": "1"}]
    assert encode_ratfunc(parse_ratfunc("2*t"))["display"] == "2*t"
    assert encode_ratfunc(None) is None


def test_golden_report_structure(golden):
    rep = build_report(golden, "all")
    doc = rep.to_dict()
    assert doc["mode"] == "all"
    assert doc["count"] == 8
    assert doc["counts_by_kind"]["axial_rotation"] == 3
    assert doc["surface"] == golden.render()
    assert [n["code"] for n in doc["notes"]] == ["PROPERNESS_ASSUMED"]
    for record in doc["isometries"]:
        assert set(record) >= {"kind", "Q", "b", "involution", "fixed_locus",
                               "angle", "mobius", "k", "c"}
    # identity first under the canonical order
    assert doc["isometries"][0]["kind"] == "identity"
    assert doc["isometries"][0]["fixed_locus"] == {"type": "space"}


def test_golden_record_details(golden):
    rep = build_report(golden, "all")
    doc = rep.to_dict()
    axial = [r for r in doc["isometries"]
             if r["kind"] == "axial_rotation"
             and r["Q"][0][0] == {"rat": "-1"} and r["Q"][1][1] == {"rat": "1"}]
    assert len(axial) == 1
    rec = axial[0]
    assert rec["b"] == [{"rat": "4"}, {"rat": "0"}, {"rat": "10"}]
    assert rec["involution"] is True
    assert rec["fixed_locus"]["type"] == "line"
    assert rec["fixed_locus"]["point"] == [
        {"rat": "2"}, {"rat": "0"}, {"rat": "5"}]
    assert rec["angle"]["cos"] == {"rat": "-1"}
    assert rec["c"]["display"] == "(-t^8 - 1)/(t)"
    # the parameter map swaps 0 and infinity, matching the pole of c
    assert rec["mobius"]["gamma"] == 1
    assert rec["mobius"]["alpha"] == {"rat": "0"}


def test_rotoreflection_records_axis(golden):
    doc = build_report(golden, "all").to_dict()
    rotos = [r for r in doc["isometries"] if r["kind"] == "rotoreflection"]
    assert len(rotos) == 2
    for rec in rotos:
        assert rec["involution"] is False
        assert "axis" in rec
        assert rec["fixed_locus"]["type"] == "point"
        assert rec["angle"] is not None


def test_involutions_mode(golden):
    rep = build_report(golden, "involutions")
    assert rep.mode == "involutions"
    assert len(rep.isometries) == 6
    assert all(f.is_involution() for f in rep.isometries)


def test_conical_notes_and_counts(corpus):
    rep = build_report(corpus["x5"], "conical")
    codes = [n["code"] for n in rep.notes]
    assert codes == ["PROPERNESS_ASSUMED", "CONICAL_FAST_PATH"]
    assert len(rep.isometries) == 16


def test_conical_mode_needs_vertex(golden, corpus):
    assert not base_vertex_exists(golden)
    assert base_vertex_exists(corpus["x5"])
    with pytest.raises(PreconditionViolation):
        build_report(golden, "conical")


def test_restricted_fallback_note(corpus):
    rep = build_report(corpus["linear_q"], "all")
    assert "RESTRICTED_FALLBACK" in [n["code"] for n in rep.notes]


def test_json_bytes_deterministic(corpus):
    a = build_report(corpus["x7"], "all").to_json()
    b = build_report(corpus["x7"], "all").to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["count"] == 4
    # canonical serialization: sorted keys, trailing newline
    assert a.endswith("\n")
    assert list(doc) == sorted(doc)


def test_report_accepts_plain_subject():
    rep = SymmetryReport({"polynomial": "x^2"}, "implicit", [])
    doc = rep.to_dict()
    assert doc["surface"] == {"polynomial": "x^2"}
    assert doc["count"] == 0


# sha256 of build_report(surface, "all").to_json() for every corpus surface
# that yields a report (the cylinder is rejected).  Any byte-level drift in
# a report, from arithmetic to encoding, changes one of these.
REPORT_SHA256 = {
    "golden": "e89b24381e08bdb6630ecb8db1d77fc34e47d5e9fc9e1d3b6f766842b13fb2b4",
    "x2": "503ff8f5ef4f60137b9220c77f80d0d14b80651897e4bbc878d5449dc9682d3c",
    "x3": "333811cee5e4da5a75008e95c8cd254ca6e0eee9d75a2945c1bbbecc6976dc5d",
    "x4": "e8e52b89ef60bbb8eb85da532b94c06a9cb9c1341b1f58d06622f523e741b7e1",
    "x5": "371b663bda98e05280e69cf92f9d9c24f5c10b7a325f02a133b719ea65e67a94",
    "x6": "b868b3bbcda33c334604238aebd66788ce9525916a7c824a0bb3b5a3c30b9fe7",
    "x7": "60ce9b9c9fccdf26ed78f9117a64aa9a2ebc47c4c1ff690703beb044bbee5c4d",
    "x8": "3097b533b8a3c4b5649bea6aa0f1ac7ede93ea440942130a05ea0134a62c8523",
    "x9": "76af3874db5c89f1d08369e4fb1f282375ad672b412b2c04140413a2256910ba",
    "x10": "9c51f50f3054c0b193cbcf772dec79ac5c7f3da1e643a2bc235eb2d0300c12a4",
    "cone_x2": "6acc1a08bab26a7c7a730204023caee6af305d92d9a5cb9d2938ae704a1ca2c8",
    "linear_q": "aa98a9160cab31aa921002001e9bc0110fc9a7a9c635b3b2c4b773204c2dffd2",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(corpus, name):
    text = build_report(corpus[name], "all").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


def test_report_bytes_survive_optimized_mode(corpus):
    # with asserts compiled away (python -O) every check that guards the
    # arithmetic must still run, so the report keeps its bytes
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from conftest import SURFACE_JSON\n"
        "from ruledsym.report import build_report\n"
        "from ruledsym.surface import surface_from_json\n"
        "surface = surface_from_json(SURFACE_JSON['cone_x2'])\n"
        "sys.stdout.write(build_report(surface, 'all').to_json())\n"
    ) % os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == build_report(corpus["cone_x2"], "all").to_json()
