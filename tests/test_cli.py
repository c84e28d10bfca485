import json
import os
import subprocess
import sys

import pytest

from ruledsym.cli import run

from conftest import SURFACE_JSON

EXAMPLE_POLY = "x^6 + y^5*z + 6*x^5 + 14*x^4 + 16*x^3 + 8*x^2 + z^2"


def write_input(tmp_path, name, payload=None):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(payload if payload is not None
                               else SURFACE_JSON[name]))
    return str(path)


def run_json(capsys, argv):
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, captured


def test_all_mode_stdout(tmp_path, capsys):
    rc, captured = run_json(capsys, ["--input", write_input(tmp_path, "golden")])
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["mode"] == "all"
    assert doc["count"] == 8


def test_involutions_mode(tmp_path, capsys):
    rc, captured = run_json(
        capsys,
        ["--mode", "involutions", "--input", write_input(tmp_path, "golden")])
    assert rc == 0
    assert json.loads(captured.out)["count"] == 6


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, captured = run_json(
        capsys,
        ["--input", write_input(tmp_path, "x7"), "--output", str(out)])
    assert rc == 0
    assert captured.out == ""
    assert json.loads(out.read_text())["count"] == 4


def test_byte_determinism(tmp_path, capsys):
    path = write_input(tmp_path, "x5")
    rc, first = run_json(capsys, ["--mode", "conical", "--input", path])
    assert rc == 0
    rc, second = run_json(capsys, ["--mode", "conical", "--input", path])
    assert rc == 0
    assert first.out == second.out


def test_surface_round_trip(tmp_path, capsys):
    rc, captured = run_json(capsys, ["--input", write_input(tmp_path, "x6")])
    assert rc == 0
    doc = json.loads(captured.out)
    again = write_input(tmp_path, "roundtrip", doc["surface"])
    rc, captured = run_json(capsys, ["--input", again])
    assert rc == 0
    assert json.loads(captured.out)["surface"] == doc["surface"]


def test_cylinder_diagnostic(tmp_path, capsys):
    rc, captured = run_json(
        capsys, ["--input", write_input(tmp_path, "cylinder")])
    assert rc == 2
    err = json.loads(captured.err)
    assert err["error"]["code"] == "CYLINDRICAL_INPUT"


def test_conical_mode_precondition(tmp_path, capsys):
    rc, captured = run_json(
        capsys,
        ["--mode", "conical", "--input", write_input(tmp_path, "golden")])
    assert rc == 2
    assert json.loads(captured.err)["error"]["code"] == "PRECONDITION_VIOLATION"


def test_missing_file_is_parse_error(tmp_path, capsys):
    rc, captured = run_json(
        capsys, ["--input", str(tmp_path / "absent.json")])
    assert rc == 1
    assert json.loads(captured.err)["error"]["code"] == "PARSE_ERROR"


def test_bad_polynomial_is_parse_error(tmp_path, capsys):
    path = write_input(tmp_path, "bad",
                       {"p": ["t", "t", "$"], "q": ["1", "t", "0"]})
    rc, captured = run_json(capsys, ["--input", path])
    assert rc == 1
    assert json.loads(captured.err)["error"]["code"] == "PARSE_ERROR"


def test_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        run(["--input", "a.json", "--poly", "x"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        run(["--input", write_input(tmp_path, "golden"),
             "--emit-mesh", str(tmp_path / "m.csv"),
             "--t-range", "-1:1", "--s-range", "-1:1", "--samples", "1:5"])
    assert info.value.code == 1
    capsys.readouterr()


def test_implicit_mode(capsys):
    rc, captured = run_json(
        capsys,
        ["--mode", "implicit", "--poly", EXAMPLE_POLY])
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["mode"] == "implicit"
    assert doc["counts_by_kind"] == {
        "axial_rotation": 1,
        "central_inversion": 1,
        "identity": 1,
        "reflection": 1,
    }
    lams = {rec["lambda"]["rat"] for rec in doc["isometries"]}
    assert lams == {"1"}


def test_implicit_input_file(tmp_path, capsys):
    path = write_input(tmp_path, "poly", {"polynomial": "x^3 - 27*y*z^2"})
    rc, captured = run_json(
        capsys, ["--mode", "implicit", "--input", path])
    assert rc == 0
    assert json.loads(captured.out)["count"] == 4


def test_reducible_implicit_input_exits_two(capsys):
    rc, captured = run_json(
        capsys,
        ["--mode", "implicit", "--poly", "(x^2 + y^2 + z^2 - 1)*(x + y + z)"])
    assert rc == 2
    error = json.loads(captured.err)["error"]
    assert error["code"] == "PRECONDITION_VIOLATION"
    assert "x + y + z" in error["details"]["factors"]


@pytest.mark.parametrize("case", ["golden", "implicit"])
def test_cli_never_imports_sympy(tmp_path, case):
    # a fresh interpreter: nothing a run of the CLI reaches loads sympy
    if case == "golden":
        argv, count = ["--input", write_input(tmp_path, "golden")], 8
    else:
        argv, count = ["--mode", "implicit", "--poly", EXAMPLE_POLY], 4
    code = ("import sys\n"
            "from ruledsym.cli import run\n"
            "rc = run(sys.argv[1:])\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'sympy')))\n"
            "sys.exit(rc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == count
    assert proc.stderr == "[]"


def test_mesh_emission(tmp_path, capsys):
    csv = tmp_path / "grid.csv"
    rc, _ = run_json(
        capsys,
        ["--input", write_input(tmp_path, "golden"),
         "--emit-mesh", str(csv),
         "--t-range", "-2:2", "--s-range", "-1:1", "--samples", "50:20"])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,s,x,y,z"
    assert len(lines) == 1 + 50 * 20


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ruledsym.cli", "--mode", "implicit",
         "--poly", "x*y + x*z + y*z"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [n["code"] for n in doc["notes"]] == [
        "HIGHEST_FORM_METHOD", "REVOLUTION_SUSPECTED"]
