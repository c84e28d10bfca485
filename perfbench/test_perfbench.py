"""Self-tests of the benchmark: inputs, correctness gate, deadline, spans.

Run with the library on the path, from the root of the checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import random

import pytest

import workloads
from execute import run_in_child
from run import gate, mean_per_input, median_hd
from spans import aggregate, self_times


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.dump(workloads.generate(workload, 7))
    assert first == workloads.dump(workloads.generate(workload, 7))
    assert first != workloads.dump(workloads.generate(workload, 8))


def test_cayley_rotations_are_proper_and_orthogonal():
    for skew in workloads._CAYLEY:
        r = workloads.cayley(*skew)
        for i in range(3):
            for j in range(3):
                assert sum(r[k][i] * r[k][j] for k in range(3)) == (i == j)
        det = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
               - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
               + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
        assert det == 1


def _x4_variant():
    op = workloads.variant("rational", "x4", random.Random("x4"), 0)
    op["id"] = "x4"
    return op


def test_cheap_variant_passes_the_gate():
    op = _x4_variant()
    result = run_in_child(op, 60.0)
    assert gate(op, result) is None
    assert result["peak_rss_mb"] > 0


def test_wrong_expectation_fails_the_gate():
    op = _x4_variant()
    op["expected"] = dict(op["expected"], count=op["expected"]["count"] + 1)
    assert gate(op, run_in_child(op, 60.0)).startswith("count is")


def test_deadline_kills_the_operation():
    result = run_in_child(_x4_variant(), 0.001)
    assert not result["ok"] and "deadline" in result["error"]


def test_traced_counts_repeat_exactly():
    op = _x4_variant()
    tables = [aggregate([run_in_child(op, 60.0, traced=True)["spans"]])
              for _ in range(2)]
    counts = [{name: (row["calls"], row["outcome"]) for name, row in t.items()}
              for t in tables]
    assert counts[0] == counts[1]
    assert counts[0]["operation"] == (1, 0)
    assert counts[0]["isometry.verify_symmetry"][1] == op["expected"]["count"]


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    spans = [
        ["root", 0.0, 10.0, None, "op", None],
        ["a", 1.0, 4.0, 0, "op", None],
        ["c", 2.0, 3.0, 1, "op", None],
        ["b", 5.0, 6.0, 0, "op", None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    # a child overlapping its sibling or running past its parent counts once
    overlapping = [
        ["root", 0.0, 10.0, None, "op", None],
        ["a", 2.0, 5.0, 0, "op", None],
        ["b", 4.0, 12.0, 0, "op", None],
    ]
    assert self_times(overlapping)[0] == 2.0


def test_harrell_davis_median():
    assert median_hd([2.5]) == pytest.approx(2.5)
    # symmetric samples: the weights are symmetric, so the estimate is the centre
    assert median_hd([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)
    assert median_hd([1.0, 1.5, 2.0, 2.5, 3.0]) == pytest.approx(2.0)
    # at the size of a run, the slowest operation hardly weighs
    ops = [float(i) for i in range(1, 21)]
    assert median_hd(ops[:-1] + [1000.0]) == pytest.approx(median_hd(ops), abs=1e-3)


def test_latency_takes_each_inputs_mean_over_passing_runs():
    records = [
        {"id": "a", "elapsed_s": 2.0, "failure": None},
        {"id": "b", "elapsed_s": 1.0, "failure": None},
        {"id": "a", "elapsed_s": 1.5, "failure": None},
        {"id": "b", "elapsed_s": 0.5, "failure": "count is 1, expected 2"},
    ]
    assert sorted(mean_per_input(records)) == [1.0, 1.75]
