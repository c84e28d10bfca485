"""Seeded metamorphic benchmark of ruledsym.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rational --seed 1 --seconds 27 --trace 0

The workload seed picks metamorphic variants of each base input (see
workloads.py); the variants form a cycle, and the run repeats the whole
number of cycles that ends nearest to ``--seconds``, so every run has the
same mix of inputs.  Latency is the median over the inputs of each
input's mean time in the run.
The load is a closed loop with one client: one operation at a time, each in
a child forked from this process, which has imported ruledsym but never run
it.  Every report is checked against the symmetry group of its base input;
a mismatch, an exception or a passed deadline is a failed operation and
makes the run exit non-zero.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation untraced and then traced, and prints per-layer times and counts
per cycle, the candidate funnel and the tracing overhead.  The last line of
standard output is one JSON object with the metrics of BENCHMARK.json.
Per-operation records (latency, memory, report sha256) and, when traced,
all spans are written under .perfbench/ in the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join("src", "ruledsym")
OUT_DIR = ".perfbench"

# A regression into one of the cliffs listed in README.md fails the
# operation instead of stalling the run.  The slowest operation when this
# was written, x2 under sqrt3, takes 8-15 s on a 2-core x86 machine.
DEADLINE_S = 60.0
# One import varies by +-15% from the next on a shared 2-core machine, in
# phases of a few seconds, so the imports are split between the start and
# the end of a run and set-up time is their median.
SETUP_REPEATS = (3, 2)
IMPORT_TIMER = ("import time; t = time.perf_counter(); import ruledsym.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_imports(env, repeats):
    """Wall times of `import ruledsym.cli`, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout))
    return times


def gate(op, result):
    """The reason ``result`` fails the correctness gate, or None."""
    if not result["ok"]:
        return result["error"]
    got = result["summary"]
    for key in ("count", "counts_by_kind", "notes"):
        if got[key] != op["expected"][key]:
            return "%s is %r, expected %r" % (key, got[key], op["expected"][key])
    return None


def record(op, result, traced=False):
    return {"id": op["id"], "base": op["base"], "traced": traced,
            "elapsed_s": result.get("elapsed_s"), "cpu_s": result.get("cpu_s"),
            "peak_rss_mb": result["peak_rss_mb"],
            "sha256": result.get("summary", {}).get("sha256"),
            "failure": gate(op, result)}


def timed_loop(ops, seconds, traced_too):
    """Repeat the cycle ``ops`` the whole number of times, at least once,
    that brings the wall time nearest to ``seconds``.

    Returns the operation records, the wall time and the number of cycles.
    With ``traced_too`` each operation runs untraced and then traced, and
    the span lists of the traced runs are returned as well.
    """
    from execute import run_in_child

    records, span_lists, cycles = [], [], 0
    start = time.perf_counter()
    # one more cycle of the mean length so far ends nearer to ``seconds``
    # than stopping now exactly when less than half a cycle is left
    while cycles == 0 or (time.perf_counter() - start) * (1 + 0.5 / cycles) < seconds:
        for op in ops:
            records.append(record(op, run_in_child(op, DEADLINE_S)))
            if traced_too:
                result = run_in_child(op, DEADLINE_S, traced=True)
                records.append(record(op, result, traced=True))
                span_lists.append(result.get("spans", []))
        cycles += 1
    return records, time.perf_counter() - start, cycles, span_lists


def tail(latencies):
    """Highest percentile with at least ten operations beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


def median_hd(values):
    """Harrell-Davis estimate of the median of ``values``.

    A weighted mean of the order statistics, with weights from the beta
    distribution of the sample median, so that the estimate rests on every
    operation near the middle rather than on the one or two that the plain
    median picks.  Operation times differ from input to input by up to 40x,
    and the plain median of a run jumps whenever two inputs near the middle
    swap places; this one moves smoothly.
    """
    import mpmath  # a dependency of sympy, so present wherever ruledsym runs

    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2.0
    cdf = [float(mpmath.betainc(a, a, 0, i / float(n), regularized=True))
           for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def mean_per_input(records):
    """The mean time of each input over its passing runs in the loop."""
    times = {}
    for r in records:
        if r["failure"] is None:
            times.setdefault(r["id"], []).append(r["elapsed_s"])
    return [statistics.mean(t) for t in times.values()]


def end_to_end(records, wall, setup_s):
    ok = [r for r in records if r["failure"] is None]
    latencies = [r["elapsed_s"] for r in ok]
    per_input = mean_per_input(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_per_s": (len(ok) / wall, "ops/s"),
        "latency_p50_s": (median_hd(per_input) if per_input else None, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in records), "MB"),
    }
    print("failed_share = %d/%d = %.4f ratio" % (
        len(records) - len(ok), len(records),
        (len(records) - len(ok)) / len(records)))
    found = tail(latencies)
    if found is None:
        print("latency_tail_s omitted: %d operations, fewer than 11" % len(latencies))
    else:
        print("latency_tail_s = %.6f s (p%.1f of %d operations)"
              % (found[1], found[0], len(latencies)))
    return metrics


def per_layer(records, span_lists, cycles):
    """Per-layer metrics per cycle: all of them printed, the JSON subset returned."""
    from spans import FUNNEL, PARSERS, ROOT, SOMETIMES_IDLE, TRACED, aggregate, funnel

    table = aggregate(span_lists)
    table["parse"] = {key: sum(table[name][key] for name in PARSERS)
                      for key in ("calls", "s", "self_s", "outcome")}
    shown, kept = {}, {}
    for name in (ROOT,) + tuple(TRACED) + ("parse",):
        row = table[name]
        shown[name + ".calls"] = (row["calls"] // cycles, "count")
        shown[name + ".s"] = (row["s"] / cycles, "s")
        shown[name + ".self_s"] = (row["self_s"] / cycles, "s")
        kept[name + ".calls"] = shown[name + ".calls"]
        if name not in SOMETIMES_IDLE:
            kept[name + ".s"] = shown[name + ".s"]
            kept[name + ".self_s"] = shown[name + ".self_s"]
    for _, name, outcome in FUNNEL:
        key = "%s.%s" % (name, outcome)
        shown[key] = kept[key] = (table[name]["outcome"] // cycles, "count")
    maps = table["solver.solve_parameter_maps"]["outcome"]
    certified = table["isometry.verify_symmetry"]["outcome"]
    shown["isometry.certified_per_candidate"] = kept["isometry.certified_per_candidate"] = (
        certified / maps if maps else 0.0, "ratio")
    plain = sum(r["elapsed_s"] for r in records
                if not r["traced"] and r["failure"] is None)
    traced = sum(r["elapsed_s"] for r in records
                 if r["traced"] and r["failure"] is None)
    shown["tracing.overhead"] = kept["tracing.overhead"] = (
        traced / plain - 1.0 if plain else 0.0, "ratio")
    print("funnel per cycle: " + ", ".join(
        "%s %d" % (label, count // cycles) for label, count in funnel(table)))
    print("throughput untraced %.4f ops/s, traced %.4f ops/s" % (
        len(span_lists) / plain if plain else 0.0,
        len(span_lists) / traced if traced else 0.0))
    for name, (value, unit) in shown.items():
        print("%s = %.6g %s" % (name, value, unit))
    return kept


def write_out(args, records, span_lists):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".ops.json", "w") as handle:
        json.dump(records, handle, indent=1)
    if span_lists:
        with open(stem + ".spans.jsonl", "w") as handle:
            for spans in span_lists:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(SOURCE):
        sys.stderr.write("perfbench: %s not found; run from the root of a "
                         "ruledsym checkout\n" % SOURCE)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    before, after = SETUP_REPEATS if args.trace == 0 else (0, 0)
    imports = time_imports(env, before)
    ops = workloads.generate(args.workload, args.seed)
    records, wall, cycles, span_lists = timed_loop(ops, args.seconds, args.trace == 1)
    imports += time_imports(env, after)
    write_out(args, records, span_lists)

    print("workload %s, seed %d: %d operations in %d cycles of %d, %.3f s"
          % (args.workload, args.seed, len(records), cycles, len(ops), wall))
    if args.trace == 0:
        metrics = end_to_end(records, wall, statistics.median(imports))
        for name, (value, unit) in metrics.items():
            print("%s = %s %s" % (name, value, unit))
    else:
        metrics = per_layer(records, span_lists, cycles)
    failed = [r for r in records if r["failure"] is not None]
    for r in failed:
        print("FAILED %s: %s" % (r["id"], r["failure"]))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
