"""One operation per forked child, as a fresh `ruledsym` process would run it.

The parent imports ruledsym once and never runs an operation itself, so
every child starts from the state of a fresh import: the factor cache,
sympy's cache and the precision budget cannot carry over from one
operation to the next, as they cannot between two CLI calls.
"""

import hashlib
import json
import os
import select
import signal
import time

import ruledsym.implicit
import ruledsym.parser
import ruledsym.report
import ruledsym.surface
from spans import ROOT, Tracer

_IMPLICIT_VARS = ("x", "y", "z")


def operation(kind, text):
    """What one CLI call does after import: input text in, report text out.

    Names are looked up on the modules at call time, so the wrappers that
    a traced run installs are the ones called.
    """
    if kind == "parametric":
        surface = ruledsym.surface.surface_from_json(json.loads(text))
        report = ruledsym.report.build_report(surface, "all")
    else:
        poly = ruledsym.parser.parse_multipoly(text, _IMPLICIT_VARS)
        report = ruledsym.implicit.implicit_pipeline(
            ruledsym.implicit.ImplicitSurface(poly))
    return report.to_json()


def summarise(rendered):
    """The fields the correctness gate compares, and the report's digest."""
    report = json.loads(rendered)
    return {
        "count": report["count"],
        "counts_by_kind": report["counts_by_kind"],
        "notes": [note["code"] for note in report["notes"]],
        "sha256": hashlib.sha256(rendered.encode()).hexdigest(),
    }


def _child(op, traced, out_fd):
    run, tracer = operation, None
    if traced:
        tracer = Tracer(op["id"])
        tracer.install()
        run = tracer.wrap(ROOT, operation)
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        rendered = run(op["kind"], op["text"])
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        result = {"ok": True, "elapsed_s": elapsed, "cpu_s": cpu,
                  "summary": summarise(rendered)}
    except Exception as exc:  # reported to the parent as a failed operation
        result = {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}
    if tracer is not None:
        result["spans"] = tracer.spans
    data = json.dumps(result).encode()
    view = memoryview(data)
    while view:
        view = view[os.write(out_fd, view):]


def run_in_child(op, deadline_s, traced=False):
    """Run ``op`` in a forked child; kill it once ``deadline_s`` has passed.

    With ``traced`` the child wraps each layer's public functions first and
    returns the spans of the operation.

    Returns the child's result dict, with ``peak_rss_mb`` (the child's
    maximum resident set) added; a child that dies or passes the deadline
    gives ``ok`` False.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            _child(op, traced, write_fd)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks, finished = [], False
    end = time.monotonic() + deadline_s
    try:
        while True:
            left = end - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                finished = True
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    if not finished:
        return {"ok": False, "error": "deadline of %g s passed" % deadline_s,
                "peak_rss_mb": peak_rss_mb}
    try:
        result = json.loads(b"".join(chunks))
    except ValueError:
        result = {"ok": False,
                  "error": "child exited with status %d and no result" % status}
    result["peak_rss_mb"] = peak_rss_mb
    return result
