"""Spans around the public functions of each ruledsym layer.

The wrappers are installed from outside the library, in the child that runs
one operation: every module attribute that refers to a traced function is
replaced by a wrapper that records a span.  A span is
``[name, start, end, parent index, operation id, outcome]``; the outcome is
a count taken from the return value where the function reports one (maps
found, matrices found, translation solved, ...).
"""

import functools
import importlib
import sys
import time


def _count(result):
    return len(result)


def _solved(result):
    return int(result is not None)


def _true(result):
    return int(bool(result))


# span name -> (module, attribute path, outcome of the return value)
TRACED = {
    "surface.surface_from_json": ("ruledsym.surface", "surface_from_json", None),
    "parser.parse_multipoly": ("ruledsym.parser", "parse_multipoly", None),
    "phisys.build_systems": ("ruledsym.phisys", "build_systems", None),
    "solver.solve_parameter_maps": ("ruledsym.solver", "solve_parameter_maps", _count),
    "solver.solve_zero_dim": ("ruledsym.solver", "solve_zero_dim", None),
    "sympy.groebner": ("sympy", "groebner", None),
    "algnum.add_irrational": ("ruledsym.algnum", "_binary_add", None),
    "algnum.mul_irrational": ("ruledsym.algnum", "_binary_mul", None),
    "algnum.evaluate_certified": ("ruledsym.algnum", "evaluate_certified", None),
    "algnum.alg_sqrt": ("ruledsym.algnum", "alg_sqrt", None),
    "upoly.factor_rational": ("ruledsym.upoly", "factor_rational", None),
    "isometry.solve_q_matrices": ("ruledsym.isometry", "solve_q_matrices", _count),
    "isometry.solve_translation": ("ruledsym.isometry", "solve_translation", _solved),
    "isometry.recover_ruling_shift": ("ruledsym.isometry", "recover_ruling_shift", _solved),
    "isometry.verify_symmetry": ("ruledsym.isometry", "verify_symmetry", _true),
    "isometry.classify": ("ruledsym.isometry", "classify", None),
    "implicit.sanity_check": ("ruledsym.implicit", "sanity_check", None),
    "implicit.parametrize_highest_form": ("ruledsym.implicit", "parametrize_highest_form", None),
    "implicit.lift_symmetry": ("ruledsym.implicit", "lift_symmetry", None),
    "implicit.substitution_holds": ("ruledsym.implicit", "substitution_holds", None),
    "implicit.detect_revolution_axis": ("ruledsym.implicit", "detect_revolution_axis", None),
    "report.to_json": ("ruledsym.report", "SymmetryReport.to_json", None),
}

# The candidate funnel, stage by stage: (label, span name, outcome name).
FUNNEL = (
    ("maps", "solver.solve_parameter_maps", "candidates"),
    ("q_found", "isometry.solve_q_matrices", "found"),
    ("translation_solved", "isometry.solve_translation", "solved"),
    ("ruling_shift_found", "isometry.recover_ruling_shift", "solved"),
    ("certified", "isometry.verify_symmetry", "certified"),
)

ROOT = "operation"

# Functions that some workload never calls.  Their times would read 0 on
# every run of that workload, so they are printed but only their call
# counts go into the JSON line; "parse" sums the two input parsers, one of
# which every operation calls.
SOMETIMES_IDLE = frozenset((
    "surface.surface_from_json", "parser.parse_multipoly",
    "algnum.add_irrational", "algnum.mul_irrational",
    "isometry.solve_translation", "isometry.recover_ruling_shift",
    "implicit.sanity_check", "implicit.parametrize_highest_form",
    "implicit.lift_symmetry", "implicit.substitution_holds",
    "implicit.detect_revolution_axis",
))
PARSERS = ("surface.surface_from_json", "parser.parse_multipoly")


class Tracer:
    """Collects the spans of one operation in memory."""

    def __init__(self, op_id):
        self.spans, self._stack, self._op = [], [], op_id

    def wrap(self, name, fn, outcome=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0,
                      self._stack[-1] if self._stack else None, self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if outcome is not None:
                record[5] = outcome(result)
            return result

        return traced

    def install(self):
        """Replace every reference to a traced function by its wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ruledsym" or n.startswith("ruledsym."))]
        for name, (module, path, outcome) in TRACED.items():
            owner = importlib.import_module(module)
            *prefix, attr = path.split(".")
            for part in prefix:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, outcome)
            setattr(owner, attr, wrapper)
            if prefix or module == "sympy":
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def aggregate(span_lists):
    """Per span name: calls, inclusive seconds, self seconds, outcome sum."""
    table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "outcome": 0}
             for name in (ROOT,) + tuple(TRACED)}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            row = table[span[0]]
            row["calls"] += 1
            row["s"] += span[2] - span[1]
            row["self_s"] += own
            if span[5] is not None:
                row["outcome"] += span[5]
    return table


def funnel(table):
    return [(label, table[name]["outcome"]) for label, name, _ in FUNNEL]
