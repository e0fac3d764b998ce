"""Per-layer tracing from outside the package: wrappers around public names.

``Tracer.install`` replaces each listed function or method with a wrapper
and rebinds the name in every ``normform.*`` namespace that imported it, so
calls between modules go through the wrapper too.  Spanned names record a
span (name, start, end, parent, op id) per call, kept in memory; counted
names are the tiny hot ones, where a span would cost more than the call, and
only count calls.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute path); metric prefix is "<module>.<path>" with "__init__"
# written as "init".
SPANNED = (
    ("rational_core", "poly_complex_roots"),
    ("rational_core", "matrix_charpoly"),
    ("number_field", "build_tower"),
    ("number_field", "relative_norm"),
    ("number_field", "char_poly"),
    ("places_heights", "weil_height"),
    ("places_heights", "log_abs"),
    ("module_order", "relative_units"),
    ("module_order", "FullModule.__init__"),
    ("module_order", "FullModule.contains"),
    ("module_order", "FullModule.stabilized_by"),
    ("module_order", "is_torsion_unit"),
    ("module_order", "torsion_units"),
    ("reduction", "reduce_solution"),
    ("reduction", "round_to_unit"),
    ("reduction", "balance_vector"),
    ("norm_form", "norm_form_poly"),
    ("norm_form", "NormFormPoly.evaluate"),
    ("norm_form", "enumerate_solutions"),
    ("norm_form", "partition_classes"),
    ("norm_form", "equivalent_solutions"),
    ("problemfile", "parse_problem"),
    ("problemfile", "build_context"),
    ("cli", "main"),
    ("cli", "cmd_height"),
    ("cli", "cmd_reduce"),
    ("cli", "cmd_solve"),
)
COUNTED = (
    ("rational_core", "Poly.__divmod__", "rational_core.Poly.divmod"),
    ("number_field", "FieldElement.__init__", "number_field.FieldElement.init"),
)

# Per-op metrics the traced run reports, each with the end-to-end metric and
# workload it should move (and where the layer does little).
LAYER_METRICS = {
    "rational_core.poly_complex_roots.calls": "heights.ops_per_s, reduce.p50_ms; heights, reduce / solve enumeration",
    "rational_core.poly_complex_roots.self_ms": "heights.ops_per_s, reduce.p50_ms; heights, reduce / solve enumeration",
    "rational_core.matrix_charpoly.calls": "heights.p90_ms; heights at degree 8 / solve",
    "rational_core.matrix_charpoly.self_ms": "heights.p90_ms; heights at degree 8 / solve",
    "rational_core.Poly.divmod.calls": "solve.ops_per_s; solve / heights",
    "number_field.FieldElement.init.calls": "solve.ops_per_s; solve / heights",
    "number_field.build_tower.self_ms": "reduce.p50_ms, heights.p50_ms; degree-2 reduce, degree-8 heights / solve",
    "number_field.relative_norm.calls": "reduce.p50_ms, solve.ops_per_s; reduce, solve / heights",
    "number_field.relative_norm.self_ms": "reduce.p50_ms, solve.ops_per_s; reduce, solve / heights",
    "number_field.char_poly.calls": "reduce.p50_ms, solve.ops_per_s; reduce, solve / heights",
    "number_field.char_poly.self_ms": "reduce.p50_ms, solve.ops_per_s; reduce, solve / heights",
    "places_heights.weil_height.calls": "reduce.ops_per_s, heights.ops_per_s; reduce, heights / solve enumeration",
    "places_heights.weil_height.self_ms": "reduce.ops_per_s, heights.ops_per_s; reduce, heights / solve enumeration",
    "places_heights.weil_height.precision_errors": "every workload's failed count; reduce, heights / solve enumeration",
    "places_heights.log_abs.calls": "reduce.p50_ms; reduce / heights",
    "places_heights.log_abs.self_ms": "reduce.p50_ms; reduce / heights",
    "module_order.relative_units.self_ms": "reduce.p50_ms, solve.p50_ms; reduce, solve / heights (not called)",
    "module_order.FullModule.init.calls": "reduce.p50_ms; reduce / heights",
    "module_order.FullModule.init.self_ms": "reduce.p50_ms; reduce / heights",
    "module_order.FullModule.contains.calls": "reduce.p50_ms; reduce / heights",
    "module_order.FullModule.contains.self_ms": "reduce.p50_ms; reduce / heights",
    "module_order.FullModule.stabilized_by.calls": "reduce.p50_ms; reduce / heights",
    "module_order.FullModule.stabilized_by.self_ms": "reduce.p50_ms; reduce / heights",
    "module_order.is_torsion_unit.calls": "solve.p50_ms; cyclotomic5 ops in solve / heights",
    "module_order.is_torsion_unit.self_ms": "solve.p50_ms; cyclotomic5 ops in solve / heights",
    "module_order.torsion_units.calls": "solve.p50_ms; cyclotomic5 ops in solve / heights",
    "module_order.torsion_units.self_ms": "solve.p50_ms; cyclotomic5 ops in solve / heights",
    "reduction.reduce_solution.self_ms": "reduce.p50_ms; reduce / heights",
    "reduction.round_to_unit.self_ms": "reduce.p50_ms; reduce / heights",
    "reduction.balance_vector.self_ms": "reduce.p50_ms; reduce / heights",
    "norm_form.norm_form_poly.self_ms": "solve.p50_ms; solve / reduce, heights",
    "norm_form.NormFormPoly.evaluate.calls": "solve.ops_per_s; solve / reduce, heights",
    "norm_form.NormFormPoly.evaluate.self_ms": "solve.ops_per_s; solve / reduce, heights",
    "norm_form.enumerate_solutions.self_ms": "solve.ops_per_s; solve / reduce, heights",
    "norm_form.enumerate_solutions.hit_ratio": "solve.ops_per_s; solve / reduce, heights",
    "norm_form.partition_classes.self_ms": "solve.p90_ms; solve / reduce, heights",
    "norm_form.equivalent_solutions.calls": "solve.p90_ms; solve / reduce, heights",
    "norm_form.equivalent_solutions.match_ratio": "solve.p90_ms; solve / reduce, heights",
    "problemfile.parse_problem.self_ms": "every p50_ms; all",
    "problemfile.build_context.self_ms": "every p50_ms; all",
    "cli.main.self_ms": "every p50_ms; all (argument parsing and JSON output)",
    "cli.cmd_height.self_ms": "heights.p50_ms; heights (report assembly)",
    "cli.cmd_reduce.self_ms": "reduce.p50_ms; reduce (report assembly)",
    "cli.cmd_solve.self_ms": "solve.p50_ms; solve (report assembly)",
    "trace.overhead_ratio": "median over ops of traced / untraced time of the same op",
}


def metric_prefix(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` is a list of (name, start, end, parent index or None, op id).
    """
    children = {}
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


class Tracer:
    """Wraps the listed names while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._undo = []

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent, self.op_id)
                stack.pop()
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        """Outcome counters for the ratio metrics."""
        if name == "norm_form.enumerate_solutions":
            self.counts["enumerate.solutions"] += len(result.solutions)
            self.counts["enumerate.points"] += (2 * result.search_box + 1) ** args[0].rank - 1
        elif name == "norm_form.equivalent_solutions":
            self.counts["equivalent.matches"] += bool(result)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module, path, make):
        mod = importlib.import_module(f"normform.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make(original))
            self._undo.append((cls, attr, original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for name, namespace in list(sys.modules.items()):
            if name == "normform" or name.startswith("normform."):
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._undo.append((namespace, attr, original))

    def install(self):
        for module, path in SPANNED:
            name = metric_prefix(module, path)
            self._replace(module, path, lambda fn, name=name: self._spanned(name, fn))
        for module, path, key in COUNTED:
            self._replace(module, path, lambda fn, key=key: self._counted(key, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, ops: int) -> dict:
        """Per-op averages of the layer metrics over ``ops`` traced ops."""
        calls, self_ms = Counter(), Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            self_ms[span[0]] += own * 1000.0
        for _, _, key in COUNTED:
            calls[key] = self.counts[key]
        c = self.counts
        ratios = {
            "norm_form.enumerate_solutions.hit_ratio":
                c["enumerate.solutions"] / c["enumerate.points"] if c["enumerate.points"] else 0.0,
            "norm_form.equivalent_solutions.match_ratio":
                c["equivalent.matches"] / calls["norm_form.equivalent_solutions"]
                if calls["norm_form.equivalent_solutions"] else 0.0,
            "places_heights.weil_height.precision_errors":
                c["places_heights.weil_height.raised.PrecisionError"] / ops,
        }
        out = {}
        for metric in LAYER_METRICS:
            if metric in ratios:
                out[metric] = ratios[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[:-len(".calls")]] / ops
            elif metric.endswith(".self_ms"):
                out[metric] = self_ms[metric[:-len(".self_ms")]] / ops
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
