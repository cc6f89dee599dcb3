"""Span tracing installed from outside the library.

The tracer replaces each listed library function, in every ``tropsplit``
module that binds it, by a wrapper that records one span per call: name,
start, end, parent span and op id.  ``from .exact import rref`` binds the
same function as ``exact.rref``, ``cones.rref`` and ``polyhedra.rref``;
each binding is patched, so no import site escapes.  Spans stay in memory
until the run ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter

# (module, attribute, metric name, entry point).  A dotted attribute is a
# method, patched once on its class.  Entry points also report .total_s.
TARGETS = (
    ("exact", "rref", "exact.rref", False),
    ("exact", "rank", "exact.rank", False),
    ("exact", "kernel_basis", "exact.kernel_basis", False),
    ("exact", "solve", "exact.solve", False),
    ("exact", "smith_normal_form", "exact.smith_normal_form", False),
    ("exact", "hermite_normal_form", "exact.hermite_normal_form", False),
    ("exact", "is_generic_wrt", "exact.is_generic_wrt", False),
    ("cones", "_h_to_v", "cones.dd", False),
    ("cones", "Cone.minimal", "cones.minimal", False),
    ("cones", "Cone.linear_image", "cones.linear_image", False),
    ("cones", "Cone.preimage", "cones.preimage", False),
    ("cones", "is_increasing", "cones.is_increasing", False),
    ("polyhedra", "Polyhedron.is_empty", "polyhedra.is_empty", False),
    ("polyhedra", "Polyhedron.hrep", "polyhedra.hrep", False),
    ("polyhedra", "Polyhedron.same_set", "polyhedra.same_set", False),
    ("polyhedra", "Polyhedron.is_face_of", "polyhedra.is_face_of", False),
    ("complexes", "toric_cut", "complexes.toric_cut", True),
    ("complexes", "Decomposition.validate", "complexes.validate", True),
    ("complexes", "Decomposition.intersection_cell", "complexes.intersection_cell", False),
    ("complexes", "cone_of_relative_cell", "complexes.cone_of_relative_cell", False),
    ("complexes", "is_tropical_fiber", "complexes.is_tropical_fiber", False),
    ("graphs", "validate_graph", "graphs.validate_graph", False),
    ("graphs", "vertex_positions", "graphs.vertex_positions", True),
    ("graphs", "match_collapse", "graphs.match_collapse", False),
    ("splitting", "QuasiSplitGraph.__init__", "splitting.QuasiSplitGraph", True),
    ("splitting", "relative_position_cone", "splitting.relative_position_cone", False),
    ("splitting", "discrepancy", "splitting.discrepancy", False),
    ("splitting", "cone_condition", "splitting.cone_condition", True),
    ("symmetry", "symmetry_group", "symmetry.symmetry_group", True),
    ("serialize", "canonical_json", "serialize.canonical_json", False),
    ("serialize", "cone_to_dict", "serialize.cone_to_dict", False),
    ("serialize", "decomposition_from_dict", "serialize.decomposition_from_dict", False),
    ("serialize", "graph_from_dict", "serialize.graph_from_dict", False),
)

# Spanned only so that the reports layer has a self time; no per-function
# metrics are kept for them.
REPORT_FUNCTIONS = (
    "graph_report", "split_report", "symmetry_report", "mult_report",
    "potential_report", "cut_report",
)

MODULES = (
    "exact", "cones", "polyhedra", "complexes", "graphs", "splitting",
    "symmetry", "serialize", "reports",
)


def _args_hook(name):
    """Count-keeping hook run before the wrapped call, or None."""
    if name == "cones.minimal":
        def hook(tracer, args, kwargs):
            tracer.counts["cones.minimal.hits"] += args[0]._minimal is not None
        return hook
    if name == "complexes.intersection_cell":
        def hook(tracer, args, kwargs):
            dec, p1, p2 = args[:3]
            tracer.counts["complexes.intersection_cell.hits"] += (
                (min(p1, p2), max(p1, p2)) in dec._isect_cache)
        return hook
    return None


def _result_hook(name):
    """Count-keeping hook run on the wrapped call's result, or None."""
    if name == "cones.dd":
        def hook(tracer, args, kwargs, result):
            tracer.counts["cones.dd.rows_in"] += len(args[1])
            tracer.counts["cones.dd.rays_out"] += len(result[0]) + len(result[1])
        return hook
    if name == "complexes.toric_cut":
        def hook(tracer, args, kwargs, result):
            tracer.counts["complexes.toric_cut.kept"] += len(result[0].polytopes)
            tracer.counts["complexes.toric_cut.tried"] += 3 ** len(args[0])
        return hook
    return None


def _materialize_rows(args):
    """``_h_to_v`` may receive an iterator of rows; count it without
    consuming it."""
    return (args[0], tuple(args[1])) + tuple(args[2:])


class Tracer:
    """Records spans for every call of the target functions while installed.

    ``op`` is set by the harness around each timed op; spans outside an op
    (set-up and output checks) carry op None and are left out of the
    per-layer metrics.
    """

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, every tropsplit module
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = _args_hook(name), _result_hook(name)
        rows = name == "cones.dd"
        tracer = self

        def traced(*args, **kwargs):
            if rows:
                args = _materialize_rows(args)
            if before is not None and tracer.op is not None:
                before(tracer, args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None and tracer.op is not None:
                after(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _patch_everywhere(self, original, wrapper):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(m, a, n) for m, a, n, _ in TARGETS]
        targets += [("reports", f, f"reports.{f}") for f in REPORT_FUNCTIONS]
        for module_name, attr, name in targets:
            owner = self.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
            else:
                original = getattr(owner, attr)
                self._patch_everywhere(original, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines:
        name, start, end (seconds), parent index, op id."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def self_times(spans) -> list[float]:
    """Per span, its duration minus the time covered by its child spans.

    Spans are ``[name, start, end, parent, op]`` with ``parent`` the index of
    the enclosing span (-1 at the top); single-threaded calls nest, so the
    children of one span never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer, passes: int, scale: float) -> dict:
    """Per-pass calls and self times per target, module self times and the
    ratio and size counters, from the spans recorded inside ops.  Times are
    multiplied by ``scale``."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, op = span
        if op is None:
            continue
        calls[name] += 1
        self_s[name] += own * scale
        total_s[name] += (end - start) * scale
    out = {}
    for _, _, name, entry in TARGETS:
        out[f"{name}.calls"] = (calls[name] / passes, "count")
        out[f"{name}.self_s"] = (self_s[name] / passes, "s")
        if entry:
            out[f"{name}.total_s"] = (total_s[name] / passes, "s")
    for module in MODULES:
        own = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
        out[f"{module}.self_s"] = (own / passes, "s")
    c = tracer.counts
    out["cones.minimal.hit_ratio"] = (
        _ratio(c["cones.minimal.hits"], calls["cones.minimal"]), "ratio")
    out["complexes.intersection_cell.hit_ratio"] = (
        _ratio(c["complexes.intersection_cell.hits"], calls["complexes.intersection_cell"]),
        "ratio")
    out["complexes.toric_cut.kept_ratio"] = (
        _ratio(c["complexes.toric_cut.kept"], c["complexes.toric_cut.tried"]), "ratio")
    out["cones.dd.rows_in"] = (c["cones.dd.rows_in"] / passes, "count")
    out["cones.dd.rays_out"] = (c["cones.dd.rays_out"] / passes, "count")
    return out


def _ratio(num, den) -> float:
    """num/den, and 0 when the function was never reached."""
    return num / den if den else 0.0
