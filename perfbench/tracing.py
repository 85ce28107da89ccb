"""Layer-boundary spans recorded from outside the library.

``Tracer.install`` wraps every public function of each ``nbzagreb`` layer
module, plus ``Graph.__init__`` and ``GraphStats.from_graph``.  Modules
bind names with ``from .graphs import Graph``-style imports and keep
functions in dispatch dicts, so each wrapper replaces every module-level
binding and dict value that holds the original, and ``uninstall`` puts
them all back.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, op, info, error)``; ``parent`` is
the index of the enclosing span (-1 at top level) and ``op`` the
operation id the worker set.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import nbzagreb
from nbzagreb import alkanes, families, formulas, graphs, indices, products, qspr, verification

LAYERS = (graphs, products, families, indices, formulas, verification, alkanes, qspr)

_RENAMES = {
    graphs.parse_edge_list: "graphs.parse",
    graphs.serialize_edge_list: "graphs.serialize",
    verification.reports_to_csv: "verification.csv",
    alkanes.parse_alkane_name: "alkanes.parse",
    **{fn: f"indices.{index_id}" for index_id, fn in indices._DISPATCH.items()},
}

LINEAR_INDICES = ("M1", "M2", "MN", "F", "CHI")
BINARY_PRODUCTS = ("products.cartesian", "products.tensor", "products.wreath")
CLOSED_FORMS = {f"formulas.{name}" for name in (
    "example_formula", "mn_cartesian", "mn_cartesian_nary", "mn_tensor",
    "mn_wreath_printed", "mn_hamming", "mn_hamming_compact")}
DEGENERACY = {"qspr.degeneracy_table", "qspr.mean_isomer_degeneracy", "qspr.render_ratio"}
REGRESSION = {"qspr.octane_regression", "qspr.linear_fit", "qspr.pearson"}


def _info(name, args, result):
    """The count a span carries: edges, lines or index items."""
    if name == "graphs.construct":
        return args[0].size
    if name == "graphs.parse":
        return args[0].count("\n")
    if name == "graphs.serialize":
        return args[0].size + 1
    if name in BINARY_PRODUCTS:
        return result.size
    if name.startswith("indices.") and name[8:] in LINEAR_INDICES:
        return args[0].order + args[0].size
    if name == "verification.verify":
        return args[0], len(result.points), result.skipped_points
    return None


class Tracer:
    """Records spans while installed; ``op`` labels the spans of the current operation."""

    def __init__(self):
        self.spans: list = []
        self.op = "setup"
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                info = None if error else _info(name, args, result)
                spans[index] = (name, start, end, parent, self.op, info, error)

        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:  # a module or a class: keep the raw attribute, e.g. the classmethod
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        wrappers = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for key, value in vars(module).items():
                if (inspect.isfunction(value) and not key.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(_RENAMES.get(value, f"{layer}.{key}"), value)
        modules = [nbzagreb, *(m for n, m in sys.modules.items() if n.startswith("nbzagreb."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, key, wrappers[value])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._set(value, k, wrappers[v])
        self._set(graphs.Graph, "__init__", self._wrap("graphs.construct", graphs.Graph.__init__))
        from_graph = formulas.GraphStats.__dict__["from_graph"].__func__
        self._set(formulas.GraphStats, "from_graph",
                  classmethod(self._wrap("formulas.stats", from_graph)))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info", "error"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the recorded spans."""
    own = self_times(spans)
    time_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    info_of: dict[str, int] = {}
    per_formula = dict.fromkeys(formulas.FORMULA_IDS, 0.0)
    verify_points = verify_skipped = 0
    for (name, start, end, parent, op, info, error), t in zip(spans, own):
        time_of[name] = time_of.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        if isinstance(info, int):
            info_of[name] = info_of.get(name, 0) + info
        if name == "verification.verify" and info is not None:
            fid, points, skipped = info
            per_formula[fid] = per_formula.get(fid, 0.0) + t
            verify_points += points
            verify_skipped += skipped

    def total(names):
        return sum((time_of.get(n, 0.0) for n in names), 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def prefixed(prefix):
        return [n for n in time_of if n.startswith(prefix)]

    m: dict[str, tuple[float, str]] = {}
    m["graphs.construct_s"] = (total(["graphs.construct"]), "s")
    m["graphs.construct_calls"] = (calls.get("graphs.construct", 0), "count")
    m["graphs.construct_edges_per_s"] = (
        rate(info_of.get("graphs.construct", 0), total(["graphs.construct"])), "edges/s")
    for part in ("parse", "serialize"):
        name = f"graphs.{part}"
        m[f"{name}_s"] = (total([name]), "s")
        m[f"{name}_lines_per_s"] = (rate(info_of.get(name, 0), total([name])), "lines/s")
    m["graphs.random_graph_s"] = (total(["graphs.random_graph"]), "s")
    m["graphs.distance_matrix_s"] = (total(["graphs.distance_matrix"]), "s")

    for kind in ("cartesian", "tensor", "wreath", "cartesian_n"):
        m[f"products.{kind}_s"] = (total([f"products.{kind}"]), "s")
    m["products.calls"] = (sum(calls.get(n, 0) for n in BINARY_PRODUCTS), "count")
    edges_out = sum(info_of.get(n, 0) for n in BINARY_PRODUCTS)
    m["products.edges_out"] = (edges_out, "count")
    inclusive = sum(end - start for name, start, end, *_ in spans if name in BINARY_PRODUCTS)
    m["products.edges_per_s"] = (rate(edges_out, inclusive), "edges/s")

    family_names = set(prefixed("families."))
    m["families.build_s"] = (total(family_names), "s")
    m["families.calls"] = (sum(1 for s in spans if s[0] in family_names
                               and (s[3] < 0 or spans[s[3]][0] not in family_names)), "count")

    for index_id in indices.INDEX_IDS:
        name = f"indices.{index_id}"
        m[f"{name}_s"] = (total([name]), "s")
        m[f"{name}_calls"] = (calls.get(name, 0), "count")
    linear = [f"indices.{i}" for i in LINEAR_INDICES]
    m["indices.linear_items_per_s"] = (
        rate(sum(info_of.get(n, 0) for n in linear), total(linear)), "items/s")
    counting = [s for s in spans if s[0] in ("indices.Z", "indices.SIGMA")]
    refused = sum(1 for s in counting if s[6] == "TooLargeError")
    m["indices.too_large_ratio"] = (refused / len(counting) if counting else 0.0, "ratio")

    closed = [n for n in prefixed("formulas.") if n != "formulas.stats"]
    m["formulas.closed_s"] = (total(closed), "s")
    m["formulas.closed_calls"] = (sum(calls.get(n, 0) for n in CLOSED_FORMS), "count")
    m["formulas.stats_s"] = (total(["formulas.stats"]), "s")

    for fid, t in per_formula.items():
        m[f"verification.{fid}_s"] = (t, "s")
    m["verification.self_s"] = (
        total([n for n in prefixed("verification.") if n != "verification.csv"]), "s")
    m["verification.csv_s"] = (total(["verification.csv"]), "s")
    m["verification.points"] = (verify_points, "count")
    m["verification.skipped_ratio"] = (
        verify_skipped / verify_points if verify_points else 0.0, "ratio")

    m["alkanes.parse_s"] = (total(["alkanes.parse"]), "s")
    m["alkanes.parse_calls"] = (calls.get("alkanes.parse", 0), "count")
    m["qspr.degeneracy_s"] = (total(DEGENERACY), "s")
    m["qspr.regression_s"] = (total(REGRESSION), "s")
    return m
