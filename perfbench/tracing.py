"""Span tracing of centralleaf from outside the package.

The tracer wraps module-level functions for the length of a traced section.
centralleaf modules import each other with ``from .x import y``, so one
function object can be bound under several names (``lattices.adlv_points``
and ``cli.adlv_points``, ``centralleaf.leaf_report`` and
``cli.leaf_report``, ...).  ``install`` therefore replaces every binding of
the original object in every loaded ``centralleaf`` module, and
``uninstall`` puts the originals back.

Each wrapped call records one span (label, parent span, start, end) in
flat arrays kept in memory; ``dump`` writes them out when the run ends.
Self time of a span is its duration minus the durations of its direct
child spans (calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# (module, attribute, label): the layer boundaries the benchmark measures.
TARGETS = (
    ("linalg", "invariant_factors_int", "linalg.normal_form"),
    ("linalg", "smith_with_transform", "linalg.normal_form"),
    ("linalg", "smith_full", "linalg.normal_form"),
    ("linalg", "hnf_columns", "linalg.normal_form"),
    ("linalg", "kernel_mod_prime_power", "linalg.normal_form"),
    ("linalg", "det", "linalg.elim"),
    ("linalg", "mat_inv", "linalg.elim"),
    ("linalg", "solve_columns", "linalg.elim"),
    ("linalg", "mat_mul", "linalg.matmul"),
    ("linalg", "charpoly", "linalg.charpoly"),
    ("lattices", "enumerate_lattices", "lattices.enumerate"),
    ("lattices", "adlv_points", "lattices.adlv_points"),
    ("lattices", "_invariant_exponents", "lattices.check"),
    ("isocrystal", "is_completely_slope_divisible", "isocrystal.certify"),
    ("isocrystal", "factor_list", "isocrystal.factor"),
    ("affine", "compose", "affine.compose"),
    ("affine", "length", "affine.length"),
    ("affine", "newton_point", "affine.newton_point"),
    ("affine", "enumerate_elements", "affine.enumerate_elements"),
    ("affine", "enumerate_sigma_classes", "affine.classes"),
    ("leaves", "leaf_report", "leaves.leaf_report"),
    ("witt", "structure_polynomials", "witt.structure_polynomials"),
    ("witt", "witt_add", "witt.eval"),
    ("witt", "witt_mul", "witt.eval"),
    ("witt", "witt_ghost", "witt.eval"),
    ("witt", "witt_frobenius", "witt.eval"),
    ("witt", "display_check", "witt.display_check"),
    ("rootdata", "build_classical", "rootdata.build"),
    ("serialize", "render_csv", "serialize.render"),
    ("serialize", "structured_text", "serialize.render"),
    ("cli", "run", "cli.run"),
)

ROUTES = ("monomial", "rational", "single_slope", "modpk")

# Per-layer metrics in output order: name -> unit.
PER_LAYER = {
    "linalg.normal_form.calls": "count",
    "linalg.normal_form.self_s": "s",
    "linalg.elim.calls": "count",
    "linalg.elim.self_s": "s",
    "linalg.matmul.calls": "count",
    "linalg.matmul.self_s": "s",
    "linalg.charpoly.calls": "count",
    "linalg.charpoly.self_s": "s",
    "lattices.enumerate.self_s": "s",
    "lattices.enumerate.lattices": "count",
    "lattices.relpos_s": "s",
    "lattices.checks": "count",
    "lattices.matches": "count",
    "lattices.match_ratio": "ratio",
    "isocrystal.certify.calls": "count",
    "isocrystal.certify.self_s": "s",
    **{f"isocrystal.certify.route.{r}": "count" for r in ROUTES},
    "isocrystal.certify.divisible_ratio": "ratio",
    "isocrystal.factor.calls": "count",
    "isocrystal.factor.self_s": "s",
    "affine.compose.calls": "count",
    "affine.compose.self_s": "s",
    "affine.length.calls": "count",
    "affine.length.self_s": "s",
    "affine.newton_point.calls": "count",
    "affine.classes.conjugations": "count",
    "affine.classes.blocks": "count",
    "leaves.leaf_report.calls": "count",
    "leaves.leaf_report.self_s": "s",
    "witt.structure_polynomials.self_s": "s",
    "witt.eval.calls": "count",
    "witt.eval.self_s": "s",
    "witt.display_check.calls": "count",
    "rootdata.build.self_s": "s",
    "serialize.render.self_s": "s",
    "cli.import_s": "s",
    "cli.import.sympy_s": "s",
    "cli.run.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def certify_route(report) -> str:
    """Route a slope-divisibility report came from, read off its reason.

    The mod-p^k route is the only one that states a p-adic precision; a
    rational input with a single slope takes the orbit walk directly.
    """
    reason = report.reason
    if reason.startswith("monomial datum"):
        return "monomial"
    if "precision" in reason:
        return "modpk"
    if len(set(report.slopes)) == 1:
        return "single_slope"
    return "rational"


class Tracer:
    """Spans in flat arrays plus a few counters read off call results."""

    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_value = {}
        self.counters = {}
        self._stack = []
        self._patches = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _hook(self, label):
        if label == "lattices.enumerate":
            return lambda idx, res: self.count("lattices.enumerate.lattices", len(res))
        if label == "isocrystal.certify":
            def certify(idx, res):
                self.count("isocrystal.certify.route." + certify_route(res))
                self.count("isocrystal.certify.divisible", int(bool(res.divisible)))
            return certify
        if label == "affine.classes":
            return lambda idx, res: self.count("affine.classes.blocks", len(res.blocks))
        if label == "affine.enumerate_elements":
            def record(idx, res):
                self.span_value[idx] = len(res)
            return record
        return None

    def _wrap(self, label: str, fn):
        label_id = self._label_id(label)
        hook = self._hook(label)
        labels, parents = self.span_label, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(labels)
            labels.append(label_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if hook is not None:
                hook(idx, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target under every name it is bound to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "centralleaf"
                                         or name.startswith("centralleaf."))]
        for mod_name, attr, label in TARGETS:
            home = sys.modules.get("centralleaf." + mod_name)
            if home is None or not hasattr(home, attr):
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def aggregate(self) -> dict:
        """Per label: calls, total_s and self_s; plus counters and derived sums."""
        n = len(self.span_label)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        per_label = {}
        for i in range(n):
            entry = per_label.setdefault(self.labels[self.span_label[i]],
                                         {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
        derived = {"lattices.relpos_s": 0.0, "affine.classes.conjugations": 0}
        adlv = self._label_ids.get("lattices.adlv_points")
        classes = self._label_ids.get("affine.classes")
        excluded = {self._label_ids.get("lattices.enumerate"),
                    self._label_ids.get("isocrystal.certify")}
        enum_id = self._label_ids.get("affine.enumerate_elements")
        classes_children = {}
        for i in range(n):
            parent = self.span_parent[i]
            if parent < 0:
                continue
            parent_label = self.span_label[parent]
            if parent_label == adlv and self.span_label[i] in excluded:
                derived["lattices.relpos_s"] -= dur[i]
            elif parent_label == classes and self.span_label[i] == enum_id:
                classes_children.setdefault(parent, []).append(self.span_value[i])
        for i in range(n):
            if self.span_label[i] == adlv:
                derived["lattices.relpos_s"] += dur[i]
        for sizes in classes_children.values():
            # enumerate_sigma_classes enumerates its elements, then its conjugators
            if len(sizes) >= 2:
                derived["affine.classes.conjugations"] += sizes[0] * sizes[1]
        return {"labels": per_label, "counters": dict(self.counters),
                "derived": derived, "spans": n}

    def dump(self, path: str):
        """Write the spans: a JSON index beside four raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_label, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "spans": len(self.span_label),
                       "layout": ["label:int32", "parent:int32",
                                  "start:float64", "end:float64"]}, fh)


def merge(aggregates) -> dict:
    """Sum several ``Tracer.aggregate`` results (one per cli child)."""
    out = {"labels": {}, "counters": {}, "derived": {}, "spans": 0}
    for agg in aggregates:
        for label, entry in agg["labels"].items():
            slot = out["labels"].setdefault(label, {"calls": 0, "total_s": 0.0,
                                                    "self_s": 0.0})
            for key in slot:
                slot[key] += entry[key]
        for section in ("counters", "derived"):
            for key, value in agg[section].items():
                out[section][key] = out[section].get(key, 0) + value
        out["spans"] += agg["spans"]
    return out


def layer_metrics(agg: dict, extra: dict) -> dict:
    """The per-layer metric values from an aggregate plus workload extras."""
    labels, counters, derived = agg["labels"], agg["counters"], agg["derived"]

    def calls(label):
        return labels.get(label, {}).get("calls", 0)

    def self_s(label):
        return labels.get(label, {}).get("self_s", 0.0)

    values = {}
    for group in ("normal_form", "elim", "matmul", "charpoly"):
        values[f"linalg.{group}.calls"] = calls(f"linalg.{group}")
        values[f"linalg.{group}.self_s"] = self_s(f"linalg.{group}")
    values["lattices.enumerate.self_s"] = self_s("lattices.enumerate")
    values["lattices.enumerate.lattices"] = counters.get("lattices.enumerate.lattices", 0)
    values["lattices.relpos_s"] = derived.get("lattices.relpos_s", 0.0)
    values["lattices.checks"] = calls("lattices.check")
    values["lattices.matches"] = extra.get("lattices.matches", 0)
    values["lattices.match_ratio"] = (values["lattices.matches"] / values["lattices.checks"]
                                      if values["lattices.checks"] else 0.0)
    certs = calls("isocrystal.certify")
    values["isocrystal.certify.calls"] = certs
    values["isocrystal.certify.self_s"] = self_s("isocrystal.certify")
    for route in ROUTES:
        key = f"isocrystal.certify.route.{route}"
        values[key] = counters.get(key, 0)
    values["isocrystal.certify.divisible_ratio"] = (
        counters.get("isocrystal.certify.divisible", 0) / certs if certs else 0.0)
    values["isocrystal.factor.calls"] = calls("isocrystal.factor")
    values["isocrystal.factor.self_s"] = self_s("isocrystal.factor")
    for name in ("compose", "length"):
        values[f"affine.{name}.calls"] = calls(f"affine.{name}")
        values[f"affine.{name}.self_s"] = self_s(f"affine.{name}")
    values["affine.newton_point.calls"] = calls("affine.newton_point")
    values["affine.classes.conjugations"] = derived.get("affine.classes.conjugations", 0)
    values["affine.classes.blocks"] = counters.get("affine.classes.blocks", 0)
    values["leaves.leaf_report.calls"] = calls("leaves.leaf_report")
    values["leaves.leaf_report.self_s"] = self_s("leaves.leaf_report")
    values["witt.structure_polynomials.self_s"] = self_s("witt.structure_polynomials")
    values["witt.eval.calls"] = calls("witt.eval")
    values["witt.eval.self_s"] = self_s("witt.eval")
    values["witt.display_check.calls"] = calls("witt.display_check")
    values["rootdata.build.self_s"] = self_s("rootdata.build")
    values["serialize.render.self_s"] = self_s("serialize.render")
    values["cli.import_s"] = extra.get("cli.import_s", 0.0)
    values["cli.import.sympy_s"] = extra.get("cli.import.sympy_s", 0.0)
    values["cli.run.self_s"] = self_s("cli.run")
    values["trace.spans"] = agg["spans"]
    values["trace.overhead_ratio"] = extra.get("trace.overhead_ratio", 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}
