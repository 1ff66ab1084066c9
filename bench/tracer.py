"""Spans around calls into hypoexp, installed from the benchmark's side.

Nothing inside ``src/`` is edited: each public function is replaced, for the
length of a traced run, by a wrapper at every place a caller looks it up
(``hypoexp.cli.forward_solve_theorem1``, ``hypoexp.characterize.c_coefficients``,
``Series.__mul__`` and so on).  A span records its name, start, end, parent
span and the benchmark operation it ran under.  Spans stay in memory and are
written out when the run ends.  A name a later change removes is listed as
absent and its metrics read 0; it does not fail the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: Library functions to trace: attribute name -> span name.  Each is wrapped
#: in every hypoexp module that holds it, so calls between modules are seen.
FUNCTIONS = {
    "validate_rates": "core.validate",
    "validate_scales": "core.validate",
    "lagrange_weights": "core.lagrange_weights",
    "weights_from_scales": "core.weights_from_scales",
    "binomial_weights": "core.binomial_weights",
    "forward_solve_theorem1": "characterize.forward_solve",
    "forward_solve_theorem2": "characterize.forward_solve",
    "residual_h": "characterize.residual",
    "residual_q": "characterize.residual",
    "c_coefficients": "characterize.c_coefficients",
    "d_coefficients": "characterize.d_coefficients",
    "lemma2_check": "characterize.lemma2_check",
    "is_exponential_series": "characterize.is_exponential_series",
    "exponentiality_test": "oracles.exponentiality_test",
    "ks_distance": "oracles.ks_distance",
    "convolve_numeric": "oracles.convolve_numeric",
    "main": "cli.main",
}

#: Methods to trace: (class name, method) -> span name.  pdf, cdf and
#: survival get a ``_scalar`` or ``_array`` suffix from their argument.
METHODS = {
    ("HypoexpDistribution", "pdf"): "core.pdf",
    ("HypoexpDistribution", "cdf"): "core.cdf",
    ("HypoexpDistribution", "survival"): "core.survival",
    ("HypoexpDistribution", "quantile"): "core.quantile",
    ("HypoexpDistribution", "sample"): "core.sample",
    ("Series", "__mul__"): "series.mul",
    ("Series", "reciprocal"): "series.reciprocal",
}

SPLIT_BY_ARGUMENT = {"core.pdf", "core.cdf", "core.survival"}

MODULES = ("hypoexp", "hypoexp.core", "hypoexp.series", "hypoexp.characterize",
           "hypoexp.oracles", "hypoexp.cli")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_labels: list[str] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def open_op(self, label: str) -> int:
        """Open the span of one benchmark operation (the root of its calls)."""
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        return self._open(self._id("bench.op"))

    def close_op(self, idx: int) -> None:
        self._close(idx)
        self._op = -1

    # -- installing wrappers ---------------------------------------------------

    def _wrapper(self, original, name: str):
        tracer = self
        if name in SPLIT_BY_ARGUMENT:
            scalar_id = self._id(name + "_scalar")
            array_id = self._id(name + "_array")

            @functools.wraps(original)
            def wrapper(obj, x, *args, **kwargs):
                idx = tracer._open(array_id if isinstance(x, np.ndarray) else scalar_id)
                try:
                    return original(obj, x, *args, **kwargs)
                finally:
                    tracer._close(idx)

            return wrapper
        nid = self._id(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function where its callers look it up."""
        modules = [importlib.import_module(m) for m in MODULES]
        wrapped: dict[int, object] = {}
        for attr, name in FUNCTIONS.items():
            found = False
            for module in modules:
                original = module.__dict__.get(attr)
                if original is None or not callable(original):
                    continue
                found = True
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrapper(original, name)
                setattr(module, attr, wrapped[id(original)])
                self._restore.append((module, attr, original))
            if not found:
                self.absent.append(attr)
        package = modules[0]
        for (cls_name, attr), name in METHODS.items():
            cls = getattr(package, cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.absent.append(f"{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrapper(original, name))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading the spans back ------------------------------------------------

    def arrays(self):
        """Span fields as numpy arrays: name id, duration, parent, op, self time."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, dur, parent, op, dur - child

    def write(self, path: Path, summary: dict) -> None:
        """Write the spans (compressed numpy arrays) and the summary (JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
        doc = dict(summary, names=self.names, op_labels=self.op_labels, absent=self.absent)
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
