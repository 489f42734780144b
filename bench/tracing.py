"""In-process tracing of the package's layers, from outside the package.

``Tracer.install`` replaces each traced public function in every module
that binds it (the defining module included, so calls through module
globals are seen), and each traced dataclass's ``__post_init__``.  Nothing
under the package changes on disk and ``uninstall`` restores the originals.

A timed call records a span: name, start and end (ns), parent span and
invocation id, kept in flat arrays and written out at the end.  The
compensated primitives of ``_accurate`` take about 1 us, so they are only
counted.  A name that the package no longer defines is skipped, and the
metrics built on it are left out.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

# Defining module -> public functions recorded as spans.
SPANNED = {
    "core": ["standard_form_from_sts", "symplectic_spectrum", "separability_margin", "is_separable", "full_cm"],
    "correlations": ["correlation_report", "discords", "mutual_information"],
    "dynamics": ["evolve", "esd_time_identical_baths", "esd_time_single_bath", "characteristic_function", "gaussian_cf"],
    "verification": [
        "esd_bisection",
        "symplectic_spectrum_oracle",
        "ppt_spectrum_oracle",
        "sample_sts",
        "sample_entangled_sts",
        "sample_standard_form",
        "run_verification",
    ],
}
# Dataclasses whose validating __post_init__ is recorded as a span.
CLASSES = {"core": ["StandardForm", "StsParams"], "dynamics": ["ReservoirConfig"]}
COUNTED = {"_accurate": ["prod_diff", "sum_sq_minus_4c2"]}
# Modules whose namespaces are searched for bindings of the traced names.
CONSUMERS = ["cli", "core", "correlations", "dynamics", "verification"]
# Spans whose float result (a finite death time, not a marker) is noted.
CLOSED_FORMS = ("dynamics.esd_time_identical_baths", "dynamics.esd_time_single_bath")


def _layer(module: str) -> str:
    return module.lstrip("_")


class Tracer:
    """Spans and call counts of one traced replay."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.inv = array("q")
        self.float_results: list[int] = []  # span indices of CLOSED_FORMS returning a float
        self.counts: Counter[str] = Counter()
        self.invocation = -1
        self.traced: set[str] = set()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        self.traced.add(name)
        nid, stack = self._id(name), self._stack
        name_id, start, end, parent, inv = self.name_id, self.start, self.end, self.parent, self.inv
        floats = self.float_results if name in CLOSED_FORMS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            inv.append(self.invocation)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if floats is not None and isinstance(result, float):
                floats.append(idx)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls under ``name``."""
        self.traced.add(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for short in {*SPANNED, *CLASSES, *COUNTED, *CONSUMERS}:
            try:
                modules[short] = importlib.import_module(f"stsdecay.{short}")
            except ImportError:
                continue
        wrappers: dict[int, Callable] = {}
        for table, wrap in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for short, names in table.items():
                for fname in names:
                    fn = getattr(modules.get(short), fname, None)
                    if callable(fn):
                        wrappers[id(fn)] = wrap(f"{_layer(short)}.{fname}", fn)
        for short in CONSUMERS:
            module = modules.get(short)
            for attr, value in list(vars(module).items()) if module else []:
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
        for short, classes in CLASSES.items():
            for cname in classes:
                cls = getattr(modules.get(short), cname, None)
                post_init = getattr(cls, "__post_init__", None)
                if post_init is not None:
                    self._set(cls, "__post_init__", self.spanned(f"{_layer(short)}.{cname}", post_init))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        columns = {"name_id": self.name_id, "start_ns": self.start, "end_ns": self.end, "parent": self.parent, "invocation": self.inv}
        return {key: np.array(column, dtype=np.int64) for key, column in columns.items()}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name calls, inclusive time and self time of a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self._tracer = tracer
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name_id, self.parent = a["name_id"], a["parent"]
        n_names = len(tracer.names)
        duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = self.parent >= 0
        children = np.bincount(self.parent[nested], weights=duration[nested], minlength=len(duration))
        self.calls_by_id = np.bincount(self.name_id, minlength=n_names)
        self.total_ns = np.bincount(self.name_id, weights=duration, minlength=n_names)
        self.self_ns = np.bincount(self.name_id, weights=duration - children, minlength=n_names)

    def has(self, name: str) -> bool:
        return name in self._tracer.traced

    def calls(self, name: str) -> int:
        if name in self._ids:
            return int(self.calls_by_id[self._ids[name]])
        return self._tracer.counts[name]

    def total_s(self, name: str) -> float:
        return float(self.total_ns[self._ids[name]]) / 1e9 if name in self._ids else 0.0

    def self_s(self, name: str) -> float:
        return float(self.self_ns[self._ids[name]]) / 1e9 if name in self._ids else 0.0

    def us_per_call(self, name: str) -> float:
        """Mean inclusive time per call, 0 when the name was never called."""
        calls = self.calls(name)
        return self.total_s(name) * 1e6 / calls if calls else 0.0

    def calls_under(self, name: str, parent: str, among: list[int] | None = None) -> int:
        """Spans of ``name`` whose direct parent is a ``parent`` span."""
        if name not in self._ids or parent not in self._ids:
            return 0
        idx = np.arange(len(self.name_id)) if among is None else np.asarray(among, dtype=np.int64)
        idx = idx[self.name_id[idx] == self._ids[name]]
        parents = self.parent[idx]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(self.name_id[parents] == self._ids[parent]))
