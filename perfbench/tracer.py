"""Span tracer for the traced benchmark run.

`Tracer.install` wraps the public dehnscope functions listed in TRACED from
the outside: each function is replaced in every dehnscope module namespace
that holds it, and class members (`MobiusTransform.distance`, the
`MarkedRepresentation` constructor) are replaced on the class.  Calls made
through any of those names then open a span, so nested spans and self times
appear without an edit to the package.

Spans are kept in flat arrays (name, start, end, parent span, task id) and
written out once, at the end of the run.  Only calls made while a task is
open are recorded; input generation and output checks stay untraced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (layer, public name) pairs that the traced run wraps; the span name is "layer.name"
TRACED = (
    ("hypcore", "apply_h3"),
    ("hypcore", "hyp_distance"),
    ("hypcore", "classify"),
    ("hypcore", "MobiusTransform.distance"),
    ("hypcore", "adjoint"),
    ("hypcore", "adjoint_matrix"),
    ("torus_end", "develop"),
    ("torus_end", "holonomy"),
    ("torus_end", "estimate_bilipschitz"),
    ("torus_end", "equivariance_residual"),
    ("torus_end", "filling_coordinates"),
    ("torus_end", "classify_completion"),
    ("filling_solver", "solve_on_path"),
    ("filling_solver", "filling_sequence"),
    ("filling_solver", "cusp_distance"),
    ("filling_solver", "verify_coordinate_continuity"),
    ("schwarzian_end", "schwarzian_norm"),
    ("schwarzian_end", "osculating_mobius"),
    ("schwarzian_end", "theta"),
    ("schwarzian_end", "injectivity_depth"),
    ("schwarzian_end", "jacobian_check"),
    ("cochain", "MarkedRepresentation"),
    ("cochain", "extend_cocycle"),
    ("cochain", "h1_dimension"),
    ("cochain", "tangent_cocycle"),
    ("cochain", "is_cocycle"),
    ("cochain", "class_rank"),
)

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name in TRACED)

#: per-call outcomes (tuples of numbers) kept for the per-layer ratios
OUTCOMES = {
    "torus_end.classify_completion": lambda r: (r.kind == "undetermined",),
    "filling_solver.solve_on_path": lambda r: (r.iterations, r.converged),
}

TASK_SPAN = "task"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self._stack: list[int] = []
        self.task_id = -1
        self.outcomes: dict[str, list] = {name: [] for name in OUTCOMES}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def task_span(self, task_id: int):
        """Root span of one task; calls into dehnscope inside it are recorded."""
        self.task_id = task_id
        sid = self._open(self.name_id(TASK_SPAN))
        try:
            yield
        finally:
            self._close(sid)
            self.task_id = -1

    def wrap(self, span: str, fn):
        name_id = self.name_id(span)
        outcome = OUTCOMES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task_id < 0:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if outcome is not None:
                self.outcomes[span].append(outcome(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED name; import dehnscope first."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dehnscope" or n.startswith("dehnscope.")]
        for layer, name in TRACED:
            module = importlib.import_module(f"dehnscope.{layer}")
            span = f"{layer}.{name}"
            owner, _, member = name.partition(".")
            target = getattr(module, owner)
            if isinstance(target, type):
                attr = member or "__init__"
                setattr(target, attr, self.wrap(span, getattr(target, attr)))
                continue
            wrapper = self.wrap(span, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)

    # --- storage ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        outcomes = {f"outcome:{k}": np.array(v, dtype=float) for k, v in self.outcomes.items()}
        np.savez(path, **self.arrays(), **outcomes)

    def absorb(self, path) -> None:
        """Append spans saved by a traced child process under the open span and task.

        perf_counter reads the system monotonic clock, so child timestamps
        share the parent's time base.
        """
        with np.load(path) as data:
            remap = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int32)
            offset = len(self.start)
            parent = data["parent"]
            parent = np.where(parent < 0, self._stack[-1] if self._stack else -1, parent + offset)
            self.name.extend(remap[data["name"]].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(parent.astype(np.int32).tolist())
            self.task.extend([self.task_id] * len(parent))
            for key, rows in self.outcomes.items():
                rows.extend(tuple(r) for r in data[f"outcome:{key}"].tolist())


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the time its child spans cover, per span."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def summarize(spans: dict, tasks_per_batch: int) -> dict:
    """Per span name: calls per batch and median self time per batch in ms."""
    names = [str(n) for n in spans["names"]]
    batch = spans["task"] // tasks_per_batch
    batches = np.unique(batch)
    col = np.searchsorted(batches, batch)
    key = spans["name"] * batches.size + col
    size = len(names) * batches.size
    selft = np.bincount(key, weights=self_times(spans), minlength=size).reshape(len(names), -1)
    calls = np.bincount(key, minlength=size).reshape(len(names), -1)
    out = {}
    for i, name in enumerate(names):
        out[name] = {"calls": int(np.median(calls[i])), "self_ms": float(np.median(selft[i]) * 1000.0)}
    return out
