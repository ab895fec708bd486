"""Spans around the calls one matchbound module makes into another.

The program itself is not changed: `Tracer.install` replaces, for the
duration of a traced call, each module attribute through which one layer
calls the next. Those are every function in `matchbound.cli` or
`matchbound.estimator` defined in another matchbound module, found by
introspection, and every `numpy.linalg` entry point, so a factorization
is attributed to the linalg layer whichever module calls LAPACK. A span's
layer is the first part of its name.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import numpy.linalg

CALLERS = ("matchbound.cli", "matchbound.estimator")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    shape: tuple[int, ...] | None = None  # first matrix-stack argument (linalg spans)
    input_bytes: int = 0  # bytes of all array arguments (linalg spans)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _array_args(args, kwargs) -> list[np.ndarray]:
    return [a for a in itertools.chain(args, kwargs.values()) if isinstance(a, np.ndarray)]


class Tracer:
    """Records spans in memory; `install`/`uninstall` patch the layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """fn, recording a span per call. A span opened on a worker thread
        with nothing open on that thread takes the innermost span open on
        the thread that began tracing as its parent."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
            arrays = _array_args(args, kwargs) if name.startswith("linalg.") else []
            stacks = [a.shape for a in arrays if a.ndim >= 2]
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(
                    Span(
                        span_id, name, start, end, parent, threading.get_ident(),
                        stacks[0] if stacks else None, sum(a.nbytes for a in arrays),
                    )
                )

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        """Patch the layer boundaries; the calling thread becomes the root."""
        self._root_stack = self._stack()
        entry_points = {}
        for attr in numpy.linalg.__all__:
            obj = getattr(numpy.linalg, attr)
            if callable(obj) and not isinstance(obj, type):
                entry_points[id(obj)] = attr
                self._patch(numpy.linalg, attr, f"linalg.numpy.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("matchbound.") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in entry_points:
                    self._patch(module, attr, f"linalg.numpy.{entry_points[id(obj)]}")
                elif (
                    mod_name in CALLERS
                    and inspect.isfunction(obj)
                    and obj.__module__.startswith("matchbound.")
                    and obj.__module__ != mod_name
                ):
                    layer = obj.__module__.split(".")[1]
                    self._patch(module, attr, f"{layer}.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


LAYERS = ("cli", "graphs", "analysis", "estimator", "linalg")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one call.

    busy_s sums the durations of a layer's outermost spans (those whose
    parent is in another layer), so two threads busy at once count twice;
    wall_s is the length of their union. self_s subtracts from each span
    the union of its children's intervals. The linalg work figures use the
    first matrix-stack argument of each outermost call: its leading axes
    count matrices, and the smaller of its last two axes is the order of the
    matrix factored (the Gram path factors m x m from an m x n factor). The
    nominal flop count, matrices * (2/3) n^3, is computed, not measured.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def outermost(s: Span) -> bool:
        return s.parent not in by_id or by_id[s.parent].layer != s.layer

    out: dict[str, float] = {}
    for layer in LAYERS:
        own = [s for s in spans if s.layer == layer]
        top = [s for s in own if outermost(s)]
        out[f"{layer}.busy_s"] = sum(s.end - s.start for s in top)
        out[f"{layer}.calls"] = len(top)
        out[f"{layer}.wall_s"] = union_length((s.start, s.end) for s in top)
        out[f"{layer}.self_s"] = sum(
            (s.end - s.start)
            - union_length(
                (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, [])
            )
            for s in own
        )

    shaped = [s for s in spans if s.layer == "linalg" and outermost(s) and s.shape]
    batches = [int(np.prod(s.shape[:-2], dtype=np.int64)) for s in shaped]
    orders = [min(s.shape[-2:]) for s in shaped]
    flop = sum(b * (2.0 / 3.0) * n**3 for b, n in zip(batches, orders))
    busy = out["linalg.busy_s"]
    out["linalg.matrices"] = sum(batches)
    out["linalg.matrix_dim"] = max(orders, default=0)
    out["linalg.batch_max"] = max(batches, default=0)
    out["linalg.input_mb_max"] = max(
        (s.input_bytes for s in spans if s.layer == "linalg" and outermost(s)), default=0
    ) / 1e6
    out["linalg.nominal_gflop"] = flop / 1e9
    out["linalg.gflop_per_s"] = flop / 1e9 / busy if busy > 0 else 0.0
    out["linalg.concurrency"] = busy / out["linalg.wall_s"] if out["linalg.wall_s"] > 0 else 0.0
    return out
