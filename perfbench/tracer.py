"""Span recorder for the traced benchmark run.

The benchmark measures the program without editing it: a traced run
replaces chosen functions and methods of ``repro`` with thin wrappers
that record one span per call (name, thread, start, end, nesting depth)
and, for a few of them, a byte counter taken from the call's arguments
or result.  The untraced run never installs anything.

A wrapper is patched into *every* loaded ``repro`` module that bound
the original object, so ``from .lossless import encode_classes`` in
another module is traced too.  Spans stay in memory; the runner
aggregates them and exports them as a Chrome trace in the event format
of :func:`repro.gpu.tracing.to_chrome_trace`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = ["Span", "Target", "Tracer"]


@dataclass(frozen=True)
class Span:
    name: str
    tid: int
    t0: float
    t1: float
    depth: int
    counts: tuple = ()  # (counter name, amount) pairs taken from this call

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Target:
    """One traced callable: ``"module:attr"`` or ``"module:Class.method"``.

    ``count`` optionally maps ``(args, kwargs, result)`` to
    ``{counter_name: amount}`` added after each call.
    """

    path: str
    span: str
    count: Callable | None = None


class Tracer:
    """Collects spans; installs and removes wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------
    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def record(self, name: str, fn, args, kwargs, count=None):
        if not self._undo:
            # a wrapper that outlived uninstall(): a module imported while
            # wrappers were installed bound it; stay out of the way
            return fn(*args, **kwargs)
        depth = self._depth()
        self._local.depth = depth + 1
        t0 = time.perf_counter()
        counts = ()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = tuple(count(args, kwargs, result).items())
            return result
        finally:
            t1 = time.perf_counter()
            self._local.depth = depth
            span = Span(name, threading.get_ident(), t0, t1, depth, counts)
            with self._lock:
                self.spans.append(span)

    # -- installation ------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self, targets: list[Target]) -> None:
        if self._undo:
            raise RuntimeError("wrappers already installed")
        for target in targets:
            self._install_one(target)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrapper(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.record(target.span, fn, args, kwargs, target.count)

        return traced

    def _install_one(self, target: Target) -> None:
        modname, _, attr = target.path.partition(":")
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name)
            own = cls.__dict__.get(meth)
            raw = own if own is not None else getattr(cls, meth)
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrapper(raw.__func__, target))
            else:
                patched = self._wrapper(raw, target)
            setattr(cls, meth, patched)

            def undo(cls=cls, meth=meth, own=own):
                if own is None:
                    delattr(cls, meth)
                else:
                    setattr(cls, meth, own)

            self._undo.append(undo)
            return
        original = getattr(module, attr)
        wrapper = self._wrapper(original, target)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(
                        lambda mod=mod, key=key: setattr(mod, key, original)
                    )


def counters(spans: list[Span]) -> dict[str, float]:
    """Sum of the counter amounts the spans carry."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        for key, value in s.counts:
            out[key] += value
    return out


def totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``{span name: (calls, inclusive seconds)}``."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        out[s.name][0] += 1
        out[s.name][1] += s.seconds
    return {k: (v[0], v[1]) for k, v in out.items()}


def attribution(spans: list[Span], op_prefix: str = "op.") -> tuple[float, float]:
    """``(op wall, wall covered by layer spans one level below the op)``.

    Each benchmark op is a depth-0 span; the layer spans it calls
    directly are its depth-1 spans on the same thread.  What they do not
    cover is the op's unattributed remainder (``other``).
    """
    ops = [s for s in spans if s.depth == 0 and s.name.startswith(op_prefix)]
    children = defaultdict(list)
    for s in spans:
        if s.depth == 1:
            children[s.tid].append(s)
    wall = covered = 0.0
    for op in ops:
        wall += op.seconds
        covered += sum(
            c.seconds for c in children[op.tid] if c.t0 >= op.t0 and c.t1 <= op.t1
        )
    return wall, covered


def chrome_events(spans: list[Span], pid: int, base: float) -> list[dict]:
    """Spans as Chrome trace events, via ``repro.gpu.tracing``'s encoder.

    ``base`` is the clock origin; ``time.perf_counter`` is the system
    monotonic clock on Linux, so spans of the parent and of the server
    child share one timeline.  The ``level`` arg carries the nesting
    depth.
    """
    import json

    from repro.gpu.tracing import TraceEvent, to_chrome_trace

    tids = {tid: i for i, tid in enumerate(sorted({s.tid for s in spans}))}
    events = [
        TraceEvent(
            name=s.name,
            category=s.layer,
            stream=tids[s.tid],
            start_s=s.t0 - base,
            end_s=s.t1 - base,
            level=s.depth,
        )
        for s in spans
    ]
    out = json.loads(to_chrome_trace(events))["traceEvents"]
    for ev in out:
        ev["pid"] = pid
    return out
