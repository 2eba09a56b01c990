"""Turn recorded spans and counters into the per-layer metrics."""

from __future__ import annotations

import json
import time

from .common import OUT, timed
from .layers import DECLARED, SPAN_NAMES, TARGETS
from .tracer import Tracer, attribution, chrome_events, counters, totals


def traced_turn(trace: bool, i: int, block: int = 4) -> bool:
    """Whether op ``i`` of a traced run runs traced.

    Traced runs alternate blocks of traced and bare ops, so the overhead
    is measured inside one run under the same host conditions.  Blocks
    rather than single ops: swapping the wrappers in and out before
    every op costs more than the wrappers themselves.
    """
    return trace and (i // block) % 2 == 0


def run_op(tracer: Tracer, traced: bool, name: str, fn, *args, **kwargs):
    """``(result, wall seconds, CPU seconds)`` of one benchmark op.

    A traced op runs with every layer wrapper installed, as the root
    span ``op.<name>``; an untraced op runs on the bare program.  The
    wrappers stay installed until the next bare op; call
    ``tracer.uninstall()`` when the measured phase ends.
    """
    if not traced:
        tracer.uninstall()
        return timed(fn, *args, **kwargs)
    if not tracer.installed:
        tracer.install(TARGETS)
    c0 = time.process_time()
    out = tracer.record("op." + name, fn, args, kwargs)
    cpu = time.process_time() - c0
    return out, tracer.spans[-1].seconds, cpu  # the root span closes last


def span_metrics(spans, n_ops: int) -> dict:
    """Inclusive seconds per measured op for every traced span name,
    plus the counters that are normalized by a span's call count."""
    tot = totals(spans)
    count = counters(spans)
    out = {f"{name}_s": tot.get(name, (0, 0.0))[1] / max(n_ops, 1) for name in SPAN_NAMES}
    encodes = tot.get("compress.entropy_encode", (0, 0.0))[0]
    out["compress.entropy_bytes_out"] = (
        count["compress.entropy_bytes_out"] / encodes if encodes else 0.0
    )
    commits = tot.get("io.commit", (0, 0.0))[0]
    out["io.manifest_bytes_per_commit"] = (
        count["io.manifest_bytes"] / commits if commits else 0.0
    )
    return out


def attribution_metrics(spans) -> dict:
    wall, covered = attribution(spans)
    share = covered / wall if wall else 0.0
    return {"trace.attributed_share": share, "trace.other_share": 1.0 - share}


def attribution_problems(metrics: dict) -> list[str]:
    """The in-process workloads must attribute >= 95% of op wall."""
    share = metrics["trace.attributed_share"]
    return [] if share >= 0.95 else [f"layers cover {share:.1%} of op wall (< 95%)"]


def missing_spans(workload: str, spans) -> list[str]:
    """Problems for declared spans that recorded no call."""
    seen = {s.name for s in spans}
    return [
        f"span {name} declared for {workload} recorded zero calls"
        for name in DECLARED[workload]
        if name not in seen
    ]


def export_trace(ctx, groups, base: float) -> str:
    """Write ``[(spans, pid), ...]`` as one Chrome trace; returns its name."""
    events = [ev for spans, pid in groups for ev in chrome_events(spans, pid, base)]
    path = OUT / f"{ctx.workload}-seed{ctx.seed}.trace.json"
    path.write_text(json.dumps({"traceEvents": events}))
    return path.name
