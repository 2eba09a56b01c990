"""``series-huffman``: a compressed time-step stream, written then read.

A producer appends 48 Gray-Scott 65³ snapshots (``repro.workloads.
simulate``) to a default compressed ``StepStreamWriter`` (tol 1e-4,
Huffman, ``key_interval=16``, code-book reuse on, durability
``rename``).  An analyst then reads the stream back with
``StepStreamReader``: one sequential pass, then seeks.

A seek's cost is the replay of its chain from the nearest key frame,
so it grows with the target's offset in its key block, and the median
seek over uniformly random targets is the seek at the middle offset (8
of 16).  So every seek is one at the middle offset: a round opens a
fresh reader and visits the middle step of every key block, in seeded
order; seeks go on while another fits in ``--seconds``.  A mix of
offsets made the median depend on how many seeks of each offset fitted
in a run.  Targets never repeat within a round, so the reader's cache
and chain position never shortcut a seek.  Every read must stay within
the L∞ bound of its input step.
"""

from __future__ import annotations

import shutil
import time

import numpy as np
from repro.io.stream import StepStreamReader, StepStreamWriter
from repro.workloads import simulate

from . import common
from .hostspeed import HostSpeed
from .perlayer import (
    attribution_metrics, attribution_problems, export_trace, missing_spans, run_op,
    span_metrics, traced_turn,
)
from .tracer import Tracer, counters

SETUPS = 3
TOL = 1e-4
SNAPSHOT_EVERY = 5


def _seek_round(rng, n_steps: int, key_interval: int) -> list[int]:
    """One round of seek targets: the middle step of every key block, in
    seeded order."""
    mid = key_interval // 2
    return [int(key + mid) for key in rng.permutation(range(0, n_steps, key_interval))]


def run(ctx: common.Context) -> dict:
    if ctx.tiny:
        shape, n_steps, key_interval = (17, 17, 17), 8, 4
    else:
        shape, n_steps, key_interval = (65, 65, 65), 48, 16
    frames = simulate(
        shape, steps=n_steps * SNAPSHOT_EVERY, seed=ctx.seed,
        snapshot_every=SNAPSHOT_EVERY,
    )
    rng = np.random.default_rng(ctx.seed)
    host = HostSpeed()
    common.reset_peak_rss()

    attempted = failed = 0
    worst = 0.0

    def check(step: int, out) -> None:
        nonlocal attempted, failed, worst
        err = float(np.max(np.abs(out - frames[step]))) / TOL
        worst = max(worst, err)
        attempted += 1
        failed += err > 1.0

    def set_up(root):
        writer = StepStreamWriter(root, shape, tol=TOL, key_interval=key_interval)
        writer.append(frames[0])
        return writer, StepStreamReader(root).read_step(0)

    # set-up: plan, stream creation, one warm-up append (step 0) and read
    for j in range(SETUPS):
        common.clear_plan_caches()
        root = ctx.work / f"stream{j}"
        host.tick()
        (writer, warm), _, cpu = common.timed(set_up, root)
        host.add("setup", cpu)
        check(0, warm)
        if j < SETUPS - 1:
            shutil.rmtree(root)

    tracer = Tracer()
    start = time.perf_counter()
    times = {"append": ([], []), "read": ([], [])}  # (untraced, traced) wall

    for i in range(1, n_steps):
        traced = traced_turn(ctx.trace, i - 1)
        host.due()
        _, dt, dc = run_op(tracer, traced, "append", writer.append, frames[i])
        times["append"][traced].append(dt)
        host.add("append", dc)
        attempted += 1

    reader = StepStreamReader(root)
    for s in range(n_steps):
        traced = traced_turn(ctx.trace, s)
        host.due()
        out, dt, dc = run_op(tracer, traced, "read", reader.read_step, s)
        times["read"][traced].append(dt)
        host.add("read", dc)
        check(s, out)

    seek_start = time.perf_counter()
    deadline = start + ctx.seconds
    seek_wall, targets = [], []
    retired = []  # cache_info of each seek reader, taken as it is dropped

    def seeks():
        while True:
            seeker = StepStreamReader(root)
            for step in _seek_round(rng, n_steps, key_interval):
                yield seeker, step
            # keep no old reader: its cached steps would pile up in peak RSS
            retired.append(seeker.cache_info())

    for seeker, step in seeks():
        host.due()
        out, dt, dc = run_op(tracer, ctx.trace, "seek", seeker.read_step, step)
        host.add("seek", dc)
        seek_wall.append(dt)
        targets.append(step)
        check(step, out)
        if time.perf_counter() + dt > deadline:
            break
    retired.append(seeker.cache_info())
    tracer.uninstall()
    measured_s = time.perf_counter() - start

    frame_mb = frames[0].nbytes / common.MB
    stored = common.dir_bytes(root)
    seek_s = host.scaled("seek")
    e2e = {
        "setup_s": common.median(host.scaled("setup")),
        "peak_rss_MB": common.peak_rss_mb(),
        "compression_ratio": n_steps * frames[0].nbytes / stored,
        "write_MBps_norm": (n_steps - 1) * frame_mb / sum(host.scaled("append")),
        "read_MBps_norm": n_steps * frame_mb / sum(host.scaled("read")),
        "access_ms_p50_norm": 1e3 * common.median(seek_s),
    }
    res = {
        "attempted": attempted,
        "failed": failed,
        "inputs": {
            "generator": "repro.workloads.simulate",
            "shape": list(shape),
            "steps": n_steps,
            "snapshot_every": SNAPSHOT_EVERY,
            "tol": TOL,
            "key_interval": key_interval,
            "input_bytes": int(n_steps * frames[0].nbytes),
        },
        "detail": {
            "samples": {"append": n_steps - 1, "read": n_steps, "seek": len(seek_s)},
            "seek_targets": targets,
            "setup_cpu_s": host.raw("setup"),
            "host_factor": host.factor(),
            "measured_s": measured_s,
            "stored_bytes": stored,
            "linf_over_tol_max": worst,
            "cpu_s_p50": {op: common.median(host.raw(op)) for op in ("append", "read", "seek")},
            "wall_s_p50": {
                "append": common.median(times["append"][0] + times["append"][1]),
                "read": common.median(times["read"][0] + times["read"][1]),
                "seek": common.median(seek_wall),
            },
            "end_to_end": e2e,
        },
        "problems": [],
    }
    if not ctx.trace:
        res["metrics"] = e2e
        return res

    spans = tracer.spans
    n_traced = len(times["append"][1]) + len(times["read"][1]) + len(seek_s)
    metrics = span_metrics(spans, n_traced)
    metrics.update(attribution_metrics(spans))
    loads = sum(1 for s in spans if s.name == "compress.load" and s.t0 >= seek_start)
    metrics["compress.loads_per_seek"] = loads / len(seek_s)
    cache = [reader.cache_info(), *retired]
    lookups = sum(c["hits"] + c["misses"] for c in cache)
    metrics["io.reader_cache_hit_rate"] = sum(c["hits"] for c in cache) / lookups
    metrics["io.bytes_written_per_input_byte"] = counters(spans)["io.bytes_published"] / (
        len(times["append"][1]) * frames[0].nbytes
    )
    plain = sum(len(t[1]) * common.median(t[0]) for t in times.values())
    traced = sum(len(t[1]) * common.median(t[1]) for t in times.values())
    metrics["trace.overhead_share"] = traced / plain - 1.0
    res["metrics"] = metrics
    res["problems"] += missing_spans(ctx.workload, spans) + attribution_problems(metrics)
    res["detail"]["traced_ops"] = n_traced
    res["detail"]["chrome_trace"] = export_trace(ctx, [(spans, 0)], start)
    return res
