"""``field-zlib``: archive and restore single 129³ turbulence fields.

One closed-loop caller cycles a few seeded ``repro.workloads.turbulence``
fields through ``MgardCompressor.for_shape(..., backend="zlib")`` at
1e-3 of each field's value range.  An *archive* op is ``compress`` plus
``save_compressed`` into memory; a *restore* op is ``load_compressed``
plus ``decompress``.  Every restore must stay within the L∞ bound.
"""

from __future__ import annotations

import io
import time

import numpy as np
from repro.compress import fileio
from repro.compress.mgard import MgardCompressor
from repro.workloads import turbulence

from . import common
from .hostspeed import HostSpeed
from .perlayer import (
    attribution_metrics, attribution_problems, export_trace, missing_spans, run_op,
    span_metrics, traced_turn,
)
from .tables import paper_tables
from .tracer import Tracer

N_FIELDS = 3
SETUPS = 3
TOL_REL = 1e-3
BLOCK = 2  # cycles per traced/bare block of a traced run


# fileio functions are looked up per call, so the traced run's wrappers apply
def _archive(comp, data):
    buf = io.BytesIO()
    fileio.save_compressed(buf, comp.compress(data))
    return buf.getvalue()


def _restore(comp, stored):
    blob, _ = fileio.load_compressed(stored)
    return comp.decompress(blob)


def run(ctx: common.Context) -> dict:
    shape = (17, 17, 17) if ctx.tiny else (129, 129, 129)
    fields = [turbulence(shape, seed=ctx.seed * 101 + i) for i in range(N_FIELDS)]
    tols = [TOL_REL * float(f.max() - f.min()) for f in fields]
    host = HostSpeed()
    common.reset_peak_rss()

    failed = 0
    worst = 0.0

    def check(k, out) -> None:
        nonlocal failed, worst
        err = float(np.max(np.abs(out - fields[k]))) / tols[k]
        worst = max(worst, err)
        failed += err > 1.0

    def set_up():
        comps = [MgardCompressor.for_shape(shape, tol, backend="zlib") for tol in tols]
        return comps, _restore(comps[0], _archive(comps[0], fields[0]))

    # set-up: hierarchy + plans for every field, one warm-up archive/restore
    for _ in range(SETUPS):
        common.clear_plan_caches()
        host.tick()
        (comps, warm), _, cpu = common.timed(set_up)
        host.add("setup", cpu)
        check(0, warm)

    tracer = Tracer()
    traced_wall, plain_wall = [], []
    bytes_in = bytes_stored = 0
    start = time.perf_counter()
    deadline = start + ctx.seconds
    i = 0
    while i < 2 * BLOCK or time.perf_counter() < deadline:
        k = i % N_FIELDS
        traced = traced_turn(ctx.trace, i, block=BLOCK)
        host.due()
        stored, wa, ca = run_op(tracer, traced, "archive", _archive, comps[k], fields[k])
        out, wr, cr = run_op(tracer, traced, "restore", _restore, comps[k], stored)
        host.add("archive", ca)
        host.add("restore", cr)
        (traced_wall if traced else plain_wall).append(wa + wr)
        bytes_in += fields[k].nbytes
        bytes_stored += len(stored)
        check(k, out)
        i += 1
    tracer.uninstall()
    measured_s = time.perf_counter() - start

    field_mb = fields[0].nbytes / common.MB
    archive_s, restore_s = host.scaled("archive"), host.scaled("restore")
    e2e = {
        "setup_s": common.median(host.scaled("setup")),
        "peak_rss_MB": common.peak_rss_mb(),
        "compression_ratio": bytes_in / bytes_stored,
        "write_MBps_norm": field_mb / common.median(archive_s),
        "read_MBps_norm": field_mb / common.median(restore_s),
        "access_ms_p50_norm": 1e3 * common.median(restore_s),
    }
    res = {
        "attempted": 2 * i + SETUPS,
        "failed": failed,
        "inputs": {
            "generator": "repro.workloads.turbulence",
            "shape": list(shape),
            "fields": N_FIELDS,
            "tol_rel": TOL_REL,
            "tols": tols,
            "input_bytes": int(sum(f.nbytes for f in fields)),
        },
        "detail": {
            "samples": {"archive": len(archive_s), "restore": len(restore_s)},
            "setup_cpu_s": host.raw("setup"),
            "host_factor": host.factor(),
            "measured_s": measured_s,
            "linf_over_tol_max": worst,
            "archive_cpu_s_p50": common.median(host.raw("archive")),
            "restore_cpu_s_p50": common.median(host.raw("restore")),
            "op_wall_s_p50": common.median(plain_wall or traced_wall),
            "end_to_end": e2e,
        },
        "problems": [],
        "report": [],
    }
    if not ctx.trace:
        res["metrics"] = e2e
        return res

    spans = tracer.spans
    n_ops = 2 * len(traced_wall)
    metrics = span_metrics(spans, n_ops)
    metrics.update(attribution_metrics(spans))
    metrics["trace.overhead_share"] = (
        common.median(traced_wall) / common.median(plain_wall) - 1.0
    )
    res["metrics"] = metrics
    res["problems"] += missing_spans(ctx.workload, spans) + attribution_problems(metrics)
    lines, tables = paper_tables(spans, fields[0], tols[0])
    res["report"] += lines
    res["detail"]["paper_tables"] = tables
    res["detail"]["traced_ops"] = n_ops
    res["detail"]["chrome_trace"] = export_trace(ctx, [(spans, 0)], start)
    return res
