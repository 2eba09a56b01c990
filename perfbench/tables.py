"""Measured counterparts of the paper's Table IV and Fig. 11.

The traced ``field-zlib`` run splits its measured decompose/recompose
passes into the Table IV kernel categories and its archive/restore ops
into the Fig. 11 stages, and prints them beside the rows the repo's
*modeled* generators give for the same shape (``table4_breakdown``;
``MgardCompressor`` on the metered CPU/GPU engines, as ``fig11_mgard``
does).  Every row says whether it is measured or modeled.
"""

from __future__ import annotations

from collections import defaultdict

TABLE4 = ("CC", "MM", "TM", "SC", "MC+PN", "corr", "other")
_KERNEL = {
    "core.compute_coefficients": "CC",
    "core.restore_from_coefficients": "CC",
    "core.mass_apply": "MM",
    "core.transfer_apply": "TM",
    "core.solve_correction": "SC",
    "core.data_movement": "MC+PN",
    "core.correction_update": "corr",
}
FIG11 = ("refactor", "quantize", "entropy", "container", "transfer", "other")
_STAGE = {
    "core.decompose": "refactor",
    "core.recompose": "refactor",
    "core.class_gather": "refactor",
    "compress.quantize": "quantize",
    "compress.dequantize": "quantize",
    "compress.entropy_encode": "entropy",
    "compress.entropy_decode": "entropy",
    "compress.save": "container",
    "compress.load": "container",
}


def split(spans, root: str, mapping: dict) -> dict:
    """Mean seconds per ``root`` span of its direct children, by category."""
    roots = [s for s in spans if s.name == root]
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    secs: dict[str, float] = defaultdict(float)
    total = 0.0
    for r in roots:
        total += r.seconds
        for s in by_tid[r.tid]:
            if s.depth == r.depth + 1 and r.t0 <= s.t0 and s.t1 <= r.t1:
                cat = mapping.get(s.name)
                if cat is not None:
                    secs[cat] += s.seconds
    n = max(len(roots), 1)
    out = {cat: secs[cat] / n for cat in set(mapping.values())}
    out["other"] = (total - sum(secs.values())) / n
    out["total"] = total / n
    return out


def _modeled_table4(shape) -> list[dict]:
    from repro.experiments import table4_breakdown

    rows = []
    for r in table4_breakdown(shape_2d=tuple(shape[:2]), shape_3d=tuple(shape)):
        if tuple(r.shape) != tuple(shape):
            continue
        s = dict(r.seconds)
        cells = {c: s.get(c, 0.0) for c in ("CC", "MM", "TM", "SC")}
        cells["MC+PN"] = s.get("MC", 0.0) + s.get("PN", 0.0)
        cells["total"] = r.total
        rows.append({"source": "modeled", "hw": r.hardware, "op": r.operation, **cells})
    return rows


def _modeled_fig11(data, tol) -> list[dict]:
    from repro.compress.mgard import MgardCompressor
    from repro.core.grid import hierarchy_for
    from repro.kernels.launches import EngineOptions
    from repro.kernels.metered import CpuRefEngine, GpuSimEngine

    rows = []
    gpu_opts = EngineOptions(n_streams=8 if data.ndim >= 3 else 1)
    for engine in (CpuRefEngine(), GpuSimEngine(opts=gpu_opts)):
        comp = MgardCompressor(hierarchy_for(data.shape), tol, engine=engine)
        blob = comp.compress(data)
        hw = "CPU" if isinstance(engine, CpuRefEngine) else "GPU-offload"
        for op in ("compress", "decompress"):
            if op == "decompress":
                comp.decompress(blob)
            t = blob.times
            cells = {
                "refactor": t.refactor_modeled or t.refactor_wall,
                "quantize": t.quantize_modeled or t.quantize_wall,
                "entropy": t.entropy_wall,
                "transfer": t.transfer_modeled or 0.0,
            }
            cells["total"] = sum(cells.values())
            rows.append({"source": "modeled", "hw": hw, "op": op, **cells})
    return rows


def _render(title: str, cols, rows) -> list[str]:
    from repro.experiments.common import format_seconds, format_table

    body = []
    for r in rows:
        cells = [r["source"], r["hw"], r["op"]]
        for c in cols:
            if c not in r:
                cells.append("-")
                continue
            share = 100.0 * r[c] / r["total"] if r["total"] else 0.0
            cells.append(f"{format_seconds(r[c])} ({share:.0f}%)")
        cells.append(format_seconds(r["total"]))
        body.append(cells)
    return format_table(["source", "hw", "op", *cols, "total"], body, title=title).split("\n")


def paper_tables(spans, data, tol) -> tuple[list[str], dict]:
    """Printable lines and the rows, measured beside modeled."""
    host = "this host"
    t4 = [
        {"source": "measured", "hw": host, "op": op, **split(spans, root, _KERNEL)}
        for op, root in (("decompose", "core.decompose"), ("recompose", "core.recompose"))
    ] + _modeled_table4(data.shape)
    f11 = [
        {"source": "measured", "hw": host, "op": op, **split(spans, root, _STAGE)}
        for op, root in (("compress", "op.archive"), ("decompress", "op.restore"))
    ] + _modeled_fig11(data, tol)
    shape = "x".join(map(str, data.shape))
    lines = _render(f"Table IV counterpart, {shape} (seconds per pass, share)", TABLE4, t4)
    lines += [""] + _render(
        f"Fig. 11 counterpart, {shape} zlib (seconds per op, share; modeled "
        "entropy is measured wall, as in fig11_mgard)", FIG11, f11
    )
    return lines, {"table4": t4, "fig11": f11}
