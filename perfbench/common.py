"""Shared plumbing of the benchmark workloads: run context, statistics,
memory, host fingerprint and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
MB = 1e6


@dataclass
class Context:
    """One workload run: its arguments and its scratch area."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    work: Path = field(init=False)

    def __post_init__(self) -> None:
        self.work = OUT / f"work-{self.workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def timed(fn, *args, **kwargs):
    """``(result, wall seconds, CPU seconds)`` of one call.

    The CPU seconds are this process's (every thread), which the kernel
    counts without the time the process waited for a processor, so on a
    shared host they move with the program and not with its neighbours.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0, time.process_time() - c0


def clear_plan_caches() -> None:
    """Forget cached hierarchies and compression plans, so a set-up pays
    the per-geometry work a fresh process pays."""
    from repro.compress.plan import clear_plan_cache
    from repro.core.grid import clear_hierarchy_cache

    clear_plan_cache()
    clear_hierarchy_cache()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# -- memory -------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux ``clear_refs``), so
    the peak excludes input generation."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def cpu_seconds(pid: int) -> float:
    """CPU seconds the live threads of a process have run so far, to the
    nanosecond (``/proc/<pid>/task/*/schedstat``; like ``process_time``
    it leaves out time spent waiting for a processor)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, IndexError, ValueError):
            pass  # the thread ended meanwhile
    return total / 1e9


# -- fingerprint --------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(ctx: Context, inputs: dict) -> dict:
    import importlib.util

    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "traced": ctx.trace,
        "tiny": ctx.tiny,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "inputs": inputs,
    }


# -- output -------------------------------------------------------------------

def write_record(ctx: Context, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    return path


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    })
