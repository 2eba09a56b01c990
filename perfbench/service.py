"""``service-progressive``: open-loop gets and paced puts on ``repro-serve``.

A ``repro-serve`` child serves a refactored 65³ stream prefilled in
set-up with 128 steps (2.2 MB each, more than the server's default
256 MiB decoded-step cache holds).  For the first 80% of the run one
reader connection sends open-loop Poisson gets at a fixed offered rate,
each timed from its scheduled send: 60% the newest step, 20% an older
step, 10% a region of a random step, 10% a progressive ``level=k`` read
of a random step.  Older steps are drawn from the prefilled back-catalog
without replacement, so they miss the server's cache, while gets for
the newest step hit it or coalesce.  A second connection runs
``put_step`` at a fixed cadence, so writes run beside reads and the
newest step keeps moving.

The last 20% is a closed-loop probe of the then idle server: put, get of
a reserved back-catalog step, and a get of the middle level
(``level=levels // 2``) of a step the probe has not read, repeated.
One fixed level keeps the probe's level gets alike; with a random
level their median moved with the mix of levels a run drew.  The
end-to-end metrics come from the probe, because under the open loop
the server (decode threads and event loop sharing one interpreter lock)
queues, and its queues turned a few percent of host-speed drift into
run-to-run spreads of 27-41%.  The loaded latencies are per-layer
metrics.

Step ``i`` holds ``base[i % 16] * (1 + 1e-3 * (i // 16))`` for 16 seeded
Gray-Scott snapshots ``base``, so the client can check any reply
without keeping every frame.  Full-precision replies must equal the
ingested frame to floating-point round-trip; level and region replies
must have the requested shape.  Error replies, requests still shed
after the client's retries, and timeouts count as failed.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
from repro.io.stream import StepStreamReader, StepStreamWriter
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import BusyError, ServiceError
from repro.workloads import simulate

from . import common
from .hostspeed import HostSpeed
from .perlayer import (
    attribution_metrics, export_trace, missing_spans, run_op, span_metrics, traced_turn,
)
from .tracer import Span, Tracer, counters

SETUPS = 3
N_BASE = 16
RATE = 20.0  # offered gets per second in the open loop
PUT_INTERVAL = 0.5  # seconds between put_step sends in the open loop
OPEN_SHARE = 0.8  # of --seconds; the closed-loop probe gets the rest
PROBE_COLD = 40  # back-catalog steps reserved for the probe's cold gets
KINDS = ("newest", "old", "region", "level")
MIX = (0.6, 0.2, 0.1, 0.1)
BUSY_RETRIES = 4
TIMEOUT_S = 30.0
RTOL = 1e-12  # full-precision replies: fp round-trip of the refactoring
CALIBRATION_READS = 40


class Frames:
    """Step ``i`` of the stream, derived from a few seeded snapshots."""

    def __init__(self, shape, seed: int):
        self.base = simulate(shape, steps=4 * N_BASE, seed=seed, snapshot_every=4)

    def __call__(self, i: int, region=None) -> np.ndarray:
        base = self.base[i % N_BASE]
        if region is not None:
            base = base[region]
        return base * (1.0 + 1e-3 * (i // N_BASE))


# -- the server child ---------------------------------------------------------

def _default_sigint() -> None:
    """Let the child stop on SIGINT even when this run started with
    SIGINT ignored, as a shell's background job does."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """A ``repro-serve`` child on an ephemeral port; started through
    ``serve_traced.py`` (recording spans to ``spans_path``) when given."""

    def __init__(self, root, log, spans_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(common.ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.service.server"]
        else:
            cmd = [sys.executable, str(common.ROOT / "perfbench" / "serve_traced.py"),
                   str(spans_path)]
        self.spans_path = spans_path
        with open(log, "w") as out:
            self.proc = subprocess.Popen(
                cmd + [str(root), "--port", "0"], stdout=out, stderr=subprocess.STDOUT,
                env=env, cwd=common.ROOT, preexec_fn=_default_sigint,
            )
        deadline = time.monotonic() + 120
        while True:
            m = re.search(r" on ([\d.]+):(\d+) ", log.read_text())
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro-serve did not start: {log.read_text()[-2000:]}")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def cpu(self) -> float:
        """CPU seconds the server's threads have run so far."""
        return common.cpu_seconds(self.proc.pid)

    def spans(self) -> list[Span]:
        raw = json.loads(self.spans_path.read_text())
        return [Span(n, tid, t0, t1, d, tuple(map(tuple, c))) for n, tid, t0, t1, d, c in raw]


# -- the load generator -------------------------------------------------------

class LoadGen:
    """Open-loop Poisson gets on one connection and paced puts on another,
    then a closed-loop probe of the idle server (see ``run``)."""

    def __init__(self, server: Server, frames: Frames, shape, newest: int,
                 seconds: float, rng, host: HostSpeed):
        self.server, self.frames, self.shape, self.host = server, frames, shape, host
        self.newest = newest
        self.open_s = OPEN_SHARE * seconds
        self.probe_s = seconds - self.open_s
        n = int(RATE * self.open_s * 1.5) + 10
        arrivals = np.cumsum(rng.exponential(1.0 / RATE, size=n))
        self.arrivals = arrivals[arrivals < self.open_s]
        m = len(self.arrivals)
        self.kinds = rng.choice(len(KINDS), p=MIX, size=m)
        self.kinds[: len(KINDS)] = range(len(KINDS))  # every kind has a sample
        # back-catalog steps, each read once (the set-up's warm-up get read
        # the last one): a reserve for the probe, the rest for the open loop
        catalog = [int(s) for s in rng.permutation(newest - 1)]
        self.reserve, self.catalog = catalog[:PROBE_COLD], catalog[PROBE_COLD:]
        self.reserved = set(self.reserve)
        self.level_probed: set[int] = set()
        self.pick = rng.random(m)
        self.corner = rng.random((m, len(shape)))
        self.level_pick = rng.random(m)
        self.rng = rng
        self.lat = {k: [] for k in KINDS}
        self.late: list[float] = []
        self.put_s: list[float] = []
        self.probe = {"put": [], "cold": [], "level": []}  # round trips; CPU in host
        self.puts_attempted = self.gets_attempted = 0
        self.failures: list[str] = []
        self.open_ok = 0  # open-loop gets answered correctly

    def _request(self, k: int):
        kind = KINDS[self.kinds[k]]
        newest = self.newest
        region = level = None
        if kind == "newest":
            step = newest
        elif self.catalog and kind == "old":
            step = self.catalog.pop()
        else:
            # any step but the probe's reserve, which must stay uncached
            step = int(self.pick[k] * (newest + (kind != "old")))
            while step in self.reserved:
                step = (step + 1) % newest
        if kind == "region":
            width = [max(2, n // 4) for n in self.shape]
            lo = [int(c * (n - w + 1)) for c, n, w in zip(self.corner[k], self.shape, width)]
            region = [[a, a + w] for a, w in zip(lo, width)]
        if kind == "level":
            level = 1 + int(self.level_pick[k] * (self.levels - 1))
        return kind, step, region, level

    def _verify(self, kind, step, region, level, arr, meta) -> bool:
        problem = None
        if kind == "level":
            if tuple(arr.shape) != tuple(self.shape) or meta.get("level") != level:
                problem = f"level {level} of step {step}: shape {arr.shape}"
        else:
            sl = None if region is None else tuple(slice(a, b) for a, b in region)
            want = self.frames(step, sl)
            if arr.shape != want.shape:
                problem = f"{kind} step {step}: shape {arr.shape} != {want.shape}"
            elif np.max(np.abs(arr - want)) > RTOL * np.max(np.abs(want)):
                problem = f"{kind} step {step}: differs from the ingested frame"
        if problem:
            self.failures.append(problem)
        return problem is None

    async def _get(self, client, kind, step, region=None, level=None):
        """One get with the client's busy retries; ``None`` on failure."""
        self.gets_attempted += 1
        try:
            for attempt in range(BUSY_RETRIES + 1):
                try:
                    return await asyncio.wait_for(
                        client.get_region(step, region, level=level, wait=5.0, with_meta=True),
                        TIMEOUT_S,
                    )
                except BusyError:
                    await asyncio.sleep(0.005 * 2 ** attempt)
            self.failures.append(f"{kind} step {step}: busy after retries")
        except (ServiceError, ConnectionError, asyncio.TimeoutError) as e:
            self.failures.append(f"{kind} step {step}: {type(e).__name__}: {e}")
        return None

    async def _put(self, client) -> float | None:
        """Append the next frame; its round trip, or ``None`` on failure."""
        want = self.newest + 1
        frame = self.frames(want)
        self.puts_attempted += 1
        t0 = time.perf_counter()
        try:
            got = await asyncio.wait_for(client.put_step(frame), TIMEOUT_S)
        except (ServiceError, ConnectionError, asyncio.TimeoutError) as e:
            self.failures.append(f"put step {want}: {type(e).__name__}: {e}")
            return None
        dt = time.perf_counter() - t0
        if got != want:
            self.failures.append(f"put returned step {got}, expected {want}")
            return None
        self.newest = got
        return dt

    async def _open_get(self, client, k: int, due: float) -> None:
        kind, step, region, level = self._request(k)
        reply = await self._get(client, kind, step, region, level)
        if reply is not None:
            self.lat[kind].append(time.perf_counter() - due)
            self.open_ok += self._verify(kind, step, region, level, *reply)

    async def _send_gets(self, client, start: float, tasks: set) -> None:
        for k, offset in enumerate(self.arrivals):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(time.perf_counter() - due)
            task = asyncio.ensure_future(self._open_get(client, k, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    async def _puts(self, client, start: float) -> None:
        due = start + PUT_INTERVAL / 2
        while due < start + self.open_s:
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            dt = await self._put(client)
            if dt is None:
                return
            self.put_s.append(dt)
            due += PUT_INTERVAL

    def _cpu_since(self, server0: float, client0: float) -> float:
        """Client plus server CPU seconds since the two readings."""
        client = time.process_time() - client0
        return client + self.server.cpu() - server0

    async def _probe(self, reader, writer, deadline: float) -> None:
        """Closed loop on the idle server: put, cold get, level get.  Each
        op is costed as the CPU seconds the client and the server spent
        on it (nothing else runs meanwhile), beside its round trip."""
        while self.reserve and (time.perf_counter() < deadline or not self.probe["put"]):
            self.host.due()
            s0, c0 = self.server.cpu(), time.process_time()
            dt = await self._put(writer)
            if dt is None:
                return
            self.host.add("put", self._cpu_since(s0, c0))
            self.probe["put"].append(dt)
            for kind in ("cold", "level"):
                if kind == "cold":
                    step, level = self.reserve.pop(), None
                else:
                    step = int(self.rng.integers(self.newest + 1))
                    while step in self.level_probed or step in self.reserved:
                        step = int(self.rng.integers(self.newest + 1))
                    self.level_probed.add(step)
                    level = self.levels // 2
                self.host.due()
                s0, c0 = self.server.cpu(), time.process_time()
                t0 = time.perf_counter()
                reply = await self._get(reader, kind, step, level=level)
                if reply is not None:
                    self.probe[kind].append(time.perf_counter() - t0)
                    self.host.add(kind, self._cpu_since(s0, c0))
                    self._verify(kind, step, None, level, *reply)

    async def run(self) -> tuple[dict, dict, float, float]:
        """The open loop, then the probe; returns server stats before and
        after, and the window bounds."""
        host, port = self.server.host, self.server.port
        async with AsyncServiceClient(host, port) as reader, \
                AsyncServiceClient(host, port) as writer:
            self.levels = (await reader.info())["levels"]
            before = await reader.stats()
            tasks: set = set()
            start = time.perf_counter()
            await asyncio.gather(self._send_gets(reader, start, tasks), self._puts(writer, start))
            if tasks:
                done, pending = await asyncio.wait(tasks, timeout=TIMEOUT_S + 10)
                for task in pending:
                    task.cancel()
                    self.failures.append("get still pending at the end of the run")
            after = await reader.stats()
            await self._probe(reader, writer, start + self.open_s + self.probe_s)
            end = time.perf_counter()
        return before, after, start, end


# -- the workload -------------------------------------------------------------

def _set_up(ctx, j, frames, shape, prefill, host):
    """Prefill a fresh stream, start and prime a server, warm it up.

    Returns ``(server, root, warm-up ok)`` and records the set-up's CPU
    seconds, this process's plus the server's up to the end of the
    warm-up, in ``host``; input generation is not counted.
    """
    common.clear_plan_caches()
    root = ctx.work / f"stream{j}"
    host.tick()
    writer, _, spent = common.timed(StepStreamWriter, root, shape)
    for i in range(prefill):
        frame = frames(i)
        spent += common.timed(writer.append, frame)[2]
    del writer
    c0 = time.process_time()
    spans = ctx.work / f"server{j}.spans.json" if ctx.trace else None
    server = Server(root, ctx.work / f"server{j}.log", spans)
    try:
        with ServiceClient(server.host, server.port) as client:
            warm = client.get_step(prefill - 1)
            put = client.put_step(frames(prefill))
        spent += time.process_time() - c0 + server.cpu()
    except BaseException:
        server.stop()
        raise
    host.add("setup", spent)
    ok = put == prefill and np.max(np.abs(warm - frames(prefill - 1))) <= RTOL * np.max(
        np.abs(warm))
    return server, root, bool(ok)


def _calibrate(tracer, root, rng) -> tuple[float, list[Span]]:
    """Tracing overhead on the server's decode path, measured in-process:
    full-precision reads of one step, in alternating traced and bare
    blocks."""
    reader = StepStreamReader(root, cache_steps=0)
    levels = len(reader.steps[0]["class_bytes"])
    step = int(rng.integers(reader.n_steps))
    bare, traced = [], []
    for j in range(CALIBRATION_READS):
        on = traced_turn(True, j, block=5)
        _, dt, _ = run_op(tracer, on, "calibrate", reader.read, step, k=levels)
        (traced if on else bare).append(dt)
    tracer.uninstall()
    return common.median(traced) / common.median(bare) - 1.0, list(tracer.spans)


def run(ctx: common.Context) -> dict:
    shape, prefill = ((17, 17, 17), 8) if ctx.tiny else ((65, 65, 65), 128)
    frames = Frames(shape, ctx.seed)
    rng = np.random.default_rng(ctx.seed)
    host = HostSpeed()
    common.reset_peak_rss()

    server = None
    failed_setups = 0
    try:
        for j in range(SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(root)
            server, root, ok = _set_up(ctx, j, frames, shape, prefill, host)
            failed_setups += not ok
        gen = LoadGen(server, frames, shape, prefill, ctx.seconds, rng, host)
        cpu0 = common.cpu_seconds(server.proc.pid)
        before, after, start, end = asyncio.run(gen.run())
        cpu = common.cpu_seconds(server.proc.pid) - cpu0
        child_rss = common.peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    n_steps = gen.newest + 1
    stored = common.dir_bytes(root)

    gets = [x for k in KINDS for x in gen.lat[k]]
    frame_mb = frames(0).nbytes / common.MB
    scheduled = len(gen.arrivals)
    # each set-up's warm-up get and put, then every get and put sent
    attempted = 2 * SETUPS + gen.gets_attempted + gen.puts_attempted
    failed = failed_setups + len(gen.failures)
    e2e = {
        "setup_s": common.median(host.scaled("setup")),
        "peak_rss_MB": common.peak_rss_mb() + child_rss,
        "compression_ratio": n_steps * frames(0).nbytes / stored,
        "write_MBps_norm": frame_mb / common.median(host.scaled("put")),
        "read_MBps_norm": frame_mb / common.median(host.scaled("cold")),
        "access_ms_p50_norm": 1e3 * common.median(host.scaled("level")),
    }
    res = {
        "attempted": attempted,
        "failed": failed,
        "inputs": {
            "generator": "repro.workloads.simulate (16 snapshots, scaled per step)",
            "shape": list(shape),
            "prefill_steps": prefill,
            "rate_per_s": RATE,
            "mix": dict(zip(KINDS, MIX)),
            "put_interval_s": PUT_INTERVAL,
            "input_bytes": int(n_steps * frames(0).nbytes),
        },
        "detail": {
            "samples": {k: len(v) for k, v in gen.lat.items()} | {"put": len(gen.put_s)} | {
                f"probe_{k}": len(v) for k, v in gen.probe.items()},
            "scheduled_gets": scheduled,
            "failures": gen.failures[:20],
            "setup_cpu_s": host.raw("setup"),
            "host_factor": host.factor(),
            "measured_s": end - start,
            "stored_bytes": stored,
            "steps_at_end": n_steps,
            "get_ms_p50": 1e3 * common.median(gets),
            "get_ms_p97": 1e3 * common.percentile(gets, 97),
            "probe_cpu_ms_p10_p50_p90": {
                kind: [1e3 * common.percentile(host.raw(kind), q) for q in (10, 50, 90)]
                for kind in gen.probe
            },
            "probe_wall_ms_p10_p50_p90": {
                kind: [1e3 * common.percentile(v, q) for q in (10, 50, 90)]
                for kind, v in gen.probe.items()
            },
            "get_ms_p10_p50_p90": {
                kind: [1e3 * common.percentile(v, q) for q in (10, 50, 90)]
                for kind, v in gen.lat.items() if v
            },
            "put_ms_p10_p50_p90": [1e3 * common.percentile(gen.put_s, q) for q in (10, 50, 90)],
            "server_stats": after,
            "end_to_end": e2e,
        },
        "problems": [],
    }
    if not ctx.trace:
        res["metrics"] = e2e
        return res

    child = [s for s in server.spans() if start <= s.t0 and s.t1 <= end]
    served = len(gets) + len(gen.probe["cold"]) + len(gen.probe["level"])
    puts = len(gen.put_s) + len(gen.probe["put"])
    n_ops = served + puts
    metrics = span_metrics(child, n_ops)
    count = counters(child)
    metrics["io.class_bytes_read_per_get"] = count["io.class_bytes_read"] / served
    metrics["io.bytes_written_per_input_byte"] = count["io.bytes_published"] / (
        puts * frames(0).nbytes)

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    leaders, joined = delta("batcher", "leaders"), delta("batcher", "joined")
    metrics["service.cache_hit_rate"] = hits / max(hits + misses, 1)
    metrics["service.coalesce_rate"] = joined / max(leaders + joined, 1)
    metrics["service.shed"] = delta("shed")
    metrics["service.errors"] = delta("errors")
    for kind in KINDS:
        metrics[f"service.get_ms_p50.{kind}"] = 1e3 * common.median(gen.lat[kind])
    metrics["service.get_ms_p97"] = 1e3 * common.percentile(gets, 97)
    metrics["service.server_cpu_s_per_req"] = cpu / max(n_ops, 1)
    metrics["loadgen.late_ms_p99"] = 1e3 * common.percentile(gen.late, 99)
    metrics["loadgen.completed_over_offered"] = gen.open_ok / scheduled

    overhead, parent = _calibrate(Tracer(), root, rng)
    metrics["trace.overhead_share"] = overhead
    metrics.update(attribution_metrics(parent))
    res["metrics"] = metrics
    res["problems"] += missing_spans(ctx.workload, child)
    res["detail"]["traced_ops"] = n_ops
    res["detail"]["chrome_trace"] = export_trace(ctx, [(parent, 0), (child, 1)], start)
    return res
