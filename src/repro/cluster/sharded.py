"""Shard-parallel compression for partitioned domains.

The paper's large-scale runs "assign each GPU an equal sized data
partition and do decomposition and recomposition independently" — no
halo exchange, each partition with its own hierarchy.  This module
promotes :class:`~repro.cluster.partition.BlockRefactorer` from a
refactor-only helper into a full compress→decompress path over such
partitions: a frame is split along axis 0 into *shards*, each shard
runs its own :class:`~repro.compress.mgard.MgardCompressor` (sharing
the global :mod:`~repro.compress.plan` cache, so equal-shape shards pay
setup once), and the shard fan-out is scheduled through the executor
backends of :mod:`repro.parallel`:

``serial``
    The byte-for-byte reference — shards encode inline, in order.

``thread``
    Shards encode on the shared thread pool (the heavy kernels release
    the GIL).

``process``
    The frame is staged **once** in shared memory
    (:func:`repro.parallel.shm.share_array`); workers receive only a
    picklable ref plus their row range, attach, and return their
    shard's container bytes.  Falls back to inline encoding when shared
    memory is unavailable.

All three backends emit **byte-identical** shard containers: a shard's
bytes depend only on (shard data, tolerance, mode, backend), never on
the scheduler — shards share no temporal state.

Error-bound accounting: shards are *disjoint* along axis 0 and are
decomposed/recomposed independently, so the reconstruction error at any
grid point is exactly the error of the one shard containing it.  The
global L∞ bound therefore holds with every shard compressed at the
*full* tolerance — :func:`shard_tolerance` records that accounting (it
would **not** be an identity for L2-type budgets, where per-shard
errors accumulate across shards; the quantizer here budgets L∞).

Shard payloads are self-contained single-shard containers (the
refactored ``.rprc`` or compressed ``.mgz`` layout), so a consumer can
decode any subset — the basis of
:meth:`repro.io.stream.StepStreamReader.read_region`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .. import faults
from ..errors import ContainerError
from ..parallel import get_executor
from ..parallel.shm import ArrayRef, ShmUnavailable, share_array
from .partition import BlockPlan

__all__ = [
    "ShardCodec",
    "ShardedCompressor",
    "ShardedFrame",
    "decode_shard",
    "encode_shards",
    "encode_shards_spmd",
    "plan_shards",
    "shard_tolerance",
]


def plan_shards(shape: tuple[int, ...], n_shards: int) -> BlockPlan:
    """Split ``shape`` along axis 0 into ``n_shards`` balanced shards.

    The explicit-count counterpart of
    :func:`~repro.cluster.partition.plan_blocks` (which derives the
    count from a memory budget): shard sizes differ by at most one row.
    Shards with a single row are allowed when ``n_shards`` demands them
    (they round-trip losslessly, they just cannot coarsen along axis
    0); asking for more shards than rows is an error.
    """
    n0 = int(shape[0])
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if n_shards > n0:
        raise ValueError(f"cannot split {n0} rows into {n_shards} shards")
    base, extra = divmod(n0, n_shards)
    starts, stops = [], []
    pos = 0
    for i in range(n_shards):
        rows = base + (1 if i < extra else 0)
        starts.append(pos)
        stops.append(pos + rows)
        pos += rows
    return BlockPlan(shape=tuple(shape), starts=tuple(starts), stops=tuple(stops))


def shard_tolerance(tol: float, n_shards: int) -> float:
    """Per-shard L∞ tolerance preserving a global bound of ``tol``.

    Shards partition the domain, so the global L∞ error is the *max*
    (not any accumulation) of the per-shard errors — each shard may use
    the full budget.  Kept as an explicit function so the accounting is
    visible at the call sites (and because other error norms would need
    a real split here).
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return float(tol)


@dataclass(frozen=True)
class ShardCodec:
    """Picklable per-shard codec settings.

    ``tol is None`` selects the *refactored* payload (raw coefficient
    classes, the ``.rprc`` layout); otherwise shards are error-bounded
    compressed (the ``.mgz`` layout) at the — already shard-accounted —
    tolerance.  Worker-side compressors always run their *internal*
    entropy fan-out serially: the shard is the unit of parallelism.
    """

    tol: float | None = None
    mode: str = "level"
    backend: str = "zlib"

    @property
    def payload_mode(self) -> str:
        return "refactored" if self.tol is None else "compressed"


def _encode_shard_array(shard: np.ndarray, codec: ShardCodec) -> bytes:
    """Encode one contiguous shard into self-contained container bytes.

    ``sharded.encode.shard`` is a fault-injection site: armed ``error``
    faults fail individual shard encodes (a sick worker), ``delay``
    faults model stragglers in the fan-out.
    """
    from ..compress.fileio import save_compressed
    from ..compress.mgard import MgardCompressor
    from ..core.refactor import Refactorer
    from ..io.container import write_refactored_stream

    faults.delay_point("sharded.encode.shard")
    faults.error_point("sharded.encode.shard")
    buf = io.BytesIO()
    if codec.tol is None:
        cc = Refactorer(shard.shape).refactor(np.asarray(shard, dtype=np.float64))
        write_refactored_stream(buf, cc)
    else:
        comp = MgardCompressor.for_shape(
            shard.shape, codec.tol, mode=codec.mode, backend=codec.backend,
            executor="serial",
        )
        save_compressed(buf, comp.compress(np.asarray(shard, dtype=np.float64)))
    return buf.getvalue()


def _encode_shard_worker(
    ref: ArrayRef, start: int, stop: int, codec: ShardCodec
) -> bytes:
    """Process-pool work unit: attach the staged frame, encode one shard."""
    lease = ref.open()
    try:
        # a real copy, not ascontiguousarray: the slice is already
        # contiguous, so the latter would return a view pinning the
        # segment past lease.close()
        shard = lease.view[start:stop].copy()
    finally:
        lease.close()
    return _encode_shard_array(shard, codec)


def encode_shards(
    field: np.ndarray, plan: BlockPlan, codec: ShardCodec, executor=None
) -> list[bytes]:
    """Encode every shard of ``field``; returns one container per shard.

    ``executor`` (spec string, instance, or ``None`` for the ambient
    default) schedules the fan-out.  With the process backend the frame
    is staged once in shared memory and workers ship back only bytes;
    every backend returns byte-identical payloads.
    """
    if tuple(field.shape) != plan.shape:
        raise ValueError(f"expected shape {plan.shape}, got {field.shape}")
    ex = (
        get_executor(executor)
        if executor is None or isinstance(executor, str)
        else executor
    )
    bounds = list(zip(plan.starts, plan.stops))
    if getattr(ex, "kind", None) == "process" and len(bounds) > 1:
        try:
            ref, block = share_array(field)
        except ShmUnavailable:
            pass  # no shared memory: encode in-process below
        else:
            try:
                n = len(bounds)
                return ex.map(
                    _encode_shard_worker,
                    [ref] * n,
                    [a for a, _ in bounds],
                    [b for _, b in bounds],
                    [codec] * n,
                )
            finally:
                block.destroy()
    return ex.map(
        lambda a, b: _encode_shard_array(
            np.ascontiguousarray(field[a:b]), codec
        ),
        [a for a, _ in bounds],
        [b for _, b in bounds],
    )


def encode_shards_spmd(
    field: np.ndarray,
    plan: BlockPlan,
    codec: ShardCodec,
    *,
    fabric: str | None = None,
    n_ranks: int = 4,
    recv_timeout: float = 60.0,
    shm_threshold: int | None = None,
) -> list[bytes]:
    """Encode every shard across SPMD ranks; one container per shard.

    The rank-shaped counterpart of :func:`encode_shards`: rank 0 owns
    the frame and ships each shard's slice to its owner rank
    (round-robin) as a bare ndarray — on the process fabric a large
    slice rides the zero-copy shared-memory data plane — then gathers
    the encoded containers back in shard order.  Byte-identical to
    :func:`encode_shards` on every fabric.
    """
    if tuple(field.shape) != plan.shape:
        raise ValueError(f"expected shape {plan.shape}, got {field.shape}")
    from .fabric import run_spmd

    bounds = list(zip(plan.starts, plan.stops))
    n_ranks = max(1, min(int(n_ranks), len(bounds)))

    def rank_fn(comm):
        if comm.rank == 0:
            for i, (start, stop) in enumerate(bounds):
                dst = i % comm.size
                if dst != 0:
                    comm.send(np.ascontiguousarray(field[start:stop]), dst, tag=i)
        encoded = []
        for i in range(comm.rank, len(bounds), comm.size):
            if comm.rank == 0:
                start, stop = bounds[i]
                shard = np.ascontiguousarray(field[start:stop])
            else:
                shard = comm.recv(0, tag=i)
            encoded.append((i, _encode_shard_array(shard, codec)))
        gathered = comm.gather(encoded, root=0)
        if comm.rank != 0:
            return None
        out: list[bytes | None] = [None] * len(bounds)
        for pairs in gathered:
            for i, blob in pairs:
                out[i] = blob
        return out

    results = run_spmd(
        rank_fn,
        n_ranks,
        fabric=fabric,
        recv_timeout=recv_timeout,
        shm_threshold=shm_threshold,
    )
    return results[0]


def decode_shard(payload: bytes, payload_mode: str) -> np.ndarray:
    """Decode one shard container back to its (full-rank) field block.

    Every way a corrupt shard can fail to decode surfaces as
    :class:`~repro.errors.ContainerError` (the parse layers raise it
    directly; schema-level junk that slips past them — valid JSON with
    wrong fields — is mapped here), so a region read can treat "this
    shard is poison" as one condition.
    """
    from ..compress.fileio import load_compressed
    from ..compress.mgard import MgardCompressor
    from ..core.classes import reconstruct_from_classes
    from ..core.grid import hierarchy_for
    from ..io.container import read_refactored_stream

    if payload_mode not in ("refactored", "compressed"):
        raise ValueError(f"unknown shard payload mode {payload_mode!r}")
    try:
        if payload_mode == "refactored":
            header, classes = read_refactored_stream(payload)
            return reconstruct_from_classes(
                classes, hierarchy_for(tuple(header["shape"]))
            )
        blob, hier = load_compressed(payload)
        comp = MgardCompressor.for_shape(
            hier.shape, float(blob.tol), mode=blob.mode, executor="serial"
        )
        return comp.decompress(blob)
    except ContainerError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ContainerError(f"shard payload undecodable ({payload_mode}): {e}") from e


@dataclass
class ShardedFrame:
    """One frame compressed shard-by-shard (payloads + partition)."""

    payloads: list[bytes] = field(repr=False)
    starts: tuple[int, ...]
    stops: tuple[int, ...]
    shape: tuple[int, ...]
    payload_mode: str
    tol: float | None

    @property
    def n_shards(self) -> int:
        return len(self.payloads)

    @property
    def nbytes(self) -> int:
        return sum(len(p) for p in self.payloads)

    def compression_ratio(self, itemsize: int = 8) -> float:
        n = itemsize
        for s in self.shape:
            n *= s
        return n / max(self.nbytes, 1)


class ShardedCompressor:
    """Shard-parallel error-bounded compressor for one grid geometry.

    Parameters
    ----------
    shape:
        Full-frame shape; shards split axis 0.
    tol:
        Global absolute L∞ error bound (``None`` keeps shards as raw
        refactored classes — lossless, partially readable).
    n_shards / memory_bytes:
        Exactly one of an explicit shard count
        (:func:`plan_shards`) or a per-shard memory budget
        (:func:`~repro.cluster.partition.plan_blocks`).
    mode / backend:
        Quantizer budgeting mode and entropy backend of each shard's
        :class:`~repro.compress.mgard.MgardCompressor`.
    executor:
        Executor spec or instance scheduling the shard fan-out; the
        emitted bytes never depend on it.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        tol: float | None,
        *,
        n_shards: int | None = None,
        memory_bytes: float | None = None,
        mode: str = "level",
        backend: str = "zlib",
        executor=None,
    ):
        from .partition import plan_blocks

        if (n_shards is None) == (memory_bytes is None):
            raise ValueError("pass exactly one of n_shards or memory_bytes")
        if n_shards is not None:
            self.plan = plan_shards(tuple(shape), n_shards)
        else:
            self.plan = plan_blocks(tuple(shape), memory_bytes)
        self.tol = None if tol is None else float(tol)
        self.codec = ShardCodec(
            tol=None if tol is None else shard_tolerance(tol, self.plan.n_blocks),
            mode=mode,
            backend=backend,
        )
        self.executor = executor

    @property
    def n_shards(self) -> int:
        return self.plan.n_blocks

    def compress(self, data: np.ndarray) -> ShardedFrame:
        """Compress every shard; the global L∞ bound is ``tol``."""
        payloads = encode_shards(
            np.ascontiguousarray(data), self.plan, self.codec, self.executor
        )
        return ShardedFrame(
            payloads=payloads,
            starts=self.plan.starts,
            stops=self.plan.stops,
            shape=self.plan.shape,
            payload_mode=self.codec.payload_mode,
            tol=self.tol,
        )

    def decompress(self, frame: ShardedFrame) -> np.ndarray:
        """Reassemble the full field from a :class:`ShardedFrame`."""
        if frame.shape != self.plan.shape:
            raise ValueError(
                f"frame was sharded for shape {frame.shape}, not {self.plan.shape}"
            )
        out = np.empty(self.plan.shape, dtype=np.float64)
        for payload, a, b in zip(frame.payloads, frame.starts, frame.stops):
            block = decode_shard(payload, frame.payload_mode)
            if block.shape != (b - a,) + self.plan.shape[1:]:
                raise ValueError(
                    f"shard [{a}:{b}] decoded to shape {block.shape}"
                )
            out[a:b] = block
        return out
