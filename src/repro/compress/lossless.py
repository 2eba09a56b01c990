"""Lossless entropy backends for the compression pipeline.

The paper's MGARD workflow keeps its entropy stage ("ZLib lossless
compression") on the CPU; this module wraps :mod:`zlib` with integer
narrowing (quantized bins are overwhelmingly tiny integers, so packing
them into the narrowest dtype before deflate roughly halves the output)
and exposes the pure-Python canonical Huffman coder as an alternative
reference backend.

Batched class payloads use a *segmented* container (``format: 2``): one
payload, one header, but the header records per-segment offsets so the
per-class segments are independent, schedulable work units — encoded
and decoded through an executor (see :mod:`repro.compress.executor`)
with byte-identical output to the serial path.  Segments whose class
dominates the payload additionally parallelize *inside* the segment:
the Huffman backend via its sync-aligned block encoder, the zlib
backend by deflating fixed-size sub-blocks independently (the header's
per-segment ``blocks`` list records their compressed extents; smaller
zlib segments are single-unit deflate streams without ``blocks``).

The stage is stateless: every Huffman segment carries the full code
book it was built with, so a payload decodes from its own header
alone, in any order.
"""

from __future__ import annotations

import zlib

import numpy as np

from .huffman import (
    _MIN_DECODE_BLOCKS_PER_WORKER,
    _SYNC_BLOCK,
    huffman_decode,
    huffman_encode,
)

__all__ = [
    "encode_bins",
    "decode_bins",
    "encode_classes",
    "decode_classes",
    "BACKENDS",
]

BACKENDS = ("zlib", "huffman")

# an encode segment at least this many elements long parallelizes
# internally (Huffman block encode) instead of riding the across-segment
# fan-out — the two levels are never nested, so thread pools cannot
# deadlock on their own subtasks
_BIG_SEGMENT = 1 << 16

# the decode-side equivalent: the sync-partitioned Huffman decode only
# engages once at least two workers get _MIN_DECODE_BLOCKS_PER_WORKER
# sync blocks each; anything smaller (and every single-unit zlib
# segment — one-shot decompress, no internal parallelism) decodes
# faster on the across-segment fan-out
_BIG_DECODE_SEGMENT = 2 * _MIN_DECODE_BLOCKS_PER_WORKER * _SYNC_BLOCK

# zlib sub-block size (bytes of the narrowed raw stream, a multiple of
# 8 so int64 element boundaries align).  A class whose raw bytes reach
# two blocks deflates as independently-schedulable sub-blocks — the
# zlib mirror of the Huffman sync-block design, so both entropy
# backends parallelize inside a dominant class.  Deflate's 32 KiB
# window is tiny against this, so the ratio cost of restarting the
# dictionary per block is noise.
_ZLIB_BLOCK_BYTES = 1 << 18


def _narrow_dtype(values: np.ndarray) -> np.dtype:
    """Smallest signed integer dtype that holds every value."""
    if values.size == 0:
        return np.dtype(np.int8)
    lo, hi = int(values.min()), int(values.max())
    for dt in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dt)
    raise AssertionError("int64 always fits")  # pragma: no cover


def encode_bins(values: np.ndarray, backend: str = "zlib", level: int = 6) -> tuple[bytes, dict]:
    """Losslessly encode an int64 bin array; returns (payload, header)."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    if backend == "zlib":
        dt = _narrow_dtype(values)
        raw = values.astype(dt).tobytes()
        payload = zlib.compress(raw, level)
        header = {"backend": "zlib", "dtype": dt.str, "n": int(values.size)}
        return payload, header
    if backend == "huffman":
        payload, hh = huffman_encode(values)
        hh["backend"] = "huffman"
        return payload, hh
    raise ValueError(f"unknown lossless backend {backend!r}; choose from {BACKENDS}")


# ----------------------------------------------------------------------
# zlib sub-blocks (the deflate mirror of the Huffman sync blocks)


def _zlib_chunks(raw: bytes) -> list[bytes]:
    """Deterministic sub-block split of one narrowed raw stream.

    Purely a function of the raw length, never of the executor, so the
    emitted container bytes are identical for every backend.
    """
    if len(raw) < 2 * _ZLIB_BLOCK_BYTES:
        return [raw]
    return [
        raw[a : a + _ZLIB_BLOCK_BYTES]
        for a in range(0, len(raw), _ZLIB_BLOCK_BYTES)
    ]


def _deflate_chunks(chunks: list[bytes], level: int, executor) -> list[bytes]:
    """Deflate a flat chunk list through the executor (order-preserving)."""
    if executor is not None and len(chunks) > 1:
        if getattr(executor, "kind", None) == "process":
            out = _deflate_chunks_process(chunks, level, executor)
            if out is not None:
                return out
        return executor.map(lambda c: zlib.compress(c, level), chunks)
    return [zlib.compress(c, level) for c in chunks]


def _deflate_chunks_process(chunks, level, executor) -> list[bytes] | None:
    """Deflate fan-out across processes: raws staged once in shm."""
    from ..parallel import shm as _shm

    try:
        ref, block, offsets = _shm.share_chunks(chunks)
    except _shm.ShmUnavailable:
        return None
    try:
        n = len(chunks)
        return executor.map(
            _deflate_worker,
            [ref] * n,
            offsets,
            [len(c) for c in chunks],
            [level] * n,
        )
    finally:
        block.destroy()


def _deflate_worker(ref, offset: int, length: int, level: int) -> bytes:
    """Process-pool work unit: deflate one raw sub-block from shm."""
    lease = ref.open()
    try:
        return zlib.compress(lease.view[offset : offset + length], level)
    finally:
        lease.close()


def _inflate_chunks(parts: list[bytes], executor) -> list[bytes]:
    """Inflate the sub-blocks of one segment through the executor."""
    if executor is not None and len(parts) > 1:
        if getattr(executor, "kind", None) == "process":
            out = _inflate_chunks_process(parts, executor)
            if out is not None:
                return out
        return executor.map(zlib.decompress, parts)
    return [zlib.decompress(p) for p in parts]


def _inflate_chunks_process(parts, executor) -> list[bytes] | None:
    """Inflate fan-out across processes: deflated bytes staged in shm."""
    from ..parallel import shm as _shm

    try:
        ref, block, offsets = _shm.share_chunks(parts)
    except _shm.ShmUnavailable:
        return None
    try:
        n = len(parts)
        return executor.map(
            _inflate_worker, [ref] * n, offsets, [len(p) for p in parts]
        )
    finally:
        block.destroy()


def _inflate_worker(ref, offset: int, length: int) -> bytes:
    """Process-pool work unit: inflate one deflated sub-block from shm."""
    lease = ref.open()
    try:
        return zlib.decompress(lease.view[offset : offset + length])
    finally:
        lease.close()


# ----------------------------------------------------------------------
# segmented batched container (format 2)


def encode_classes(
    bins: np.ndarray,
    sizes: list[int],
    backend: str = "zlib",
    level: int = 6,
    executor=None,
) -> tuple[bytes, dict]:
    """Encode all coefficient classes as one segmented payload + header.

    ``bins`` is the int64 concatenation of every class (coarse-to-fine)
    and ``sizes`` the per-class element counts.  Each class becomes an
    independent segment — narrowed to its own smallest dtype and
    deflated (zlib) or Huffman-coded with its own code book — and the
    header records per-segment offsets, so encode and decode fan out
    over an ``executor`` and large single-class payloads additionally
    parallelize block-wise.  The emitted bytes depend only on ``bins``,
    ``sizes``, ``backend`` and ``level`` — never on the executor or on
    earlier calls.
    """
    bins = np.ascontiguousarray(bins, dtype=np.int64).ravel()
    sizes = [int(s) for s in sizes]
    if bins.size != sum(sizes):
        raise ValueError(f"flat payload has {bins.size} values, expected {sum(sizes)}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown lossless backend {backend!r}; choose from {BACKENDS}")
    bounds = np.cumsum([0] + sizes)
    segments = [bins[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    if backend == "zlib":
        # every class narrows to its own dtype; large classes split into
        # fixed-size sub-blocks so the deflate work units of a dominant
        # class parallelize just like Huffman sync blocks do.  The chunk
        # boundaries depend only on the data, so all executors emit the
        # same bytes.
        dtypes = []
        chunk_lists: list[list[bytes]] = []
        for seg in segments:
            dt = _narrow_dtype(seg)
            dtypes.append(dt.str)
            chunk_lists.append(_zlib_chunks(seg.astype(dt).tobytes()))
        deflated = _deflate_chunks(
            [c for chunks in chunk_lists for c in chunks], level, executor
        )
        payloads = []
        seg_headers = []
        pos = 0
        for dt, chunks in zip(dtypes, chunk_lists):
            parts = deflated[pos : pos + len(chunks)]
            pos += len(chunks)
            payloads.append(b"".join(parts))
            sh: dict = {"dtype": dt}
            if len(parts) > 1:
                sh["blocks"] = [len(p) for p in parts]
            seg_headers.append(sh)
    else:
        results: dict[int, tuple[bytes, dict]] = {}
        small = []
        for i, seg in enumerate(segments):
            if seg.size >= _BIG_SEGMENT:
                # dominant class: parallelize inside the segment
                results[i] = huffman_encode(seg, executor=executor)
            else:
                small.append(i)
        if executor is not None and len(small) > 1:
            encoded = executor.map(lambda i: huffman_encode(segments[i]), small)
            results.update(zip(small, encoded))
        else:
            for i in small:
                results[i] = huffman_encode(segments[i])
        payloads = [results[i][0] for i in range(len(segments))]
        seg_headers = [results[i][1] for i in range(len(segments))]

    seg_meta = []
    offset = 0
    for p, sh in zip(payloads, seg_headers):
        seg_meta.append({"offset": offset, "nbytes": len(p), **sh})
        offset += len(p)
    header = {
        "backend": backend,
        "format": 2,
        "n": int(bins.size),
        "class_sizes": sizes,
        "segments": seg_meta,
    }
    return b"".join(payloads), header


def _decode_segmented(
    payload: bytes, header: dict, executor=None
) -> tuple[np.ndarray, list[int]]:
    sizes = [int(s) for s in header["class_sizes"]]
    segs = header["segments"]
    if len(segs) != len(sizes):
        raise ValueError(
            f"header has {len(segs)} segments for {len(sizes)} classes"
        )
    backend = header.get("backend")
    end = segs[-1]["offset"] + segs[-1]["nbytes"] if segs else 0
    if end > len(payload):
        raise ValueError("truncated segmented payload")

    out = np.empty(sum(sizes), dtype=np.int64)
    starts = np.cumsum([0] + sizes)

    def decode_one(i: int, inner=None) -> None:
        sh = segs[i]
        sub = payload[sh["offset"] : sh["offset"] + sh["nbytes"]]
        if backend == "zlib":
            blocks = sh.get("blocks")
            if blocks:
                if sum(blocks) != sh["nbytes"]:
                    raise ValueError(
                        f"segment {i}: sub-blocks do not sum to its extent"
                    )
                bounds = np.cumsum([0] + list(blocks))
                parts = [sub[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
                raw = b"".join(_inflate_chunks(parts, inner))
            else:
                raw = zlib.decompress(sub)
            vals = np.frombuffer(raw, dtype=np.dtype(sh["dtype"])).astype(np.int64)
        else:
            vals = huffman_decode(sub, sh, executor=inner)
        if vals.size != sizes[i]:
            raise ValueError(f"segment {i} decoded {vals.size} values, expected {sizes[i]}")
        out[starts[i] : starts[i + 1]] = vals

    def big_enough(i: int) -> bool:
        # a segment with internal parallelism decodes through the inner
        # executor; everything else rides the across-segment fan-out
        if backend == "huffman":
            return sizes[i] >= _BIG_DECODE_SEGMENT
        return "blocks" in segs[i]

    big = [i for i in range(len(segs)) if big_enough(i)]
    small = [i for i in range(len(segs)) if not big_enough(i)]
    for i in big:
        decode_one(i, inner=executor)
    if executor is not None and len(small) > 1:
        executor.map(decode_one, small)
    else:
        for i in small:
            decode_one(i)
    return out, sizes


def decode_classes(
    payload: bytes, header: dict, executor=None
) -> tuple[np.ndarray, list[int]]:
    """Invert :func:`encode_classes`; returns (flat int64 bins, sizes).

    Needs nothing but ``payload`` and its segmented (``format: 2``)
    header; a header without ``class_sizes`` or ``segments`` raises
    ``ValueError``.
    """
    if header.get("class_sizes") is None:
        raise ValueError("header carries no class_sizes; not a batched payload")
    if "segments" not in header:
        raise ValueError("header carries no segments; not a segmented payload")
    return _decode_segmented(payload, header, executor=executor)


def decode_bins(payload: bytes, header: dict) -> np.ndarray:
    """Invert :func:`encode_bins`."""
    backend = header.get("backend")
    if backend == "zlib":
        raw = zlib.decompress(payload)
        values = np.frombuffer(raw, dtype=np.dtype(header["dtype"]))
        if values.size != header["n"]:
            raise ValueError(
                f"decoded {values.size} values, expected {header['n']}"
            )
        return values.astype(np.int64)
    if backend == "huffman":
        return huffman_decode(payload, header)
    raise ValueError(f"unknown lossless backend {backend!r}")
