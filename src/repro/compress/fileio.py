"""On-disk format for compressed data (the ``.mgz`` files of repro-tool).

Layout: magic, little-endian u64 header length, JSON header (shape,
tolerance, quantizer metadata, per-class payload extents + CRC32s),
then the class payloads back to back.  Self-contained: decompression
needs nothing but the file (the hierarchy is rebuilt from the shape;
non-uniform coordinates, when used, are embedded in the header).
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .. import faults
from ..core.grid import TensorHierarchy, hierarchy_for
from ..errors import ContainerError
from .mgard import CompressedData

__all__ = ["save_compressed", "load_compressed", "CompressedFileError"]

_MAGIC = b"RPMG\x01\x00"


class CompressedFileError(ContainerError):
    """Malformed compressed file.

    A :class:`~repro.errors.ContainerError`, so stream-level recovery
    (step quarantine, partial-shard region reads, the scrub CLI)
    handles corrupt ``.mgz`` steps and corrupt refactored containers
    through one ``except`` clause.
    """


def save_compressed(
    path: str | Path,
    blob: CompressedData,
    coords: tuple[np.ndarray, ...] | None = None,
) -> int:
    """Write a :class:`CompressedData` to disk; returns bytes written.

    ``path`` may also be an open binary stream (e.g. ``io.BytesIO``),
    which is how a pipeline's encode stage serializes in memory while a
    later stage owns the disk write.
    """
    extents = []
    offset = 0
    for p in blob.payloads:
        extents.append({"offset": offset, "nbytes": len(p), "crc32": zlib.crc32(p)})
        offset += len(p)
    header = {
        "shape": list(blob.shape),
        "tol": blob.tol,
        "mode": blob.mode,
        "steps": blob.steps,
        "headers": blob.headers,
        "extents": extents,
        "coords": None if coords is None else [c.tolist() for c in coords],
    }
    hbytes = json.dumps(header).encode()

    def _emit(f) -> None:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(hbytes)))
        f.write(hbytes)
        for p in blob.payloads:
            f.write(p)

    if hasattr(path, "write"):
        _emit(path)
    else:
        with open(Path(path), "wb") as f:
            _emit(f)
    return len(_MAGIC) + 8 + len(hbytes) + offset


def load_compressed(source) -> tuple[CompressedData, TensorHierarchy]:
    """Read a compressed container back into (blob, matching hierarchy).

    ``source`` may be a path, an open binary stream, or a bytes-like
    payload — the latter two are how shard segments embedded in a
    sharded step container decode without touching the filesystem.
    """
    import io as _io

    if isinstance(source, (bytes, bytearray, memoryview)):
        f, close, name = _io.BytesIO(source), True, "<bytes>"
    elif hasattr(source, "read"):
        f, close, name = source, False, getattr(source, "name", "<stream>")
    else:
        f, close, name = open(Path(source), "rb"), True, str(source)
    try:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CompressedFileError(f"bad magic in {name}")
        raw = f.read(8)
        if len(raw) != 8:
            raise CompressedFileError(
                f"truncated header length in {name} "
                f"(offset {len(_MAGIC)}: got {len(raw)} of 8 bytes)"
            )
        (hlen,) = struct.unpack("<Q", raw)
        raw = f.read(hlen)
        if len(raw) != hlen:
            raise CompressedFileError(
                f"truncated header in {name} "
                f"(offset {len(_MAGIC) + 8}: got {len(raw)} of {hlen} bytes)"
            )
        try:
            header = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CompressedFileError(f"corrupt header in {name}") from e
        if not isinstance(header, dict) or not isinstance(header.get("extents"), list):
            raise CompressedFileError(f"header in {name} missing its payload extents")
        payloads = []
        offset = len(_MAGIC) + 8 + hlen
        for i, ext in enumerate(header["extents"]):
            try:
                nbytes, crc = int(ext["nbytes"]), ext["crc32"]
            except (KeyError, TypeError) as e:
                raise CompressedFileError(
                    f"malformed extent {i} in header of {name}"
                ) from e
            raw = f.read(nbytes)
            faults.delay_point("fileio.read.payload")
            raw = faults.corrupt_bytes("fileio.read.payload", raw)
            if len(raw) != nbytes:
                raise CompressedFileError(
                    f"truncated payload {i} in {name} "
                    f"(offset {offset}: got {len(raw)} of {nbytes} bytes)"
                )
            if zlib.crc32(raw) != crc:
                raise CompressedFileError(
                    f"checksum mismatch for payload {i} in {name} "
                    f"(offset {offset}, {nbytes} bytes)"
                )
            payloads.append(raw)
            offset += nbytes
    finally:
        if close:
            f.close()
    try:
        shape = tuple(header["shape"])
        coords = header.get("coords")
        hier = hierarchy_for(
            shape,
            None if coords is None else tuple(np.asarray(c) for c in coords),
        )
        blob = CompressedData(
            payloads=payloads,
            headers=header["headers"],
            steps=list(header["steps"]),
            shape=shape,
            tol=float(header["tol"]),
            mode=str(header["mode"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        # valid JSON, wrong schema: an overwritten or bit-flipped header
        raise CompressedFileError(f"malformed header in {name}: {e}") from e
    return blob, hier
