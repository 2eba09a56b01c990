"""MGARD-style error-bounded lossy compressor (paper Showcase V-B).

Pipeline (matching the MGARD software the paper accelerates):

1. **data refactoring** — multigrid decomposition into coefficient
   classes (the stage the paper offloads to the GPU);
2. **quantization** — error-budgeted uniform scalar quantization of the
   classes (also offloaded in the paper, to avoid an extra host
   round-trip);
3. **entropy encoding** — lossless coding of the integer bins (zlib in
   the paper; kept on the CPU).

:class:`MgardCompressor` is functional end to end (compress →
decompress honours the L∞ error bound) and, when built with a metered
engine, reports the per-stage *modeled* times that reproduce the
paper's Fig. 11 breakdown, plus real wall-clock times of every stage.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.classes import CoefficientClasses, class_sizes, extract_classes
from ..core.decompose import decompose, recompose
from ..core.classes import assemble_from_classes
from ..core.engine import Engine, NumpyEngine
from ..core.grid import TensorHierarchy
from .lossless import decode_bins, decode_classes, encode_bins, encode_classes
from .quantizer import Quantizer

__all__ = ["CompressedData", "MgardCompressor", "PreparedFrame", "StageTimes"]


@dataclass
class StageTimes:
    """Per-stage timings of one compress/decompress call (seconds)."""

    refactor_wall: float = 0.0
    quantize_wall: float = 0.0
    entropy_wall: float = 0.0
    refactor_modeled: float | None = None
    quantize_modeled: float | None = None
    transfer_modeled: float | None = None

    @property
    def total_wall(self) -> float:
        return self.refactor_wall + self.quantize_wall + self.entropy_wall


@dataclass
class PreparedFrame:
    """Refactored + quantized (but not yet entropy-coded) data.

    The output of :meth:`MgardCompressor.prepare` and the input of
    :meth:`MgardCompressor.encode_prepared` — the seam that splits one
    ``compress`` call into its in-order half (refactor + quantize,
    which closed-loop temporal prediction must run serially because
    the *reconstruction* feeds the next frame's residual) and its
    stateless half (entropy coding, which a pipeline overlaps across
    steps).  Entropy coding is lossless, so the reconstruction is
    already fully determined here: :meth:`MgardCompressor.\
reconstruct_prepared` inverts the quantization without ever touching
    the encoder.
    """

    bins: np.ndarray = field(repr=False)  # int64 concatenation of classes
    sizes: list[int]
    steps: list[float]
    shape: tuple[int, ...]
    tol: float
    mode: str
    nbytes_in: int
    times: StageTimes = field(default_factory=StageTimes)


@dataclass
class CompressedData:
    """Self-contained compressed representation of one array."""

    payloads: list[bytes]
    headers: list[dict]
    steps: list[float]
    shape: tuple[int, ...]
    tol: float
    mode: str
    times: StageTimes = field(default_factory=StageTimes)

    @property
    def nbytes(self) -> int:
        meta = len(json.dumps(self.headers).encode())
        return sum(len(p) for p in self.payloads) + meta

    def compression_ratio(self, itemsize: int = 8) -> float:
        n = 1
        for s in self.shape:
            n *= s
        return n * itemsize / self.nbytes


class MgardCompressor:
    """Error-bounded lossy compressor built on multigrid refactoring.

    Parameters
    ----------
    hier:
        The grid hierarchy (shape + optional non-uniform coordinates).
    tol:
        Absolute L∞ error bound for round-tripped data.
    mode:
        Quantizer budgeting mode (``"level"`` or ``"uniform"``).
    backend:
        Lossless backend (``"zlib"`` — the paper's choice — or
        ``"huffman"``).
    engine:
        Refactoring engine; pass a metered engine to obtain modeled
        GPU/CPU stage times (Fig. 11).
    quantize_on_gpu:
        Whether the quantization stage runs on the device in the modeled
        breakdown (the paper offloads it together with refactoring).
    batch_classes:
        Encode all coefficient classes into one payload with a single
        shared header (the batched fast path) instead of one
        payload/header per class.  Decompression auto-detects either
        layout.
    plan:
        Optional :class:`~repro.compress.plan.CompressionPlan`; when
        given, the quantizer step budget comes pre-resolved from the
        plan cache.  Prefer :meth:`for_shape` which wires this up.
    executor:
        Executor (instance or spec string — ``serial``, ``thread[:N]``,
        ``process[:N]``, ``auto``; see :mod:`repro.parallel`) scheduling
        the entropy stage's per-class segments, Huffman sync blocks,
        and zlib sub-blocks; defaults to the plan's executor, else the
        ambient default.  The emitted bytes do not depend on this
        choice.
    """

    def __init__(
        self,
        hier: TensorHierarchy,
        tol: float,
        mode: str = "level",
        backend: str = "zlib",
        engine: Engine | None = None,
        quantize_on_gpu: bool = True,
        batch_classes: bool = True,
        plan=None,
        executor=None,
    ):
        from .executor import get_executor

        self.hier = hier
        self.plan = plan
        if plan is not None:
            self.quantizer = plan.quantizer()
            self.backend = plan.backend
        else:
            self.quantizer = Quantizer(tol, mode=mode)
            self.backend = backend
        if executor is None:
            self.executor = plan.get_executor() if plan is not None else get_executor()
        elif isinstance(executor, str):
            self.executor = get_executor(executor)
        else:
            self.executor = executor
        self.engine = engine if engine is not None else NumpyEngine()
        self.quantize_on_gpu = quantize_on_gpu
        self.batch_classes = batch_classes

    @classmethod
    def for_shape(
        cls,
        shape: tuple[int, ...],
        tol: float,
        mode: str = "level",
        backend: str = "zlib",
        coords=None,
        executor: str | None = None,
        **kwargs,
    ) -> "MgardCompressor":
        """A compressor built from the shared plan cache.

        Repeated calls with the same (shape, coords, tol, mode, backend)
        reuse the cached hierarchy (LDL^T factors and all) and the
        cached quantizer budget, so per-call setup is O(1).  ``executor``
        is the plan's executor spec (``"serial"``, ``"thread"``,
        ``"process"``, …).
        """
        from .plan import compression_plan

        plan = compression_plan(
            shape, tol, mode=mode, backend=backend, coords=coords, executor=executor
        )
        return cls(
            plan.hier, tol, mode=mode, backend=backend, plan=plan, **kwargs
        )

    # ------------------------------------------------------------------
    def compress(
        self,
        data: np.ndarray,
        *,
        scratch: dict | None = None,
        refresh_codebooks: bool = False,
        codebook_context: str = "default",
    ) -> CompressedData:
        """Compress ``data`` with the configured error bound.

        ``scratch`` (conventionally a
        :meth:`CompressionPlan.scratch_area`) enables cross-call
        Huffman code-book reuse in the entropy stage;
        ``refresh_codebooks=True`` forces a full-table rebuild (key
        frames), and ``codebook_context`` separates reuse chains whose
        statistics differ by construction (key frames vs temporal
        residuals).  All three require ``batch_classes``.
        """
        if self.batch_classes:
            return self.encode_prepared(
                self.prepare(data),
                scratch=scratch,
                refresh_codebooks=refresh_codebooks,
                codebook_context=codebook_context,
            )

        times = StageTimes()
        t0 = time.perf_counter()
        refactored = decompose(data, self.hier, self.engine)
        cc = CoefficientClasses(self.hier, extract_classes(refactored, self.hier))
        times.refactor_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        qc = self.quantizer.quantize(cc)
        steps = qc.steps
        times.quantize_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        payloads, headers = [], []
        for b in qc.bins:
            p, h = encode_bins(b, backend=self.backend)
            payloads.append(p)
            headers.append(h)
        times.entropy_wall = time.perf_counter() - t0

        self._attach_modeled_times(times, data.nbytes)
        return CompressedData(
            payloads=payloads,
            headers=headers,
            steps=list(steps),
            shape=self.hier.shape,
            tol=self.quantizer.tol,
            mode=self.quantizer.mode,
            times=times,
        )

    def prepare(self, data: np.ndarray) -> PreparedFrame:
        """Refactor and quantize ``data`` without entropy-coding it.

        The in-order half of :meth:`compress` (batched layout): multigrid
        decomposition into coefficient classes plus the fused flat
        quantization.  The returned :class:`PreparedFrame` fully
        determines both the final container
        (:meth:`encode_prepared`) and the decoded reconstruction
        (:meth:`reconstruct_prepared`), so closed-loop prediction can
        advance to the next frame while the entropy stage still runs.
        """
        times = StageTimes()
        t0 = time.perf_counter()
        refactored = decompose(data, self.hier, self.engine)
        cc = CoefficientClasses(self.hier, extract_classes(refactored, self.hier))
        times.refactor_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        bins, sizes, steps = self.quantizer.quantize_flat(cc)
        times.quantize_wall = time.perf_counter() - t0
        return PreparedFrame(
            bins=bins,
            sizes=sizes,
            steps=list(steps),
            shape=self.hier.shape,
            tol=self.quantizer.tol,
            mode=self.quantizer.mode,
            nbytes_in=int(data.nbytes),
            times=times,
        )

    def reconstruct_prepared(self, prep: PreparedFrame) -> np.ndarray:
        """The decoded field a :class:`PreparedFrame` will round-trip to.

        Entropy coding is lossless, so this equals
        ``decompress(encode_prepared(prep))`` bit for bit — without
        running the encoder.  It is the closed-loop feedback path of
        the pipelined time-series compressor: the prediction loop needs
        each frame's *reconstruction*, not its bytes.
        """
        classes = Quantizer.dequantize_flat(prep.bins, prep.sizes, prep.steps)
        refactored = assemble_from_classes(classes, self.hier)
        return recompose(refactored, self.hier, self.engine)

    def encode_prepared(
        self,
        prep: PreparedFrame,
        *,
        scratch: dict | None = None,
        refresh_codebooks: bool = False,
        codebook_context: str = "default",
    ) -> CompressedData:
        """Entropy-code a :class:`PreparedFrame` into a container.

        The stateless half of :meth:`compress`: given the quantized
        bins, the emitted bytes depend only on (``scratch`` chain
        position, ``refresh_codebooks``, ``codebook_context``) — not on
        any compressor state — so a pipeline may run it outside the
        prediction loop.  Calls that share a ``scratch`` (a code-book
        chain) must still arrive in stream order; an in-order pipeline
        stage gate provides exactly that.
        """
        if prep.shape != self.hier.shape:
            raise ValueError(
                f"prepared frame has shape {prep.shape}, not {self.hier.shape}"
            )
        if prep.tol != self.quantizer.tol or prep.mode != self.quantizer.mode:
            # the bins were quantized under *that* budget; encoding them
            # here would stamp the container with this compressor's
            # tol/mode and claim an error bound the payload cannot honour
            raise ValueError(
                f"prepared frame was quantized for tol={prep.tol}, "
                f"mode={prep.mode!r}; this compressor is "
                f"tol={self.quantizer.tol}, mode={self.quantizer.mode!r}"
            )
        times = StageTimes(
            refactor_wall=prep.times.refactor_wall,
            quantize_wall=prep.times.quantize_wall,
        )
        t0 = time.perf_counter()
        payload, header = encode_classes(
            prep.bins,
            prep.sizes,
            backend=self.backend,
            executor=self.executor,
            scratch=scratch,
            refresh=refresh_codebooks,
            context=codebook_context,
        )
        times.entropy_wall = time.perf_counter() - t0

        self._attach_modeled_times(times, prep.nbytes_in)
        return CompressedData(
            payloads=[payload],
            headers=[header],
            steps=list(prep.steps),
            shape=self.hier.shape,
            tol=self.quantizer.tol,
            mode=self.quantizer.mode,
            times=times,
        )

    def decompress(
        self, blob: CompressedData, *, scratch: dict | None = None
    ) -> np.ndarray:
        """Invert :meth:`compress` (up to the error bound).

        Accepts both payload layouts: one payload per class, or the
        batched single payload whose header carries ``class_sizes``
        (segmented or pre-segmentation).  ``scratch`` resolves code-book
        references of blobs encoded with cross-call reuse; such blobs
        must be decoded in stream order from their last key frame.
        """
        if blob.shape != self.hier.shape:
            raise ValueError(
                f"blob was compressed for shape {blob.shape}, not {self.hier.shape}"
            )
        sizes = class_sizes(self.hier)
        batched = len(blob.payloads) == 1 and "class_sizes" in blob.headers[0]
        times = StageTimes()
        if batched:
            t0 = time.perf_counter()
            flat, got_sizes = decode_classes(
                blob.payloads[0],
                blob.headers[0],
                executor=self.executor,
                scratch=scratch,
            )
            times.entropy_wall = time.perf_counter() - t0

            t0 = time.perf_counter()
            if got_sizes != sizes:
                raise ValueError("decoded class sizes do not match the hierarchy")
            classes = Quantizer.dequantize_flat(flat, sizes, blob.steps)
            times.quantize_wall = time.perf_counter() - t0  # de-quantization
        else:
            t0 = time.perf_counter()
            bins = [decode_bins(p, h) for p, h in zip(blob.payloads, blob.headers)]
            times.entropy_wall = time.perf_counter() - t0

            t0 = time.perf_counter()
            if [b.size for b in bins] != sizes:
                raise ValueError("decoded class sizes do not match the hierarchy")
            classes = [
                b.astype(np.float64) * step for b, step in zip(bins, blob.steps)
            ]
            times.quantize_wall = time.perf_counter() - t0  # de-quantization

        t0 = time.perf_counter()
        refactored = assemble_from_classes(classes, self.hier)
        out = recompose(refactored, self.hier, self.engine)
        times.refactor_wall = time.perf_counter() - t0

        self._attach_modeled_times(times, out.nbytes)
        blob.times = times
        return out

    # ------------------------------------------------------------------
    def _attach_modeled_times(self, times: StageTimes, nbytes: int) -> None:
        """Pull modeled stage times off a metered engine, if present."""
        clock = getattr(self.engine, "clock", None)
        if clock is None:
            return
        times.refactor_modeled = clock
        device = getattr(self.engine, "device", None)
        if device is not None:
            # quantization offloaded to the device: one streaming pass
            # (read doubles, write ints) at sustained bandwidth
            if self.quantize_on_gpu:
                times.quantize_modeled = 1.5 * nbytes / device.effective_bandwidth
                # ship the (narrowed) bins to the host for entropy coding
                times.transfer_modeled = 0.5 * nbytes / (device.pcie_bandwidth_gbps * 1e9)
            else:
                times.transfer_modeled = nbytes / (device.pcie_bandwidth_gbps * 1e9)
        cpu = getattr(self.engine, "cpu", None)
        if cpu is not None:
            # host-side scalar quantization loop
            times.quantize_modeled = (nbytes / 8) * cpu.element_ns * 0.5e-9
        # fresh clock per call
        reset = getattr(self.engine, "reset", None)
        if reset is not None:
            reset()
