"""Metered execution engines: functional arithmetic + modeled time.

Two engines wrap the exact NumPy arithmetic of
:class:`repro.core.engine.NumpyEngine` and additionally emit one
:class:`~repro.gpu.cost.KernelLaunch` record per operation, converting
it to modeled seconds with the appropriate hardware model:

* :class:`GpuSimEngine` — the paper's optimized GPU design (or any
  ablation of it, via :class:`~repro.kernels.launches.EngineOptions`)
  on a :class:`~repro.gpu.device.DeviceSpec`.
* :class:`CpuRefEngine` — the serial CPU MGARD baseline on a
  :class:`~repro.gpu.device.CpuSpec`; runs unpacked (strided) with
  vector-wise processing, like the original code.

Records produced by a metered engine during one decomposition /
recomposition are identical to the shape-only walk of
:func:`repro.kernels.launches.iter_decompose_launches` (tested), so
functional runs and analytic sweeps report the same numbers.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..core.engine import NumpyEngine
from ..core.grid import TensorHierarchy
from ..gpu.cost import KernelLaunch, cpu_kernel_time, gpu_kernel_time
from ..gpu.device import CpuSpec, DeviceSpec, POWER9_CORE, V100
from ..gpu.memory import FootprintReport, refactoring_footprint
from . import launches as L

__all__ = ["MeteredEngine", "GpuSimEngine", "CpuRefEngine", "CPU_BASELINE_OPTIONS"]

#: How the original CPU implementation behaves in the launch model:
#: vector-wise processing on unpacked (strided) data, one "stream".
CPU_BASELINE_OPTIONS = L.EngineOptions(framework="naive", pack_nodes=False)


class MeteredEngine(NumpyEngine):
    """Functional engine that meters every operation through a cost model."""

    def __init__(self, opts: L.EngineOptions):
        self.opts = opts
        self.records: list[KernelLaunch] = []
        self.record_times: list[float] = []
        self.clock = 0.0
        self.category_seconds: dict[str, float] = defaultdict(float)
        self._hier: TensorHierarchy | None = None

    # -- to be provided by subclasses -------------------------------------
    def _model_time(self, rec: KernelLaunch) -> float:
        raise NotImplementedError

    # -- bookkeeping -------------------------------------------------------
    def reset(self) -> None:
        """Clear the simulated clock and all recorded launches."""
        self.records.clear()
        self.record_times.clear()
        self.clock = 0.0
        self.category_seconds = defaultdict(float)

    def begin(self, operation: str, hier: TensorHierarchy) -> None:
        self._hier = hier

    def _emit(self, rec: KernelLaunch) -> None:
        t = self._model_time(rec)
        self.records.append(rec)
        self.record_times.append(t)
        self.clock += t
        self.category_seconds[L.category_of(rec)] += t

    def _stride(self, hier: TensorHierarchy, l: int) -> int:
        return hier.level_stride(l, hier.ndim - 1)

    def report(self) -> dict[str, float]:
        """Per-category modeled seconds (Table IV rows) plus the total."""
        out = dict(self.category_seconds)
        out["total"] = self.clock
        return out

    # -- metered operations --------------------------------------------------
    def compute_coefficients(self, v, hier, l):
        out = super().compute_coefficients(v, hier, l)
        self._emit(
            L.coefficients_launch(
                v.shape, opts=self.opts, level=l, stride=self._stride(hier, l)
            )
        )
        return out

    def restore_from_coefficients(self, c, vc, hier, l):
        shape = c.shape
        out = super().restore_from_coefficients(c, vc, hier, l)
        self._emit(
            L.coefficients_launch(
                shape, opts=self.opts, level=l, stride=self._stride(hier, l), restore=True
            )
        )
        return out

    def mass_apply(self, v, ops, axis, *, hier=None, l=None):
        out = super().mass_apply(v, ops, axis)
        self._emit(
            L.mass_launch(v.shape, axis, opts=self.opts, level=l, stride=self._stride(hier, l))
        )
        return out

    def transfer_apply(self, f, ops, axis, *, hier=None, l=None):
        out = super().transfer_apply(f, ops, axis)
        self._emit(
            L.transfer_launch(
                f.shape, axis, ops.m_coarse,
                opts=self.opts, level=l, stride=self._stride(hier, l),
            )
        )
        return out

    def solve_correction(self, f, ops, axis, *, hier=None, l=None):
        out = super().solve_correction(f, ops, axis)
        self._emit(
            L.solve_launch(f.shape, axis, opts=self.opts, level=l, stride=self._stride(hier, l))
        )
        return out

    def copy(self, arr, *, reason="copy", level=-1):
        out = super().copy(arr)
        self._emit(L.copy_launch(arr.shape, stride=1, level=level, reason=reason))
        return out

    def pack(self, full, level_mesh, *, reason="pack", level=-1):
        out = super().pack(full, level_mesh)
        if not self.opts.pack_nodes and reason in ("pack-finest", "pack-coarsest"):
            # The unpacked designs operate on the strided data in place;
            # the driver's initial gather is a host-side convenience of
            # the functional implementation, not a metered device op
            # (the stride cost is charged to every kernel instead).
            return out
        stride = self._stride(self._hier, level) if self._hier is not None else 1
        self._emit(
            L.pack_launch(out.shape, stride=stride, level=level, reason=reason, opts=self.opts)
        )
        return out

    def unpack(self, packed, full, level_mesh, *, reason="unpack", level=-1):
        super().unpack(packed, full, level_mesh)
        stride = self._stride(self._hier, level) if self._hier is not None else 1
        self._emit(
            L.copy_launch(
                packed.shape, stride=stride, level=level, name="unpack_store", reason=reason
            )
        )

    def add_correction(self, v, z, hier, l):
        fine_shape = v.shape
        out = super().add_correction(v, z, hier, l)
        stride = 2 if self.opts.pack_nodes else self._stride(hier, l)
        self._emit(
            L.correction_update_launch(
                z.shape, stride=stride, level=l, fine_shape=fine_shape, opts=self.opts
            )
        )
        return out

    def subtract_correction(self, v, z, hier, l):
        out = super().subtract_correction(v, z, hier, l)
        stride = 1 if self.opts.pack_nodes else self._stride(hier, l)
        self._emit(L.correction_update_launch(z.shape, stride=stride, level=l, opts=self.opts))
        return out


class GpuSimEngine(MeteredEngine):
    """The paper's GPU design (or an ablation) on a simulated device."""

    def __init__(
        self,
        device: DeviceSpec = V100,
        opts: L.EngineOptions | None = None,
    ):
        super().__init__(opts if opts is not None else L.EngineOptions())
        self.device = device

    def _model_time(self, rec: KernelLaunch) -> float:
        return gpu_kernel_time(rec, self.device)

    def begin(self, operation, hier):
        super().begin(operation, hier)
        data_bytes = int(np.prod(hier.shape)) * 8
        needed = refactoring_footprint(hier).gpu_total
        if needed > self.device.memory_gb * 1e9:
            raise MemoryError(
                f"{hier.shape} needs {needed / 1e9:.1f} GB but "
                f"{self.device.name} has {self.device.memory_gb} GB"
            )
        self._data_bytes = data_bytes

    def footprint(self, hier: TensorHierarchy | None = None) -> FootprintReport:
        """Memory-footprint report of the last (or given) hierarchy."""
        h = hier if hier is not None else self._hier
        if h is None:
            raise ValueError("no hierarchy seen yet; run an operation first")
        return refactoring_footprint(h)


class CpuRefEngine(MeteredEngine):
    """The serial CPU MGARD baseline (the paper's comparison point)."""

    def __init__(self, cpu: CpuSpec = POWER9_CORE, opts: L.EngineOptions | None = None):
        super().__init__(opts if opts is not None else CPU_BASELINE_OPTIONS)
        self.cpu = cpu

    def _model_time(self, rec: KernelLaunch) -> float:
        return cpu_kernel_time(rec, self.cpu)

    def report(self) -> dict[str, float]:
        """CPU breakdown: the baseline performs no packing, so ``PN``
        (which the metered driver emits for the fused correction/pack
        updates) is folded into ``MC`` as plain copies."""
        out = super().report()
        if "PN" in out:
            out["MC"] = out.get("MC", 0.0) + out.pop("PN")
        return out
