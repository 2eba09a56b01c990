"""Tridiagonal correction solver (the paper's *solve correction* kernel).

The global correction ``z_{l-1}`` satisfies ``M_{l-1} z = f`` with the
coarse mass matrix ``M_{l-1}`` (symmetric positive definite, tridiagonal).
The paper solves with a Thomas-style forward/backward substitution; we
provide

``solve_correction``
    Batched solve along an arbitrary axis with LAPACK ``dpttrs`` (via
    SciPy) on the precomputed ``dpttrf`` factor ``LDL^T`` of
    :class:`~repro.core.grid.LevelOps`, the production path.  ``dpttrs``
    sweeps every right-hand side in one Fortran loop, with no BLAS call
    per column.

``thomas_solve``
    A literal Thomas-algorithm implementation used by the simulated-GPU
    linear-processing kernels and as an independent cross-check of the
    LAPACK path.  It mirrors the sequential data dependence the paper's
    kernel must respect and the ``O(m)`` extra diagonal buffer the paper
    reports as its only extra memory footprint.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrs

from .grid import LevelOps

__all__ = ["solve_correction", "thomas_solve", "thomas_factor"]


def solve_correction(f: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Solve ``M_{l-1} z = f`` along ``axis`` (batched over other axes).

    Never modifies ``f``.  Raises ``ValueError`` when ``f`` holds infs or
    NaNs: corrupt input fails fast instead of poisoning a refactoring.
    """
    f = np.moveaxis(f, axis, -1)
    m = f.shape[-1]
    if m != ops.m_coarse:
        raise ValueError(f"axis length {m} does not match m_coarse={ops.m_coarse}")
    if not np.isfinite(f).all():
        raise ValueError("array must not contain infs or NaNs")
    if m == 1:
        return np.moveaxis(f / ops.ldl_d[0], -1, axis)
    if f.flags.c_contiguous:
        # Axis last: the (m, nrhs) transpose is an F-contiguous view of
        # the caller's array, which dpttrs copies before solving.
        rhs, owned = f.reshape(-1, m).T, False
    else:
        rhs, owned = np.ascontiguousarray(f).reshape(-1, m).T, True
    z, info = dpttrs(ops.ldl_d, ops.ldl_e, rhs, overwrite_b=owned)
    if info != 0:
        raise ValueError(f"dpttrs failed with info={info}")
    return np.moveaxis(z.T.reshape(f.shape), -1, axis)


def thomas_factor(ops: LevelOps) -> tuple[np.ndarray, np.ndarray]:
    """Precompute the Thomas forward-elimination coefficients.

    Returns ``(cp, denom)`` where ``cp[i]`` is the modified superdiagonal
    and ``denom[i]`` the modified pivot, both of length ``m_coarse``.
    These depend only on the grid coordinates, so the paper precomputes
    (or streams) them; the ``O(m)`` pivot buffer is exactly the "extra
    memory footprint" the paper quantifies for this kernel.
    """
    bands = ops.mass_bands_coarse
    m = bands.shape[1]
    lower = bands[0, 1:]  # symmetric: sub-diagonal equals super-diagonal
    diag = bands[1]
    upper = bands[0, 1:]
    cp = np.zeros(m, dtype=np.float64)
    denom = np.zeros(m, dtype=np.float64)
    denom[0] = diag[0]
    if m > 1:
        cp[0] = upper[0] / diag[0]
        for i in range(1, m):
            denom[i] = diag[i] - lower[i - 1] * cp[i - 1]
            if i < m - 1:
                cp[i] = upper[i] / denom[i]
    return cp, denom


def thomas_solve(f: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Batched Thomas solve of ``M_{l-1} z = f`` along ``axis``.

    A straightforward forward-elimination / back-substitution with the
    sequential dependence along the solve axis vectorized over the batch,
    matching the structure of the paper's linear-processing solver kernel.
    """
    f = np.moveaxis(f, axis, -1).astype(np.float64, copy=True)
    m = f.shape[-1]
    if m != ops.m_coarse:
        raise ValueError(f"axis length {m} does not match m_coarse={ops.m_coarse}")
    if m == 1:
        return np.moveaxis(f / ops.mass_bands_coarse[1, 0], -1, axis)
    lower = ops.mass_bands_coarse[0, 1:]
    cp, denom = thomas_factor(ops)
    f[..., 0] /= denom[0]
    for i in range(1, m):
        f[..., i] = (f[..., i] - lower[i - 1] * f[..., i - 1]) / denom[i]
    for i in range(m - 2, -1, -1):
        f[..., i] -= cp[i] * f[..., i + 1]
    return np.moveaxis(f, -1, axis)
