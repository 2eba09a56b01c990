"""Detail-coefficient computation and restoration (grid-processing kernels).

At each decomposition step the data on the level-``l`` grid is split into

* the values at the coarse nodes ``N_{l-1}`` and
* *detail coefficients* ``(I - Π_{l-1}) Q_l u`` at the nodes
  ``N_l \\ N_{l-1}``: the difference between the nodal value and its
  multi-linear interpolation from the surrounding coarse nodes.

Because the grid is a tensor product, the multi-linear interpolant
``Π_{l-1}`` factors into a composition of 1D interpolations, one per
*coarsening* dimension.  ``prolong`` applies a single 1D interpolation
along an axis; ``interpolate_coarse`` composes them; ``compute_coefficients``
and ``restore_from_coefficients`` are the forward/inverse grid-processing
kernels of the paper (§III-A.1).

The functions are exact inverses of each other by construction: the
interpolant is evaluated from the *same* coarse nodal values in both
directions, and at coarse positions the prolongation is an exact copy, so
a decompose/recompose round trip is lossless to floating-point rounding.
"""

from __future__ import annotations

import numpy as np

from .grid import LevelOps, TensorHierarchy

__all__ = [
    "prolong",
    "restrict_nodes",
    "interpolate_coarse",
    "compute_coefficients",
    "restore_from_coefficients",
    "zero_coarse_entries",
]


def prolong(vc: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Piecewise-linear prolongation from the coarse to the fine grid.

    The coarse values are copied to their fine positions; each detail
    position receives the linear interpolation of its interval endpoints.
    """
    vc = np.moveaxis(vc, axis, -1)
    if vc.shape[-1] != ops.m_coarse:
        raise ValueError(f"axis length {vc.shape[-1]} does not match m_coarse={ops.m_coarse}")
    out = np.empty(vc.shape[:-1] + (ops.m_fine,), dtype=vc.dtype)
    out[..., ops.coarse_sel] = vc
    if ops.m_detail:
        interp = ops.w_left * vc[..., :-1] + ops.w_right * vc[..., 1:]
        # detail node d sits in interval d // 2, so the intervals holding
        # one are exactly the first m_detail
        out[..., ops.detail_sel] = interp[..., : ops.m_detail]
    return np.moveaxis(out, -1, axis)


def restrict_nodes(v: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Coarse-node values (injection ``N_{l-1} ⊂ N_l``).

    A strided view of ``v`` when the coarse positions are arithmetic
    (odd ``m_fine``), a gathered copy otherwise.
    """
    v = np.moveaxis(v, axis, -1)
    if v.shape[-1] != ops.m_fine:
        raise ValueError(f"axis length {v.shape[-1]} does not match m_fine={ops.m_fine}")
    return np.moveaxis(v[..., ops.coarse_sel], -1, axis)


def _step_ops(hier: TensorHierarchy, l: int) -> list[tuple[int, LevelOps]]:
    """(axis, ops) pairs for every dimension that coarsens at step ``l``."""
    return [(k, hier.level_ops(l, k)) for k in hier.coarsening_dims(l)]


def interpolate_coarse(vc: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Multi-linear interpolation of level-``l-1`` values onto the level-``l`` grid.

    ``vc`` must have the packed shape of level ``l-1``; the result has the
    packed shape of level ``l``.  Dimensions that do not coarsen at this
    step pass through unchanged.
    """
    out = vc
    for axis, ops in _step_ops(hier, l):
        out = prolong(out, ops, axis=axis)
    return out


def compute_coefficients(v: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Detail coefficients of the step ``l -> l-1``.

    Returns a full level-``l``-shaped array ``c = v - Π_{l-1} v`` that is
    exactly zero at the coarse positions (the interpolant reproduces the
    coarse values bit-for-bit), matching the paper's coefficient matrix
    ``C_l`` which "consists of computed coefficients at ``N_l \\ N_{l-1}``
    and zeros at ``N_{l-1}``".
    """
    if v.shape != hier.level_shape(l):
        raise ValueError(f"expected level-{l} shape {hier.level_shape(l)}, got {v.shape}")
    vc = v
    for axis, ops in _step_ops(hier, l):
        vc = restrict_nodes(vc, ops, axis=axis)
    c = v - interpolate_coarse(vc, hier, l)
    return c


def restore_from_coefficients(
    c: np.ndarray, vc: np.ndarray, hier: TensorHierarchy, l: int
) -> np.ndarray:
    """Inverse of :func:`compute_coefficients`.

    Given the detail coefficients ``c`` (level-``l`` shaped, zeros at
    coarse positions) and the restored coarse nodal values ``vc``
    (level-``l-1`` shaped), rebuild the level-``l`` nodal values
    ``v = c + Π_{l-1} vc``.
    """
    if vc.shape != hier.level_shape(l - 1):
        raise ValueError(
            f"expected level-{l - 1} shape {hier.level_shape(l - 1)}, got {vc.shape}"
        )
    v = c + interpolate_coarse(vc, hier, l)
    # Re-inject the coarse values exactly: c may carry noise at coarse
    # positions (e.g. quantization artefacts) that must not leak into the
    # nodal values.
    v[hier.coarse_mesh(l)] = vc
    return v


def zero_coarse_entries(c: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Zero the coarse-position entries of a level-``l`` array in place."""
    c[hier.coarse_mesh(l)] = 0.0
    return c
