"""Decomposition and recomposition drivers (paper Algorithm 3).

``decompose`` walks the hierarchy from the finest grid (global level
``L``) down to the coarsest (level 0).  At every step it

1. computes the detail coefficients of the current grid,
2. scatters them into the output array at the finest-grid positions of
   the current level's nodes (coarser levels will overwrite the subset
   of positions they own, so after the loop every position holds exactly
   the payload of the *coarsest* level in which it appears — detail
   coefficients for detail nodes, nodal values for the final coarse
   nodes; this matches the in-place layout of the paper's Figure 3),
3. computes the global correction from the coefficients and adds it to
   the coarse nodal values, which become the next iteration's grid.

``recompose`` inverts the walk: from the coarsest nodal values upward it
recomputes the (deterministic) correction from the stored coefficients,
subtracts it to recover the coarse values as they were *before* the
correction, and restores the fine nodal values from the coefficients.
With all coefficients intact the round trip is bit-tight (≤ a few ulps).

The drivers never mutate their input; they allocate one output array and
one working buffer exactly like the paper's design ("the size of working
memory space is equal to the original input size").
"""

from __future__ import annotations

import numpy as np

from . import coefficients as _coef
from .correction import compute_correction
from .engine import Engine, NumpyEngine
from .grid import TensorHierarchy

__all__ = ["decompose", "recompose", "restrict_all"]


def restrict_all(v: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Gather level-``l-1`` nodal values out of a packed level-``l`` array."""
    out = v
    for axis in hier.coarsening_dims(l):
        out = _coef.restrict_nodes(out, hier.level_ops(l, axis), axis=axis)
    return out


def decompose(
    data: np.ndarray,
    hier: TensorHierarchy | None = None,
    engine: Engine | None = None,
) -> np.ndarray:
    """Refactor ``data`` into its multilevel coefficient representation.

    Returns an array of the same shape holding, at each node, the detail
    coefficient of the level at which the node leaves the hierarchy (or
    the corrected nodal value for the coarsest nodes).
    """
    if hier is None:
        hier = TensorHierarchy.from_shape(data.shape)
    if engine is None:
        engine = NumpyEngine()
    data = hier.validate_array(data)
    engine.begin("decompose", hier)
    try:
        out = engine.copy(data, reason="output", level=hier.L)
        if hier.L == 0:
            return out
        v = engine.pack(out, hier.level_mesh(hier.L), reason="pack-finest", level=hier.L)
        for l in range(hier.L, 0, -1):
            c = engine.compute_coefficients(v, hier, l)
            # Persist this level's coefficients; the coarse-position zeros
            # are overwritten by the coarser levels' scatters below.
            engine.unpack(c, out, hier.level_mesh(l), reason="store-coefficients", level=l)
            z = compute_correction(c, hier, l, engine)
            v = engine.add_correction(v, z, hier, l)
        engine.unpack(v, out, hier.level_mesh(0), reason="store-coarsest", level=0)
        return out
    finally:
        engine.end("decompose")


def recompose(
    refactored: np.ndarray,
    hier: TensorHierarchy | None = None,
    engine: Engine | None = None,
) -> np.ndarray:
    """Invert :func:`decompose`, reconstructing the original nodal values."""
    if hier is None:
        hier = TensorHierarchy.from_shape(refactored.shape)
    if engine is None:
        engine = NumpyEngine()
    refactored = hier.validate_array(refactored)
    engine.begin("recompose", hier)
    try:
        out = engine.copy(refactored, reason="output", level=hier.L)
        if hier.L == 0:
            return out
        v = engine.pack(refactored, hier.level_mesh(0), reason="pack-coarsest", level=0)
        for l in range(1, hier.L + 1):
            c = engine.pack(
                refactored, hier.level_mesh(l), reason="pack-coefficients", level=l
            )
            # Coarse positions of this packed read carry the payloads of
            # coarser levels (already consumed); the coefficient array used
            # for the correction must be zero there (paper: C_l has zeros
            # at N_{l-1}).
            c = _coef.zero_coarse_entries(c, hier, l)
            z = compute_correction(c, hier, l, engine)
            vc = engine.subtract_correction(v, z, hier, l)
            v = engine.restore_from_coefficients(c, vc, hier, l)
        engine.unpack(v, out, hier.level_mesh(hier.L), reason="store-restored", level=hier.L)
        return out
    finally:
        engine.end("recompose")
