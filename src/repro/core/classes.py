"""Coefficient classes: the unit of progressive storage and retrieval.

The refactored representation groups naturally into ``L + 1``
*coefficient classes* (paper §I, Figure 1):

* class 0 — the coarsest nodal values (``N_0``), tiny but carrying the
  bulk structure of the field;
* class ``l`` (``1 ≤ l ≤ L``) — the detail coefficients of the step
  ``l -> l-1``, i.e. the values at ``N_l \\ N_{l-1}``.

Classes are ordered coarse-to-fine: any *prefix* of the sequence can be
stored/transmitted and recomposed into an approximation whose accuracy
improves monotonically with the number of classes (the dropped classes
are treated as zero coefficients, which turns the recomposition into
piecewise-multilinear interpolation from the retained levels).

This module provides the mask bookkeeping, extraction, re-assembly, and
progressive reconstruction.  Sizes in bytes drive the I/O models of
:mod:`repro.io`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import recompose
from .engine import Engine
from .grid import TensorHierarchy, take_copy

__all__ = [
    "num_classes",
    "detail_mask",
    "class_sizes",
    "extract_classes",
    "assemble_from_classes",
    "reconstruct_from_classes",
    "CoefficientClasses",
]


def num_classes(hier: TensorHierarchy) -> int:
    """Number of coefficient classes (``L + 1``)."""
    return hier.L + 1


def detail_mask(hier: TensorHierarchy, l: int) -> np.ndarray:
    """Boolean mask over the packed level-``l`` grid, True at detail nodes.

    A node is a detail node of step ``l`` when at least one coarsening
    dimension places it at an odd (dropped) position.  The mask is
    computed once per hierarchy and returned read-only.
    """
    return hier.detail_mask(l)


def class_sizes(hier: TensorHierarchy) -> list[int]:
    """Number of values in each class, coarse-to-fine."""
    sizes = [hier.num_nodes(0)]
    for l in range(1, hier.L + 1):
        sizes.append(hier.detail_count(l))
    return sizes


def extract_classes(refactored: np.ndarray, hier: TensorHierarchy) -> list[np.ndarray]:
    """Split a refactored array into its coefficient classes.

    Values inside a class keep the C-order of the packed level grid, so
    :func:`assemble_from_classes` can invert the split exactly.
    """
    refactored = hier.validate_array(refactored)
    out = [take_copy(refactored, hier.level_mesh(0)).ravel()]
    for l in range(1, hier.L + 1):
        # boolean indexing copies, so no class aliases ``refactored``
        out.append(refactored[hier.level_mesh(l)][hier.detail_mask(l)])
    return out


def assemble_from_classes(
    classes: list[np.ndarray],
    hier: TensorHierarchy,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Rebuild a refactored array from a *prefix* of coefficient classes.

    Missing (or ``None``) classes are treated as all-zero coefficients.
    The scatter happens fine-to-coarse so that each node ends up holding
    the payload of the coarsest level in which it appears, exactly as
    :func:`repro.core.decompose.decompose` lays the data out.
    """
    if len(classes) > num_classes(hier):
        raise ValueError(
            f"got {len(classes)} classes but hierarchy has only {num_classes(hier)}"
        )
    sizes = class_sizes(hier)
    full = np.zeros(hier.shape, dtype=dtype)
    for l in range(hier.L, 0, -1):
        shape = hier.level_shape(l)
        packed = np.zeros(shape, dtype=dtype)
        if l < len(classes) and classes[l] is not None:
            values = np.asarray(classes[l])
            if values.size != sizes[l]:
                raise ValueError(
                    f"class {l} has {values.size} values, expected {sizes[l]}"
                )
            packed[hier.detail_mask(l)] = values
        full[hier.level_mesh(l)] = packed
    if len(classes) >= 1 and classes[0] is not None:
        base = np.asarray(classes[0])
        if base.size != sizes[0]:
            raise ValueError(f"class 0 has {base.size} values, expected {sizes[0]}")
        full[hier.level_mesh(0)] = base.reshape(hier.level_shape(0))
    return full


def reconstruct_from_classes(
    classes: list[np.ndarray],
    hier: TensorHierarchy,
    engine: Engine | None = None,
) -> np.ndarray:
    """Recompose an approximation from a prefix of coefficient classes."""
    return recompose(assemble_from_classes(classes, hier), hier, engine)


@dataclass
class CoefficientClasses:
    """A refactored dataset split into coefficient classes.

    The handle users move across storage tiers: each class can be stored,
    shipped, or dropped independently; any prefix reconstructs.
    """

    hier: TensorHierarchy
    classes: list[np.ndarray]

    def __post_init__(self) -> None:
        expected = class_sizes(self.hier)
        if len(self.classes) != len(expected):
            raise ValueError(
                f"expected {len(expected)} classes, got {len(self.classes)}"
            )
        for l, (cls, size) in enumerate(zip(self.classes, expected)):
            if cls.size != size:
                raise ValueError(f"class {l} has {cls.size} values, expected {size}")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def nbytes(self, l: int | None = None) -> int:
        """Byte size of class ``l`` (or of all classes when ``None``)."""
        if l is None:
            return sum(c.nbytes for c in self.classes)
        return self.classes[l].nbytes

    def cumulative_bytes(self) -> list[int]:
        """Cumulative byte sizes of class prefixes, coarse-to-fine."""
        out, acc = [], 0
        for c in self.classes:
            acc += c.nbytes
            out.append(acc)
        return out

    def reconstruct(self, k: int | None = None, engine: Engine | None = None) -> np.ndarray:
        """Approximation from the first ``k`` classes (all when ``None``)."""
        if k is None:
            k = self.n_classes
        if not 1 <= k <= self.n_classes:
            raise ValueError(f"k must be in [1, {self.n_classes}], got {k}")
        return reconstruct_from_classes(list(self.classes[:k]), self.hier, engine)
