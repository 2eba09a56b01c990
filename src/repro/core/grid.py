"""Grid hierarchies for multigrid-based data refactoring.

The refactoring algorithms of Ainsworth et al. (the algorithmic core of
MGARD, and the algorithms GPU-accelerated by Chen et al., IPDPS 2021)
operate on *tensor-product* grids: a d-dimensional structured grid whose
node coordinates are the Cartesian product of d one-dimensional coordinate
arrays.  The coordinates may be non-uniformly spaced.

Each dimension carries its own *level hierarchy*: a nested family of index
sets ``N_0 ⊂ N_1 ⊂ … ⊂ N_L`` where ``N_L`` is the full index range of the
dimension.  The paper evaluates grids whose per-dimension size is
``2^L + 1``, in which case ``N_l`` contains every ``2^(L-l)``-th node and
``|N_l| = 2^l + 1``.  This module generalizes that construction to *any*
size ``n ≥ 1`` via the reduction ``n_{l-1} = floor(n_l / 2) + 1``: the
coarse set keeps the even-position nodes and, when the level size is even,
additionally keeps the final node so that every dropped (detail) node has
a coarse neighbour on both sides.  For dyadic sizes this reduces exactly
to the paper's hierarchy; for other sizes it plays the role of the
"special pre-processing decomposition" the paper alludes to in §IV.

Two classes are exported:

``Hierarchy1D``
    The per-dimension hierarchy: level sizes, per-level index sets (as
    indices into the finest array and as strided-view selectors),
    per-level coordinates, and the precomputed :class:`LevelOps` operator
    data (interpolation weights, mass-matrix spacings, tridiagonal
    ``LDL^T`` factors) used by every kernel.

``TensorHierarchy``
    A d-dimensional bundle of ``Hierarchy1D`` with a single *global* level
    counter.  Dimensions with shallower hierarchies simply stop coarsening
    once they reach their coarsest size (the standard MGARD convention),
    which this class encodes via :meth:`TensorHierarchy.dim_level`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpttrf

__all__ = [
    "LevelOps",
    "Hierarchy1D",
    "TensorHierarchy",
    "dyadic_size",
    "hierarchy_for",
    "clear_hierarchy_cache",
    "hierarchy_cache_stats",
    "num_levels_for_size",
    "take_copy",
]


def dyadic_size(L: int) -> int:
    """Return the per-dimension size ``2**L + 1`` used throughout the paper."""
    if L < 0:
        raise ValueError(f"level count must be non-negative, got {L}")
    return (1 << L) + 1


def num_levels_for_size(n: int) -> int:
    """Number of coarsening steps ``L`` for a dimension of size ``n``.

    Repeatedly applies ``n <- floor(n/2) + 1`` until the size no longer
    decreases (i.e. ``n <= 2``).  For ``n = 2^L + 1`` this returns ``L``.
    """
    if n < 1:
        raise ValueError(f"dimension size must be >= 1, got {n}")
    L = 0
    while n > 2:
        n = n // 2 + 1
        L += 1
    return L


def _selector(idx: np.ndarray) -> slice | np.ndarray:
    """The basic slice selecting ``idx``, or ``idx`` itself when it is not arithmetic.

    Every level node set of a dyadic dimension, and the coarse and
    per-interval detail positions of every odd-length level, are
    arithmetic progressions: indexing with the slice is a strided view
    instead of a gather.  The other sets (even level sizes of non-dyadic
    dimensions) keep the exact index array.  Results are identical either
    way; only the memory traffic differs.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if idx.shape[0] == 0:
        return slice(0, 0)
    start = int(idx[0])
    step = int(idx[1] - idx[0]) if idx.shape[0] > 1 else 1
    if step > 0 and np.array_equal(idx, np.arange(start, int(idx[-1]) + 1, step)):
        return slice(start, int(idx[-1]) + 1, step)
    return idx


def _outer_indexer(selectors, shape: tuple[int, ...]) -> tuple:
    """Indexer for the outer product of per-axis :func:`_selector` values.

    Slices give a strided view.  With one index array among them NumPy's
    mixed indexing already selects the outer product in axis order; two
    or more arrays need an ``np.ix_`` open mesh.
    """
    selectors = tuple(selectors)
    if sum(not isinstance(s, slice) for s in selectors) < 2:
        return selectors
    return np.ix_(*(
        np.arange(n, dtype=np.intp)[s] if isinstance(s, slice) else s
        for s, n in zip(selectors, shape)
    ))


def take_copy(a: np.ndarray, index) -> np.ndarray:
    """``a[index]`` as an array that never aliases ``a``.

    A gather already returns a fresh array; a strided view is copied.
    """
    out = a[index]
    return out.copy() if np.may_share_memory(out, a) else out


@dataclass(frozen=True)
class LevelOps:
    """Precomputed per-(dimension, level) operator data.

    All arrays refer to the *packed* level-``l`` grid of size ``m_fine``
    (the nodes of ``N_l`` gathered contiguously) and its coarse subset of
    size ``m_coarse`` (the nodes of ``N_{l-1}``).

    Attributes
    ----------
    x_fine:
        Coordinates of the level-``l`` nodes, shape ``(m_fine,)``.
    x_coarse:
        Coordinates of the level-``l-1`` nodes, shape ``(m_coarse,)``.
    coarse_pos:
        Positions of the coarse nodes inside the packed fine array,
        shape ``(m_coarse,)``; always ``[0, 2, 4, …]`` plus, when
        ``m_fine`` is even, the trailing index ``m_fine - 1``.
    detail_pos:
        Positions of the detail nodes ``N_l \\ N_{l-1}`` inside the packed
        fine array, shape ``(m_detail,)``.
    has_detail:
        Boolean per coarse *interval* ``[coarse_pos[j], coarse_pos[j+1]]``,
        true when the interval contains an interior detail node.  Shape
        ``(m_coarse - 1,)``.
    interval_detail:
        Per-interval detail position (clipped to a valid index when the
        interval has none; mask with ``has_detail``), shape
        ``(m_coarse - 1,)``.
    w_left / w_right:
        Linear interpolation weights of each interval's detail node with
        respect to the interval's left/right coarse endpoints:
        ``u[d] ≈ w_left * u[jl] + w_right * u[jr]``.  The same weights are
        the entries of the transfer matrix ``R = P^T``.  Entries of
        intervals without a detail node are zero.
    h_fine:
        Spacings of the fine grid, ``h_fine[i] = x_fine[i+1] - x_fine[i]``,
        shape ``(m_fine - 1,)``.
    h_coarse:
        Spacings of the coarse grid, shape ``(m_coarse - 1,)``.
    mass_bands_coarse:
        The coarse mass matrix in LAPACK upper-banded form (shape
        ``(2, m_coarse)``): row 0 the superdiagonal shifted right by one,
        row 1 the main diagonal.
    ldl_d / ldl_e:
        ``LDL^T`` factor of the coarse mass matrix from LAPACK ``dpttrf``
        (``D`` diagonal, shape ``(m_coarse,)``; unit-``L`` subdiagonal,
        shape ``(m_coarse - 1,)``), the input of ``dpttrs`` in
        :func:`repro.core.solver.solve_correction`.  Precomputed once
        because the matrix depends only on coordinates.
    coarse_sel / interval_sel / detail_sel:
        :func:`_selector` forms of ``coarse_pos``, ``interval_detail`` and
        ``detail_pos``: basic slices where the positions are arithmetic
        (always for ``detail_pos``; for the other two when ``m_fine`` is
        odd), the index arrays otherwise.
    """

    x_fine: np.ndarray
    x_coarse: np.ndarray
    coarse_pos: np.ndarray
    detail_pos: np.ndarray
    has_detail: np.ndarray
    interval_detail: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    h_fine: np.ndarray
    h_coarse: np.ndarray
    mass_bands_coarse: np.ndarray
    ldl_d: np.ndarray
    ldl_e: np.ndarray
    coarse_sel: slice | np.ndarray
    interval_sel: slice | np.ndarray
    detail_sel: slice | np.ndarray

    @property
    def m_fine(self) -> int:
        return int(self.x_fine.shape[0])

    @property
    def m_coarse(self) -> int:
        return int(self.x_coarse.shape[0])

    @property
    def m_detail(self) -> int:
        return int(self.detail_pos.shape[0])


def _coarse_positions(m_fine: int) -> np.ndarray:
    """Local positions kept by one coarsening step of a packed array."""
    pos = np.arange(0, m_fine, 2, dtype=np.intp)
    if m_fine % 2 == 0:
        pos = np.concatenate([pos, np.asarray([m_fine - 1], dtype=np.intp)])
    return pos


def _mass_bands(x: np.ndarray) -> np.ndarray:
    """Non-uniform P1 finite-element mass matrix in upper banded form.

    The matrix is tridiagonal with rows (interior node ``i``)::

        M[i, i-1] = h_i / 6
        M[i, i]   = (h_i + h_{i+1}) / 3
        M[i, i+1] = h_{i+1} / 6

    and the natural halved diagonal at the two boundary nodes.  Banded
    storage follows LAPACK convention: row 0 holds the superdiagonal
    (shifted right by one), row 1 holds the main diagonal.
    """
    m = x.shape[0]
    bands = np.zeros((2, m), dtype=np.float64)
    if m == 1:
        bands[1, 0] = 1.0  # degenerate single-node "mass"; keeps solves well-posed
        return bands
    h = np.diff(x).astype(np.float64)
    if np.any(h <= 0):
        raise ValueError("grid coordinates must be strictly increasing")
    diag = np.zeros(m, dtype=np.float64)
    diag[:-1] += h / 3.0
    diag[1:] += h / 3.0
    bands[1, :] = diag
    bands[0, 1:] = h / 6.0
    return bands


def _ldl_factor(bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``LDL^T`` factor ``(d, e)`` of an SPD tridiagonal matrix in upper banded form."""
    d, e = bands[1].copy(), bands[0, 1:].copy()
    if d.shape[0] == 1:
        return d, e  # 1x1: D is the matrix itself
    d, e, info = dpttrf(d, e, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise ValueError(f"coarse mass matrix is not positive definite (dpttrf info={info})")
    return d, e


def _build_level_ops(x_fine: np.ndarray) -> LevelOps:
    """Construct :class:`LevelOps` for one coarsening step of coordinates."""
    m_fine = x_fine.shape[0]
    coarse_pos = _coarse_positions(m_fine)
    keep = np.zeros(m_fine, dtype=bool)
    keep[coarse_pos] = True
    detail_pos = np.nonzero(~keep)[0].astype(np.intp)
    x_coarse = x_fine[coarse_pos]

    n_int = coarse_pos.shape[0] - 1
    has_detail = np.zeros(n_int, dtype=bool)
    interval_detail = np.zeros(n_int, dtype=np.intp)
    w_left = np.zeros(n_int, dtype=np.float64)
    w_right = np.zeros(n_int, dtype=np.float64)
    # With this hierarchy every interval holds zero or one detail node and
    # detail node d sits in interval j = d // 2.
    if detail_pos.shape[0]:
        j = detail_pos // 2
        has_detail[j] = True
        interval_detail[j] = detail_pos
        xl = x_fine[coarse_pos[j]]
        xr = x_fine[coarse_pos[j + 1]]
        xd = x_fine[detail_pos]
        denom = xr - xl
        w_left[j] = (xr - xd) / denom
        w_right[j] = (xd - xl) / denom

    bands = _mass_bands(x_coarse)
    ldl_d, ldl_e = _ldl_factor(bands)
    h_fine = np.diff(x_fine).astype(np.float64) if m_fine > 1 else np.zeros(0)
    h_coarse = np.diff(x_coarse).astype(np.float64) if x_coarse.shape[0] > 1 else np.zeros(0)
    return LevelOps(
        x_fine=np.asarray(x_fine, dtype=np.float64),
        x_coarse=np.asarray(x_coarse, dtype=np.float64),
        coarse_pos=coarse_pos,
        detail_pos=detail_pos,
        has_detail=has_detail,
        interval_detail=interval_detail,
        w_left=w_left,
        w_right=w_right,
        h_fine=h_fine,
        h_coarse=h_coarse,
        mass_bands_coarse=bands,
        ldl_d=ldl_d,
        ldl_e=ldl_e,
        coarse_sel=_selector(coarse_pos),
        interval_sel=_selector(interval_detail),
        detail_sel=_selector(detail_pos),
    )


class Hierarchy1D:
    """Level hierarchy of a single dimension.

    Parameters
    ----------
    coords:
        Strictly increasing coordinates of the finest grid, shape ``(n,)``.
        Pass ``None`` with ``size=n`` for a uniform grid on ``[0, 1]``.
    size:
        Alternative to ``coords``: build a uniform grid with ``size`` nodes.
    """

    def __init__(self, coords: np.ndarray | None = None, *, size: int | None = None):
        if coords is None:
            if size is None:
                raise ValueError("provide either coords or size")
            if size < 1:
                raise ValueError(f"dimension size must be >= 1, got {size}")
            coords = np.linspace(0.0, 1.0, size) if size > 1 else np.zeros(1)
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError("coordinates must be one-dimensional")
        if coords.shape[0] > 1 and np.any(np.diff(coords) <= 0):
            raise ValueError("coordinates must be strictly increasing")
        self.coords = coords
        self.n = int(coords.shape[0])
        self.L = num_levels_for_size(self.n)

        # index[l] = finest-grid indices of the level-l node set N_l.
        index: list[np.ndarray] = [np.arange(self.n, dtype=np.intp)]
        ops: list[LevelOps] = []
        cur = coords
        cur_idx = index[0]
        for _ in range(self.L):
            lops = _build_level_ops(cur)
            ops.append(lops)
            cur_idx = cur_idx[lops.coarse_pos]
            cur = cur[lops.coarse_pos]
            index.append(cur_idx)
        index.reverse()  # index[0] = coarsest, index[L] = finest
        ops.reverse()  # ops[l-1] describes the step from level l to l-1
        self._index = index
        self._select = [_selector(idx) for idx in index]
        self._ops = ops

    # ------------------------------------------------------------------
    def size(self, l: int) -> int:
        """Number of nodes at local level ``l`` (0 = coarsest, L = finest)."""
        return int(self._index[self._check_level(l)].shape[0])

    def index(self, l: int) -> np.ndarray:
        """Finest-grid indices of the level-``l`` node set ``N_l``."""
        return self._index[self._check_level(l)]

    def select(self, l: int) -> slice | np.ndarray:
        """:meth:`index` as a basic slice when it is arithmetic (always for
        dyadic sizes), else the index array itself."""
        return self._select[self._check_level(l)]

    def level_coords(self, l: int) -> np.ndarray:
        """Coordinates of the level-``l`` nodes."""
        return self.coords[self.index(l)]

    def ops(self, l: int) -> LevelOps:
        """Operator data for the coarsening step ``l -> l-1`` (``1 <= l <= L``)."""
        if not 1 <= l <= self.L:
            raise ValueError(f"ops defined for levels 1..{self.L}, got {l}")
        return self._ops[l - 1]

    def _check_level(self, l: int) -> int:
        if not 0 <= l <= self.L:
            raise ValueError(f"level must be in [0, {self.L}], got {l}")
        return l

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hierarchy1D(n={self.n}, L={self.L})"


@dataclass
class TensorHierarchy:
    """A d-dimensional tensor-product hierarchy with a global level counter.

    The *global* number of levels is ``L = max_k L_k``.  At global level
    ``l`` a dimension ``k`` sits at its local level
    ``max(l - (L - L_k), 0)``: the deepest dimensions coarsen at every
    step while shallower dimensions join in once the global level has
    descended to their range and then stay at their coarsest size.
    """

    dims: tuple[Hierarchy1D, ...]
    _shape_cache: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # Indexers of every level, fixed by the geometry: strided views
        # where the index sets are arithmetic, exact gathers elsewhere.
        self._level_meshes = tuple(
            _outer_indexer(
                (d.select(self.dim_level(l, k)) for k, d in enumerate(self.dims)), self.shape
            )
            for l in range(self.L + 1)
        )
        self._coarse_meshes = (None,) + tuple(
            _outer_indexer(
                (
                    self.level_ops(l, k).coarse_sel if self.coarsens(l, k) else slice(None)
                    for k in range(self.ndim)
                ),
                self.level_shape(l),
            )
            for l in range(1, self.L + 1)
        )
        self._detail_masks: dict[int, np.ndarray] = {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_shape(
        cls,
        shape: tuple[int, ...],
        coords: tuple[np.ndarray | None, ...] | None = None,
    ) -> "TensorHierarchy":
        """Build a hierarchy for an array of the given shape.

        ``coords`` optionally supplies non-uniform coordinates per
        dimension (``None`` entries default to uniform on ``[0, 1]``).
        """
        if len(shape) == 0:
            raise ValueError("shape must have at least one dimension")
        if coords is None:
            coords = tuple(None for _ in shape)
        if len(coords) != len(shape):
            raise ValueError("coords must match shape length")
        dims = []
        for n, c in zip(shape, coords):
            if c is not None and len(c) != n:
                raise ValueError(f"coordinate array of length {len(c)} does not match dim {n}")
            dims.append(Hierarchy1D(c, size=n) if c is not None else Hierarchy1D(size=n))
        return cls(dims=tuple(dims))

    # -- basic queries ---------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.n for d in self.dims)

    @cached_property
    def L(self) -> int:
        """Global number of coarsening levels."""
        return max(d.L for d in self.dims)

    def dim_level(self, l: int, k: int) -> int:
        """Local level of dimension ``k`` at global level ``l``."""
        if not 0 <= l <= self.L:
            raise ValueError(f"global level must be in [0, {self.L}], got {l}")
        dk = self.dims[k]
        return max(l - (self.L - dk.L), 0)

    def coarsens(self, l: int, k: int) -> bool:
        """True when dimension ``k`` coarsens at the step ``l -> l-1``."""
        return self.dim_level(l, k) >= 1

    def level_shape(self, l: int) -> tuple[int, ...]:
        """Packed grid shape at global level ``l``."""
        if l not in self._shape_cache:
            self._shape_cache[l] = tuple(
                d.size(self.dim_level(l, k)) for k, d in enumerate(self.dims)
            )
        return self._shape_cache[l]

    def level_indices(self, l: int) -> tuple[np.ndarray, ...]:
        """Finest-grid index arrays (one per dim) of the level-``l`` node set."""
        return tuple(d.index(self.dim_level(l, k)) for k, d in enumerate(self.dims))

    def level_mesh(self, l: int) -> tuple:
        """Indexer of the level-``l`` node set inside the finest grid.

        ``full[hier.level_mesh(l)]`` equals ``full[np.ix_(*hier.level_indices(l))]``;
        it is a strided view when every dimension's set is arithmetic.
        """
        if not 0 <= l <= self.L:
            raise ValueError(f"global level must be in [0, {self.L}], got {l}")
        return self._level_meshes[l]

    def coarse_mesh(self, l: int) -> tuple:
        """Indexer of the level-``l-1`` nodes inside the packed level-``l`` grid.

        Dimensions that do not coarsen at step ``l`` are taken whole, so
        the selection always has the packed shape of level ``l - 1``.
        """
        if not 1 <= l <= self.L:
            raise ValueError(f"coarse meshes exist for levels 1..{self.L}, got {l}")
        return self._coarse_meshes[l]

    def detail_mask(self, l: int) -> np.ndarray:
        """Read-only boolean mask over the packed level-``l`` grid, True at
        detail nodes (see :func:`repro.core.classes.detail_mask`); built on
        first use."""
        if not 1 <= l <= self.L:
            raise ValueError(f"detail masks exist for levels 1..{self.L}, got {l}")
        mask = self._detail_masks.get(l)
        if mask is None:
            mask = np.ones(self.level_shape(l), dtype=bool)
            mask[self.coarse_mesh(l)] = False
            mask.flags.writeable = False
            self._detail_masks[l] = mask
        return mask

    def level_ops(self, l: int, k: int) -> LevelOps:
        """Operator data for dimension ``k`` at the step ``l -> l-1``.

        Only valid when :meth:`coarsens` is true for ``(l, k)``.
        """
        lk = self.dim_level(l, k)
        if lk < 1:
            raise ValueError(f"dimension {k} does not coarsen at global level {l}")
        return self.dims[k].ops(lk)

    def coarsening_dims(self, l: int) -> tuple[int, ...]:
        """Dimensions that actually coarsen at the step ``l -> l-1``."""
        return tuple(k for k in range(self.ndim) if self.coarsens(l, k))

    def level_stride(self, l: int, k: int) -> int:
        """Index stride of the level-``l`` node set of dim ``k`` in the finest grid.

        For dyadic sizes this is ``2^(L_k - l_k)``: the distance (in array
        elements along that dimension) between neighbouring level-``l``
        nodes when the data is stored *unpacked* at full resolution.  The
        CPU baseline and the "naive" GPU design pay this stride on every
        access; the paper's packed designs reduce it to 1.
        """
        idx = self.dims[k].index(self.dim_level(l, k))
        if idx.shape[0] < 2:
            return 1
        return int(idx[1] - idx[0])

    def num_nodes(self, l: int) -> int:
        """Total node count of the packed level-``l`` grid."""
        out = 1
        for s in self.level_shape(l):
            out *= s
        return out

    def detail_count(self, l: int) -> int:
        """Number of detail nodes ``N_l \\ N_{l-1}`` at the step ``l -> l-1``."""
        if not 1 <= l <= self.L:
            raise ValueError(f"detail levels are 1..{self.L}, got {l}")
        return self.num_nodes(l) - self.num_nodes(l - 1)

    def validate_array(self, data: np.ndarray) -> np.ndarray:
        """Check that ``data`` matches this hierarchy and return it as float."""
        if data.shape != self.shape:
            raise ValueError(f"data shape {data.shape} does not match hierarchy {self.shape}")
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(np.float64)
        return data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TensorHierarchy(shape={self.shape}, L={self.L})"


# ----------------------------------------------------------------------
# shared hierarchy cache
#
# Building a TensorHierarchy precomputes every level's interpolation
# weights, banded mass matrices, and LDL^T factors — work that
# depends only on (shape, coordinates).  Streaming and multi-field
# workloads compress thousands of same-shape arrays, so the hierarchy is
# memoized here and shared by Refactorer, the compression plans, and the
# file/stream readers.


class _LruCache:
    """Thread-safe LRU memo with hit/miss counters.

    Shared by the hierarchy cache here and the plan cache in
    :mod:`repro.compress.plan`.  Concurrent misses may both build a
    value; last writer wins, which is harmless for immutable entries.
    """

    def __init__(self, max_entries: int):
        self._data: OrderedDict = OrderedDict()
        self._max = int(max_entries)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
                self._hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._misses += 1
            self._data[key] = value
            while len(self._data) > self._max:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._hits = self._misses = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._data),
                "hits": self._hits,
                "misses": self._misses,
            }


_HIER_CACHE = _LruCache(max_entries=128)


def _coords_key(coords) -> tuple | None:
    if coords is None:
        return None
    return tuple(
        None if c is None else np.ascontiguousarray(c, dtype=np.float64).tobytes()
        for c in coords
    )


def hierarchy_for(
    shape: tuple[int, ...],
    coords: tuple[np.ndarray | None, ...] | None = None,
) -> TensorHierarchy:
    """A shared, cached :class:`TensorHierarchy` for one grid geometry.

    Equivalent to :meth:`TensorHierarchy.from_shape` but memoized on
    (shape, coordinate values) with LRU eviction, so repeated
    compress/decompress of same-shape fields skips all per-geometry
    setup.  Callers must treat the returned hierarchy as immutable.
    """
    key = (tuple(int(s) for s in shape), _coords_key(coords))
    hier = _HIER_CACHE.get(key)
    if hier is None:
        hier = TensorHierarchy.from_shape(tuple(shape), coords)
        _HIER_CACHE.put(key, hier)
    return hier


def clear_hierarchy_cache() -> None:
    """Drop all cached hierarchies (and reset the hit/miss counters)."""
    _HIER_CACHE.clear()


def hierarchy_cache_stats() -> dict:
    """Snapshot of the hierarchy cache: entries, hits, misses."""
    return _HIER_CACHE.stats()
