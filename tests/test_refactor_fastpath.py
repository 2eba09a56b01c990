"""The production refactor kernels against index-gather and dense references.

Part 1: the strided level views (basic slices where a level's index set
is arithmetic, an exact gather where it is not) move data exactly like
the ``np.ix_`` / fancy-index formulation they replaced, bit for bit.

Part 2: the ``dpttrs`` correction solve matches a dense solve on every
axis, leaves its input alone and rejects non-finite input.
"""

from functools import reduce

import numpy as np
import pytest

from repro.core.classes import assemble_from_classes, extract_classes
from repro.core.coefficients import (
    prolong,
    restore_from_coefficients,
    restrict_nodes,
    zero_coarse_entries,
)
from repro.core.decompose import decompose, recompose
from repro.core.engine import NumpyEngine
from repro.core.grid import Hierarchy1D, TensorHierarchy, _build_level_ops
from repro.core.mass import dense_mass_matrix
from repro.core.solver import solve_correction
from repro.core.transfer import transfer_apply

from conftest import nonuniform_coords


# ----------------------------------------------------------------------
# index-gather references (the formulation the strided views replaced)


def _ref_restrict_nodes(v, ops, axis):
    v = np.moveaxis(v, axis, -1)
    return np.moveaxis(v[..., ops.coarse_pos], -1, axis)


def _ref_prolong(vc, ops, axis):
    vc = np.moveaxis(vc, axis, -1)
    out = np.empty(vc.shape[:-1] + (ops.m_fine,), dtype=vc.dtype)
    out[..., ops.coarse_pos] = vc
    if ops.m_detail:
        interp = ops.w_left * vc[..., :-1] + ops.w_right * vc[..., 1:]
        out[..., ops.interval_detail[ops.has_detail]] = interp[..., ops.has_detail]
    return np.moveaxis(out, -1, axis)


def _ref_transfer(f, ops, axis):
    f = np.moveaxis(f, axis, -1)
    out = f[..., ops.coarse_pos].copy()
    if ops.m_detail:
        detail_vals = f[..., ops.interval_detail]
        out[..., :-1] += ops.w_left * detail_vals
        out[..., 1:] += ops.w_right * detail_vals
    return np.moveaxis(out, -1, axis)


def _ref_coarse_mesh(hier, l):
    return np.ix_(*(
        hier.level_ops(l, k).coarse_pos if hier.coarsens(l, k) else np.arange(n)
        for k, n in enumerate(hier.level_shape(l))
    ))


def _ref_restore(c, vc, hier, l):
    interp = vc
    for k in hier.coarsening_dims(l):
        interp = _ref_prolong(interp, hier.level_ops(l, k), k)
    v = c + interp
    v[_ref_coarse_mesh(hier, l)] = vc
    return v


def _ref_detail_mask(hier, l):
    shape = hier.level_shape(l)
    per_dim = []
    for k, n in enumerate(shape):
        coarse = np.ones(n, dtype=bool)
        if hier.coarsens(l, k):
            coarse[:] = False
            coarse[hier.level_ops(l, k).coarse_pos] = True
        per_dim.append(coarse.reshape(tuple(-1 if i == k else 1 for i in range(len(shape)))))
    return ~np.broadcast_to(reduce(np.logical_and, per_dim), shape)


def _ref_extract(refactored, hier):
    out = [refactored[np.ix_(*hier.level_indices(0))].ravel()]
    for l in range(1, hier.L + 1):
        packed = refactored[np.ix_(*hier.level_indices(l))]
        out.append(packed[_ref_detail_mask(hier, l)])
    return out


def _ref_assemble(classes, hier):
    full = np.zeros(hier.shape)
    for l in range(hier.L, 0, -1):
        packed = np.zeros(hier.level_shape(l))
        if l < len(classes):
            packed[_ref_detail_mask(hier, l)] = classes[l]
        full[np.ix_(*hier.level_indices(l))] = packed
    full[np.ix_(*hier.level_indices(0))] = classes[0].reshape(hier.level_shape(0))
    return full


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_bit_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(_bits(a), _bits(b))


# ----------------------------------------------------------------------
# part 1: strided level views


def _hier(case):
    shape, nonuniform = case
    coords = nonuniform_coords(shape, np.random.default_rng(7)) if nonuniform else None
    return TensorHierarchy.from_shape(shape, coords)


HIER_CASES = [
    ((65, 65, 65), False),
    ((129, 129), False),
    ((100, 37), False),
    ((12, 7, 6), False),
    ((33, 20), True),
    ((17, 9, 5), True),
]
HIER_IDS = ["65^3", "129^2", "100x37", "12x7x6", "33x20-nonuniform", "17x9x5-nonuniform"]


@pytest.fixture(params=HIER_CASES, ids=HIER_IDS)
def hier(request):
    return _hier(request.param)


class TestStridedViews:
    def test_selectors_are_slices_on_dyadic_levels(self):
        h = Hierarchy1D(size=129)
        for l in range(h.L + 1):
            assert isinstance(h.select(l), slice)
            np.testing.assert_array_equal(np.arange(129)[h.select(l)], h.index(l))
            if l:
                ops = h.ops(l)
                for sel in (ops.coarse_sel, ops.interval_sel, ops.detail_sel):
                    assert isinstance(sel, slice)

    def test_even_levels_keep_the_exact_gather(self):
        ops = Hierarchy1D(size=100).ops(Hierarchy1D(size=100).L)
        assert ops.m_fine == 100
        np.testing.assert_array_equal(ops.coarse_sel, ops.coarse_pos)
        np.testing.assert_array_equal(ops.interval_sel, ops.interval_detail)

    def test_pack_unpack(self, hier, rng):
        eng = NumpyEngine()
        full = rng.standard_normal(hier.shape)
        for l in range(hier.L + 1):
            ref = full[np.ix_(*hier.level_indices(l))]
            packed = eng.pack(full, hier.level_mesh(l))
            _assert_bit_equal(packed, ref)
            assert not np.shares_memory(packed, full)
            values = rng.standard_normal(ref.shape)
            a, b = full.copy(), full.copy()
            eng.unpack(values, a, hier.level_mesh(l))
            b[np.ix_(*hier.level_indices(l))] = values
            _assert_bit_equal(a, b)

    def test_per_axis_kernels(self, hier, rng):
        for l in range(1, hier.L + 1):
            shape = hier.level_shape(l)
            for k in hier.coarsening_dims(l):
                ops = hier.level_ops(l, k)
                v = rng.standard_normal(shape)
                _assert_bit_equal(restrict_nodes(v, ops, k), _ref_restrict_nodes(v, ops, k))
                _assert_bit_equal(transfer_apply(v, ops, k), _ref_transfer(v, ops, k))
                vc = _ref_restrict_nodes(v, ops, k)
                _assert_bit_equal(prolong(vc, ops, k), _ref_prolong(vc, ops, k))

    def test_zero_coarse_and_restore(self, hier, rng):
        for l in range(1, hier.L + 1):
            c = rng.standard_normal(hier.level_shape(l))
            vc = rng.standard_normal(hier.level_shape(l - 1))
            ref = c.copy()
            ref[_ref_coarse_mesh(hier, l)] = 0.0
            _assert_bit_equal(zero_coarse_entries(c.copy(), hier, l), ref)
            _assert_bit_equal(
                restore_from_coefficients(c, vc, hier, l), _ref_restore(c, vc, hier, l)
            )

    def test_classes_and_prefixes(self, hier, rng):
        refactored = rng.standard_normal(hier.shape)
        classes = extract_classes(refactored, hier)
        ref = _ref_extract(refactored, hier)
        assert len(classes) == len(ref)
        for got, want in zip(classes, ref):
            _assert_bit_equal(got, want)
            assert not np.shares_memory(got, refactored)
        for k in range(1, len(classes) + 1):
            _assert_bit_equal(
                assemble_from_classes(classes[:k], hier), _ref_assemble(ref[:k], hier)
            )

    def test_detail_mask_matches_and_is_read_only(self, hier):
        for l in range(1, hier.L + 1):
            mask = hier.detail_mask(l)
            np.testing.assert_array_equal(mask, _ref_detail_mask(hier, l))
            assert not mask.flags.writeable


# ----------------------------------------------------------------------
# part 2: the dpttrs correction solve


def _solve_ops(n_fine, rng):
    coords = nonuniform_coords((n_fine,), rng)[0]
    h = Hierarchy1D(coords)
    return h.ops(h.L)


def _dense_solve(g, ops, axis):
    M = dense_mass_matrix(ops.x_coarse)
    moved = np.moveaxis(g, axis, 0)
    z = np.linalg.solve(M, moved.reshape(moved.shape[0], -1))
    return np.moveaxis(z.reshape(moved.shape), 0, axis)


class TestCorrectionSolve:
    @pytest.mark.parametrize("batch", [(7,), (3, 4), (2, 3, 5)], ids=["2d", "3d", "4d"])
    def test_every_axis_matches_dense(self, batch, rng):
        ops = _solve_ops(17, rng)  # m_coarse = 9
        for axis in range(len(batch) + 1):
            shape = batch[:axis] + (ops.m_coarse,) + batch[axis:]
            g = rng.standard_normal(shape)
            np.testing.assert_allclose(
                solve_correction(g, ops, axis=axis), _dense_solve(g, ops, axis),
                rtol=1e-11, atol=1e-12,
            )

    def test_long_axis(self, rng):
        ops = Hierarchy1D(size=8193).ops(13)
        assert ops.m_coarse == 4097
        g = rng.standard_normal((3, 4097))
        z = solve_correction(g, ops, axis=1)
        M = dense_mass_matrix(ops.x_coarse)
        np.testing.assert_allclose(M @ z.T, g.T, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n_fine", [1, 2, 3])
    @pytest.mark.parametrize("batch", [(1,), (2,), (1, 3)])
    def test_tiny_axes(self, n_fine, batch, rng):
        ops = _build_level_ops(np.linspace(0.0, 1.0, n_fine))
        assert ops.m_coarse == min(n_fine, 2)
        for axis in range(len(batch) + 1):
            shape = batch[:axis] + (ops.m_coarse,) + batch[axis:]
            g = rng.standard_normal(shape)
            np.testing.assert_allclose(
                solve_correction(g, ops, axis=axis), _dense_solve(g, ops, axis),
                rtol=1e-12, atol=1e-14,
            )

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_input_left_unmodified(self, axis, rng):
        ops = _solve_ops(9, rng)  # m_coarse = 5
        shape = [3, 4, 6]
        shape[axis] = ops.m_coarse
        g = rng.standard_normal(shape)
        for arr in (g, g[..., ::2] if axis < 2 else g[::2]):
            before = arr.copy()
            solve_correction(arr, ops, axis=axis)
            _assert_bit_equal(arr, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(9,), (17, 9), (9, 9, 9)])
    def test_non_finite_decompose_input_rejected(self, bad, shape):
        data = np.zeros(shape)
        data[(1,) * len(shape)] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            decompose(data, TensorHierarchy.from_shape(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(9,), (17, 9), (9, 9, 9)])
    def test_non_finite_recompose_input_rejected(self, bad, shape):
        refactored = np.zeros(shape)
        refactored[(1,) * len(shape)] = bad  # a finest-level detail node
        with pytest.raises(ValueError, match="infs or NaNs"):
            recompose(refactored, TensorHierarchy.from_shape(shape))

    def test_solve_rejects_non_finite_on_every_axis(self, rng):
        ops = _solve_ops(9, rng)
        for axis in range(3):
            shape = [2, 3, 4]
            shape[axis] = ops.m_coarse
            g = rng.standard_normal(shape)
            g[0, 0, 0] = np.nan
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_correction(g, ops, axis=axis)
