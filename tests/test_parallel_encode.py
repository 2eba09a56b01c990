"""Parallel encode executor + self-contained entropy segments.

Three contracts:

* the parallel encode/decode paths are *bit-identical* to the serial
  ones (payloads and headers) on adversarial class mixes;
* every Huffman segment carries its own code book, and one without it
  is rejected with ``ValueError`` — directly and through a saved file;
* a :class:`StepStreamReader` can follow a producer that is still
  appending.
"""

import io

import numpy as np
import pytest

from repro.cluster.pipeline import run_pipeline
from repro.compress.executor import (
    ParallelExecutor,
    SerialExecutor,
    get_executor,
    set_default_executor,
)
from repro.compress.fileio import load_compressed, save_compressed
from repro.compress.huffman import _BLOCK_SYMBOLS, huffman_decode, huffman_encode
from repro.compress.lossless import decode_classes, encode_classes
from repro.compress.mgard import MgardCompressor
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError


def _par(n=4):
    return ParallelExecutor(n)


def _adversarial_class_mixes(rng):
    """(name, bins, sizes) cases stressing the segmented container."""
    big = 2 * _BLOCK_SYMBOLS + 321  # exercises the block-parallel path
    yield "empty-classes", np.zeros(0, dtype=np.int64), [0, 0, 0]
    yield (
        "single-values",
        np.array([7, -3], dtype=np.int64),
        [1, 0, 1],
    )
    skew = (rng.geometric(0.3, big).astype(np.int64) - 1) * rng.choice([-1, 1], big)
    yield "one-dominant-class", np.concatenate(
        [rng.integers(-4, 5, 100).astype(np.int64), skew]
    ), [100, big]
    esc = rng.integers(-(2**60), 2**60, 5000).astype(np.int64)
    yield "escape-heavy-class", np.concatenate(
        [np.zeros(64, dtype=np.int64), esc, np.full(4097, 42, dtype=np.int64)]
    ), [64, 5000, 4097]
    mixed = [
        rng.integers(-2, 3, 8).astype(np.int64),
        np.zeros(0, dtype=np.int64),
        rng.integers(-300, 300, 600).astype(np.int64),
        (rng.geometric(0.5, big).astype(np.int64) - 1),
        np.full(1, -(2**62), dtype=np.int64),
    ]
    yield "mixed", np.concatenate(mixed), [len(m) for m in mixed]


class TestParallelSerialBitIdentity:
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_adversarial_class_mixes(self, rng, backend):
        par = _par()
        for name, bins, sizes in _adversarial_class_mixes(rng):
            p_s, h_s = encode_classes(bins, sizes, backend=backend)
            p_p, h_p = encode_classes(bins, sizes, backend=backend, executor=par)
            assert p_s == p_p, (name, backend)
            assert h_s == h_p, (name, backend)
            assert "segments" in h_s and len(h_s["segments"]) == len(sizes)
            flat_s, got_s = decode_classes(p_s, h_s)
            flat_p, got_p = decode_classes(p_p, h_p, executor=par)
            assert got_s == got_p == [int(s) for s in sizes]
            np.testing.assert_array_equal(flat_s, bins, err_msg=name)
            np.testing.assert_array_equal(flat_p, bins, err_msg=name)

    def test_block_parallel_huffman_encode_decode(self, rng):
        n = 3 * _BLOCK_SYMBOLS + 777
        vals = (rng.geometric(0.4, n).astype(np.int64) - 1) * rng.choice([-1, 1], n)
        par = _par(3)
        p_s, h_s = huffman_encode(vals)
        p_p, h_p = huffman_encode(vals, executor=par)
        assert p_s == p_p and h_s == h_p
        np.testing.assert_array_equal(huffman_decode(p_p, h_p, executor=par), vals)

    def test_multiworker_sync_decode_engages_and_is_exact(self, rng, monkeypatch):
        """Drive the decode range split for real (assert it engaged)."""
        import repro.compress.huffman as H

        n = 2 * H._MIN_DECODE_BLOCKS_PER_WORKER * H._SYNC_BLOCK + 12345
        vals = (rng.geometric(0.4, n).astype(np.int64) - 1) * rng.choice([-1, 1], n)
        vals[:: n // 50] = rng.integers(-(2**60), 2**60, vals[:: n // 50].size)
        p, h = huffman_encode(vals)
        calls = []
        orig = H._decode_sync_range

        def spy(words, starts, ends, rem, total, tables):
            calls.append(len(starts))
            return orig(words, starts, ends, rem, total, tables)

        monkeypatch.setattr(H, "_decode_sync_range", spy)
        out = huffman_decode(p, h, executor=_par(2))
        np.testing.assert_array_equal(out, vals)
        assert len(calls) >= 2, "parallel range split did not engage"
        # and the segmented container routes such a class to the
        # inner-executor path with identical results
        calls.clear()
        sizes = [100, n]
        bins = np.concatenate([rng.integers(-4, 5, 100).astype(np.int64), vals])
        ps, hs = encode_classes(bins, sizes, backend="huffman")
        pp, hp = encode_classes(bins, sizes, backend="huffman", executor=_par(2))
        assert ps == pp and hs == hp
        flat, _ = decode_classes(pp, hp, executor=_par(2))
        np.testing.assert_array_equal(flat, bins)
        assert len(calls) >= 2, "segmented decode did not use the inner split"

    def test_compressor_roundtrip_with_parallel_plan(self, rng):
        shape = (33, 33)
        data = rng.standard_normal(shape).cumsum(0).cumsum(1)
        comp = MgardCompressor.for_shape(shape, 1e-3, backend="huffman",
                                         executor="parallel:3")
        blob = comp.compress(data)
        assert np.abs(comp.decompress(blob) - data).max() <= 1e-3
        serial = MgardCompressor.for_shape(shape, 1e-3, backend="huffman")
        blob_s = serial.compress(data)
        assert blob.payloads == blob_s.payloads
        assert blob.headers == blob_s.headers


class TestExecutorSelection:
    def test_specs(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        par = get_executor("parallel:5")
        assert isinstance(par, ParallelExecutor) and par.max_workers == 5
        assert get_executor("parallel:5") is par  # shared instance
        with pytest.raises(ValueError):
            get_executor("bogus")
        with pytest.raises(ValueError):
            get_executor("parallel:0")

    def test_default_knob(self):
        set_default_executor("parallel:2")
        try:
            ex = get_executor()
            assert isinstance(ex, ParallelExecutor) and ex.max_workers == 2
        finally:
            set_default_executor(None)
        assert isinstance(get_executor("serial"), SerialExecutor)

    def test_plan_carries_executor_spec(self):
        from repro.compress.plan import compression_plan

        p1 = compression_plan((17, 17), 1e-3, executor="serial")
        p2 = compression_plan((17, 17), 1e-3, executor="parallel:2")
        assert p1 is not p2
        assert isinstance(p1.get_executor(), SerialExecutor)
        assert isinstance(p2.get_executor(), ParallelExecutor)


def _strip_table(header: dict, i: int) -> dict:
    """Copy of a segmented header whose segment ``i`` lost its book."""
    segs = [dict(sh) for sh in header["segments"]]
    del segs[i]["table"]
    return {**header, "segments": segs}


class TestSelfContainedSegments:
    def test_segment_without_table_raises(self, rng):
        sizes = [300, 2000]
        bins = rng.integers(-5, 6, sum(sizes)).astype(np.int64)
        payload, header = encode_classes(bins, sizes, backend="huffman")
        flat, _ = decode_classes(payload, header)  # intact: decodes alone
        np.testing.assert_array_equal(flat, bins)
        for i in range(len(sizes)):
            with pytest.raises(ValueError, match="code-book table"):
                decode_classes(payload, _strip_table(header, i))

    def test_saved_blob_without_table_raises_on_decompress(self, rng):
        shape = (17, 17)
        data = rng.standard_normal(shape).cumsum(0).cumsum(1)
        comp = MgardCompressor.for_shape(shape, 1e-3, backend="huffman")
        blob = comp.compress(data)
        segs = blob.headers[0]["segments"]
        biggest = max(range(len(segs)), key=lambda i: segs[i]["n"])
        blob.headers = [_strip_table(blob.headers[0], biggest)]
        buf = io.BytesIO()
        save_compressed(buf, blob)
        loaded, hier = load_compressed(buf.getvalue())
        with pytest.raises(ValueError, match="code-book table"):
            MgardCompressor(hier, 1e-3, backend="huffman").decompress(loaded)


class TestStreamBehindProducer:
    def _frames(self, rng, n, shape=(17, 17)):
        base = rng.standard_normal(shape).cumsum(0).cumsum(1)
        return [base * (1 + 0.02 * t) for t in range(n)], base

    def test_reader_follows_mid_append(self, rng, tmp_path):
        frames, base = self._frames(rng, 7)
        tol = 1e-3 * float(np.abs(base).max())
        writer = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=3)
        for t in range(4):
            writer.append(frames[t], time=float(t))
        reader = StepStreamReader(tmp_path)
        assert reader.stream_mode == "compressed"
        assert reader.n_steps == 4
        assert np.abs(reader.read_step(3) - frames[3]).max() <= tol
        # producer keeps appending; the reader refreshes and catches up
        for t in range(4, 7):
            writer.append(frames[t], time=float(t))
            assert reader.refresh() == t + 1
            assert np.abs(reader.read_step(t) - frames[t]).max() <= tol
        # random access backward re-rolls from a key frame
        assert np.abs(reader.read_step(1) - frames[1]).max() <= tol

    def test_refactored_mode_reader_follows_too(self, rng, tmp_path):
        frames, base = self._frames(rng, 3)
        writer = StepStreamWriter(tmp_path, base.shape)
        writer.append(frames[0])
        reader = StepStreamReader(tmp_path)
        assert reader.n_steps == 1
        writer.append(frames[1])
        assert reader.refresh() == 2
        field, _ = reader.read(1, k=reader.hier.L + 1)
        np.testing.assert_allclose(field, frames[1], atol=1e-9)

    def test_mode_guards(self, rng, tmp_path):
        frames, base = self._frames(rng, 2)
        tol = 1e-3 * float(np.abs(base).max())
        writer = StepStreamWriter(tmp_path, base.shape, tol=tol)
        writer.append(frames[0])
        reader = StepStreamReader(tmp_path)
        with pytest.raises(StreamError):
            reader.read(0, k=1)
        with pytest.raises(StreamError):
            reader.read_full(0)
        with pytest.raises(StreamError):
            StepStreamWriter(tmp_path, base.shape)  # mode mismatch

    def test_writer_reopen_rejects_changed_settings(self, rng, tmp_path):
        frames, base = self._frames(rng, 2)
        tol = 1e-3 * float(np.abs(base).max())
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=4)
        w.append(frames[0])
        with pytest.raises(StreamError, match="tol"):
            StepStreamWriter(tmp_path, base.shape, tol=tol * 10, key_interval=4)
        with pytest.raises(StreamError, match="key_interval"):
            StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=2)
        with pytest.raises(StreamError, match="backend"):
            StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=4,
                             backend="zlib")

    def test_writer_reopen_continues_stream(self, rng, tmp_path):
        frames, base = self._frames(rng, 4)
        tol = 1e-3 * float(np.abs(base).max())
        w1 = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=2)
        w1.append(frames[0])
        w1.append(frames[1])
        w2 = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=2)
        assert w2.n_steps == 2
        w2.append(frames[2])
        reader = StepStreamReader(tmp_path)
        for t in range(3):
            assert np.abs(reader.read_step(t) - frames[t]).max() <= tol


class TestRunPipeline:
    def test_matches_serial_results(self):
        stages = [lambda x: x + 1, lambda x: x * 3, lambda x: x - 2]
        items = list(range(20))
        serial = run_pipeline(stages, items, executor="serial")
        parallel = run_pipeline(stages, items, executor=_par(3))
        expected = [(i + 1) * 3 - 2 for i in items]
        assert serial.results == expected
        assert parallel.results == expected
        assert len(serial.stage_busy_seconds) == 3

    def test_stateful_stage_sees_items_in_order(self):
        seen = []
        stages = [lambda x: x * 2, lambda x: (seen.append(x), x)[1]]
        out = run_pipeline(stages, list(range(30)), executor=_par(4))
        assert seen == [2 * i for i in range(30)]
        assert out.results == [2 * i for i in range(30)]

    def test_stage_using_shared_parallel_executor_does_not_deadlock(self, rng):
        """A stage may itself fan out through the ambient executor."""
        shared = get_executor("parallel:2")
        bins = rng.integers(-5, 6, 4000).astype(np.int64)

        def encode_stage(x):
            p, h = encode_classes(bins, [4000], backend="huffman", executor=shared)
            return x + len(p)

        out = run_pipeline([encode_stage, lambda x: x], list(range(6)),
                           executor=shared)
        assert len(out.results) == 6

    def test_failure_does_not_hang(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError):
            run_pipeline([boom, lambda x: x], list(range(6)), executor=_par(2))

    def test_root_cause_not_masked_by_cancelled_items(self):
        """The caller gets the stage's real exception, not the generic
        abort from items that were merely cancelled behind it."""
        import time as _time

        def slow_then_fail(x):
            if x == 3:
                raise ValueError("the real failure")
            _time.sleep(0.02)
            return x

        with pytest.raises(ValueError, match="the real failure"):
            run_pipeline(
                [slow_then_fail, lambda x: x], list(range(8)), executor=_par(4)
            )

    def test_stage_sees_no_later_items_after_failure(self):
        """A stateful stage must never record items past a failure —
        otherwise a stream writer would persist frames at wrong steps."""
        for trial in range(5):  # the race is timing-dependent; hammer it
            seen = []

            def record(x):
                if x == 1:
                    raise RuntimeError("boom")
                seen.append(x)
                return x

            with pytest.raises(RuntimeError):
                run_pipeline(
                    [lambda x: x, record], list(range(8)), executor=_par(4)
                )
            assert seen == [0], (trial, seen)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_pipeline([], [1, 2])
