"""Canonical Huffman coder for quantized coefficient integers.

MGARD's entropy stage Huffman-codes the quantizer output (most bins are
at or near zero for smooth data, so the distribution is highly skewed
and Huffman does well) before a final lossless pass.  This is a clean,
self-contained canonical-Huffman implementation:

* symbols are the distinct int64 bin values, with a configurable escape
  mechanism for rare outliers (values outside the dense symbol table
  are emitted as an ESCAPE code followed by 64 raw bits);
* code assignment is canonical (sorted by (length, symbol)), so the
  decoder only needs the (symbol, length) pairs;
* the default :func:`huffman_encode` / :func:`huffman_decode` pair is a
  fully vectorized fast path — array-mapped codeword lookup plus bulk
  bit packing on encode, and a per-length first-code canonical decode
  driven by pointer doubling on decode;
* both directions are *block-schedulable*: pass an executor (see
  :mod:`repro.compress.executor`) and the encoder splits the symbol
  stream into sync-aligned blocks whose chunkify/pack phases run as
  independent work units (the MSB-first concatenation is associative,
  so the merged payload is bit-identical to the serial one), while the
  decoder partitions the sync blocks across workers; under the
  ``process`` backend both directions ship their heavy operand through
  shared memory — the decoder its payload words, the encoder its
  symbol ranges, whose returned pack-at-0 word buffers the coordinator
  realigns (:func:`_shift_words`) and OR-merges;
* every encode builds its code book from the data it encodes and ships
  the full (symbol, length) table in its header, so each payload
  decodes on its own;
* :func:`huffman_encode_scalar` / :func:`huffman_decode_scalar` retain
  the original per-element/per-bit loops as cross-check references; the
  two encoders share the code-book construction and emit bit-identical
  payloads.

The coder is exact: ``decode(encode(x)) == x`` for any int64 array.
The vectorized decoder allocates a few machine words per *payload bit*
(not per symbol), so its memory footprint is proportional to the
compressed bit count.
"""

from __future__ import annotations

import heapq
import json

import numpy as np

from ..kernels.launcher import maybe_launch

__all__ = [
    "HuffmanCode",
    "huffman_encode",
    "huffman_decode",
    "huffman_encode_scalar",
    "huffman_decode_scalar",
    "table_from_code",
    "code_from_table",
]

_ESCAPE = object()  # sentinel symbol for out-of-table values

# Both encoders record the bit offset of every _SYNC_BLOCK-th symbol in
# the header ("sync").  The offsets let the decoder run one cursor per
# block in vectorized lockstep instead of chasing the serial codeword
# chain; real parallel entropy decoders use the same device.
_SYNC_BLOCK = 512

# a parallel decode range below this many sync blocks spends more on
# its (fixed-count) lockstep loop than it gains from concurrency
_MIN_DECODE_BLOCKS_PER_WORKER = 256


class HuffmanCode:
    """A canonical Huffman code book: symbol -> (code, length)."""

    def __init__(self, lengths: dict, codes: dict):
        self.lengths = lengths
        self.codes = codes

    @classmethod
    def from_frequencies(cls, freqs: dict) -> "HuffmanCode":
        """Build a canonical code from symbol frequencies."""
        if not freqs:
            raise ValueError("cannot build a Huffman code from no symbols")
        if len(freqs) == 1:
            sym = next(iter(freqs))
            return cls(lengths={sym: 1}, codes={sym: 0})
        # standard Huffman tree -> code lengths
        heap = [(f, i, sym) for i, (sym, f) in enumerate(freqs.items())]
        heapq.heapify(heap)
        parent: dict[int, int] = {}
        nodes: list = [sym for _, _, sym in sorted(heap, key=lambda t: t[1])]
        # rebuild heap with node ids
        heap = [(f, i) for i, (f, _, _) in enumerate(sorted(heap, key=lambda t: t[1]))]
        heapq.heapify(heap)
        next_id = len(nodes)
        while len(heap) > 1:
            fa, a = heapq.heappop(heap)
            fb, b = heapq.heappop(heap)
            parent[a] = next_id
            parent[b] = next_id
            nodes.append(None)
            heapq.heappush(heap, (fa + fb, next_id))
            next_id += 1
        lengths = {}
        for i, sym in enumerate(nodes):
            if sym is None:
                continue
            depth = 0
            j = i
            while j in parent:
                depth += 1
                j = parent[j]
            lengths[sym] = max(depth, 1)
        return cls.from_lengths(lengths)

    @classmethod
    def from_lengths(cls, lengths: dict) -> "HuffmanCode":
        """Assign canonical codes given per-symbol lengths."""
        def keyfn(item):
            sym, ln = item
            # order: length, then escape last, then symbol value
            return (ln, 1 if sym is _ESCAPE else 0, sym if sym is not _ESCAPE else 0)

        code = 0
        prev_len = 0
        codes = {}
        for sym, ln in sorted(lengths.items(), key=keyfn):
            code <<= ln - prev_len
            codes[sym] = code
            code += 1
            prev_len = ln
        return cls(lengths=dict(lengths), codes=codes)

    def decoding_table(self):
        """(sorted list of (code, length, symbol)) for the decoder."""
        return sorted(
            ((self.codes[s], self.lengths[s], s) for s in self.codes),
            key=lambda t: (t[1], t[0]),
        )


def _build_code(values: np.ndarray, max_table: int) -> HuffmanCode:
    """The code book of ``values``: every distinct symbol when they fit
    ``max_table``, else the ``max_table - 1`` most frequent plus ESCAPE."""
    if max_table < 2:
        raise ValueError(f"max_table must be at least 2, got {max_table}")
    syms, counts = np.unique(values, return_counts=True)
    if syms.size == 0:
        return HuffmanCode.from_frequencies({0: 1})
    if syms.size <= max_table:
        return HuffmanCode.from_frequencies(
            {int(s): int(c) for s, c in zip(syms, counts)}
        )
    # keep the most frequent symbols; the tail goes through ESCAPE
    order = np.argsort(-counts, kind="stable")  # ties: smaller symbol first
    keep = np.sort(order[: max_table - 1])
    freqs = {int(syms[i]): int(counts[i]) for i in keep}
    # every dropped symbol occurred at least once, so ESCAPE's count is >= 1
    freqs[_ESCAPE] = int(counts.sum() - counts[keep].sum())
    return HuffmanCode.from_frequencies(freqs)


def _header(code: HuffmanCode, n: int, total_bits: int, sync=None) -> dict:
    header = {
        "n": int(n),
        "bits": int(total_bits),
        "table": [
            ("ESC" if s is _ESCAPE else int(s), int(ln))
            for s, ln in code.lengths.items()
        ],
    }
    if sync is not None and len(sync):
        header["sync"] = [int(o) for o in sync]
    return header


def _lengths_from_header(header: dict) -> dict:
    return {
        (_ESCAPE if s == "ESC" else int(s)): int(ln) for s, ln in header["table"]
    }


# ----------------------------------------------------------------------
# code-book (de)serialization


def table_from_code(code: HuffmanCode) -> list:
    """The header-form symbol/length table of a code book."""
    return [
        ["ESC" if s is _ESCAPE else int(s), int(ln)]
        for s, ln in code.lengths.items()
    ]


def code_from_table(table: list) -> HuffmanCode:
    """Rebuild the canonical code book from a header-form table."""
    return HuffmanCode.from_lengths(_lengths_from_header({"table": table}))


# ----------------------------------------------------------------------
# vectorized fast path


def _code_arrays(code: HuffmanCode):
    """Dense sorted symbol -> (code, length) arrays for vectorized lookup.

    Memoized on the code book, so the blocks of one block-parallel
    encode pay the table sort once.
    """
    cached = getattr(code, "_arrays", None)
    if cached is not None:
        return cached
    syms = sorted(s for s in code.codes if s is not _ESCAPE)
    sym_arr = np.asarray(syms, dtype=np.int64)
    code_arr = np.asarray([code.codes[s] for s in syms], dtype=np.uint64)
    len_arr = np.asarray([code.lengths[s] for s in syms], dtype=np.int64)
    code._arrays = (sym_arr, code_arr, len_arr)
    return code._arrays


def _chunkify(values: np.ndarray, code: HuffmanCode):
    """Map symbols to (code, length) chunk arrays for packing.

    Returns ``(c_codes, c_lens, elem_chunk)`` where
    ``elem_chunk`` is the chunk index of each element's first chunk
    (``None`` when no element escaped, i.e. chunks == elements).  This
    is the per-block work unit of the parallel encode path.
    """
    sym_arr, code_arr, len_arr = _code_arrays(code)
    idx = np.minimum(np.searchsorted(sym_arr, values), sym_arr.size - 1)
    in_table = sym_arr[idx] == values
    if in_table.all():
        return code_arr[idx], len_arr[idx], None
    # the book was built from these values, so any symbol outside it
    # was dropped by the table cap and the book has an ESCAPE code
    esc_len = code.lengths[_ESCAPE]
    # escapes contribute two chunks: the ESCAPE code + 64 raw bits
    per = np.where(in_table, 1, 2).astype(np.int64)
    starts = np.zeros(values.size, dtype=np.int64)
    np.cumsum(per[:-1], out=starts[1:])
    n_chunks = int(starts[-1] + per[-1])
    c_codes = np.empty(n_chunks, dtype=np.uint64)
    c_lens = np.empty(n_chunks, dtype=np.int64)
    it = starts[in_table]
    c_codes[it] = code_arr[idx[in_table]]
    c_lens[it] = len_arr[idx[in_table]]
    ep = starts[~in_table]
    c_codes[ep] = np.uint64(code.codes[_ESCAPE])
    c_lens[ep] = esc_len
    c_codes[ep + 1] = values[~in_table].astype(np.uint64)  # two's complement
    c_lens[ep + 1] = 64
    return c_codes, c_lens, starts


def _pack_chunks_words(
    c_codes: np.ndarray, c_lens: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """MSB-first pack dispatched through the kernel-launcher seam.

    The compiled backend fuses the pack into one sequential scatter-OR
    loop; the NumPy path below resolves the word-overlap dependence
    with ``bitwise_or.reduceat``.  Both produce the same word buffer
    bit for bit (the pack is pure integer arithmetic).
    """
    if c_codes.size:
        ran, buf = maybe_launch(
            "huff_pack", (int(c_codes.size),), np.uint64, c_codes, c_lens, offsets
        )
        if ran:
            return buf
    return _pack_chunks_words_numpy(c_codes, c_lens, offsets)


def _pack_chunks_words_numpy(
    c_codes: np.ndarray, c_lens: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """MSB-first scatter of (code, length) chunks into 64-bit words.

    Word-aligned: every chunk (≤ 64 bits) lands in at most two
    big-endian 64-bit words, so the whole pack is a handful of vector
    ops over the chunk arrays plus one ``bitwise_or.reduceat`` per
    landing word — no per-bit expansion.  ``offsets`` is the chunk
    bit-position prefix sum (size ``n_chunks + 1``; callers already
    have it); ``offsets[0]`` (< 64) offsets the first chunk inside
    word 0, which is how a block whose global bit position is mid-word
    packs locally and still merges into the stream with a plain OR.
    """
    total_end = int(offsets[-1])
    n_words = (total_end + 63) >> 6
    buf = np.zeros(n_words + 1, dtype=np.uint64)  # +1 spill word

    w0 = offsets[:-1] >> 6
    r = offsets[:-1] & 63
    s = r + c_lens  # end bit of the chunk within its two-word window
    shl = np.clip(64 - s, 0, 63).astype(np.uint64)
    shr = np.clip(s - 64, 0, 63).astype(np.uint64)
    part0 = np.where(s <= 64, c_codes << shl, c_codes >> shr)
    sh1 = np.clip(128 - s, 0, 63).astype(np.uint64)
    part1 = np.where(s > 64, c_codes << sh1, np.uint64(0))

    # offsets are monotone, so chunks hitting the same word are contiguous
    starts = np.flatnonzero(np.r_[True, w0[1:] != w0[:-1]])
    idx = w0[starts]
    buf[idx] |= np.bitwise_or.reduceat(part0, starts)
    buf[idx + 1] |= np.bitwise_or.reduceat(part1, starts)
    return buf


def _pack_chunks(
    c_codes: np.ndarray, c_lens: np.ndarray
) -> tuple[bytes, int, np.ndarray]:
    """Pack chunks into payload bytes; returns (payload, bits, offsets)."""
    offsets = np.zeros(c_codes.size + 1, dtype=np.int64)
    np.cumsum(c_lens, out=offsets[1:])
    total_bits = int(offsets[-1])
    buf = _pack_chunks_words(c_codes, c_lens, offsets)
    n_words = (total_bits + 63) >> 6
    payload = buf[:n_words].astype(">u8").tobytes()[: (total_bits + 7) >> 3]
    return payload, total_bits, offsets[:-1]


# symbols per schedulable encode block (a multiple of _SYNC_BLOCK, so
# block boundaries coincide with sync points and the merged header's
# sync offsets match the serial encoder's exactly)
_BLOCK_SYMBOLS = 64 * _SYNC_BLOCK


def _shift_words(buf: np.ndarray, s: int) -> np.ndarray:
    """Realign a pack-at-bit-0 word buffer to start at bit ``s`` (< 64).

    Packing is a plain OR of chunks at bit positions, so shifting the
    whole buffer right by ``s`` bits is *exactly* the buffer that
    packing at initial offset ``s`` would have produced — the
    realignment that lets a worker pack its symbol range without
    knowing the range's global bit position (which the coordinator only
    learns after every range reports its bit count).
    """
    if s == 0:
        return buf
    sh = np.uint64(s)
    inv = np.uint64(64 - s)
    out = np.zeros(buf.size + 1, dtype=np.uint64)
    out[:-1] = buf >> sh
    out[1:] |= buf << inv
    return out


# worker-resident *encode* code books, keyed by the header-form table
# JSON — the encode-side mirror of _WORKER_TABLE_CACHE: a worker that
# gets several ranges of one payload rebuilds the canonical code and
# its memoized lookup arrays once
_WORKER_CODE_CACHE: dict[str, "HuffmanCode"] = {}


def _encode_range(values: np.ndarray, code: "HuffmanCode"):
    """Chunkify + pack one symbol range at local bit offset 0.

    Returns ``(words, nbits, sync_local)`` where ``words``
    is the pack-at-0 word buffer (realigned and OR-merged by the
    coordinator), and ``sync_local`` the range-local bit offsets of
    every :data:`_SYNC_BLOCK`-th symbol *including* symbol 0 — ranges
    start on sync boundaries, so the coordinator turns these into the
    stream's global sync table with one add per range.
    """
    c_codes, c_lens, elem_chunk = _chunkify(values, code)
    offsets = np.zeros(c_codes.size + 1, dtype=np.int64)
    np.cumsum(c_lens, out=offsets[1:])
    nbits = int(offsets[-1])
    elem_bits = offsets[:-1] if elem_chunk is None else offsets[elem_chunk]
    lsync = elem_bits[::_SYNC_BLOCK].copy()
    words = _pack_chunks_words(c_codes, c_lens, offsets)
    return words, nbits, lsync


def _encode_range_worker(ref, start: int, stop: int, table_json: str):
    """Process-pool work unit: encode one symbol range from shm."""
    code = _WORKER_CODE_CACHE.get(table_json)
    if code is None:
        if len(_WORKER_CODE_CACHE) >= 8:
            _WORKER_CODE_CACHE.clear()
        code = code_from_table(json.loads(table_json))
        _WORKER_CODE_CACHE[table_json] = code
    lease = ref.open()
    try:
        # copy the range out of the segment before encoding it: an
        # exception's traceback would otherwise pin a live slice view
        # past lease.close() (BufferError).  One extra memcpy of the
        # range is noise next to the chunkify/pack passes that follow.
        values = np.array(lease.view[start:stop])
    finally:
        lease.close()
    return _encode_range(values, code)


def _encode_blocks_process(values, code, executor):
    """Sync-aligned block encode fanned out across *processes*.

    The encode-side completion of the shared-memory story: the symbol
    array is staged once in shm, each worker receives only (segment
    ref, its range bounds, the header-form code table) and returns its
    range packed at local bit offset 0; the coordinator prefix-sums the
    per-range bit counts into global positions and OR-merges the
    returned word packs after :func:`_shift_words` realignment, so the
    payload is bit-identical to the serial path.  Returns ``None`` when
    shared memory is unavailable or the fan-out is too narrow, so the
    caller falls back to the in-process block path.
    """
    from ..parallel import shm as _shm

    n = values.size
    n_blocks = -(-n // _BLOCK_SYMBOLS)
    k = min(getattr(executor, "max_workers", 1), n_blocks)
    if k < 2:
        return None
    try:
        ref, block = _shm.share_array(values)
    except _shm.ShmUnavailable:
        return None
    try:
        # contiguous runs of whole blocks per worker, so every range
        # starts on a sync boundary (_BLOCK_SYMBOLS is a multiple of
        # _SYNC_BLOCK) and the local sync offsets splice exactly
        cuts = (np.linspace(0, n_blocks, k + 1).astype(int) * _BLOCK_SYMBOLS)
        cuts[-1] = n
        table_json = json.dumps(table_from_code(code))
        rows = [
            (ref, int(a), int(b), table_json)
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
        parts = executor.map(_encode_range_worker, *zip(*rows))
    finally:
        block.destroy()

    bits = np.zeros(k + 1, dtype=np.int64)
    for i, (_, nbits, _) in enumerate(parts):
        bits[i + 1] = nbits
    starts = np.cumsum(bits)
    total_bits = int(starts[-1])
    sync = np.concatenate(
        [lsync + start for (_, _, lsync), start in zip(parts, starts[:-1])]
    )[1:]  # drop the stream start (bit 0 is not a sync entry)

    n_words = (total_bits + 63) >> 6
    out = np.zeros(n_words + 3, dtype=np.uint64)  # shift + spill slack
    for (words, _, _), start in zip(parts, starts[:-1]):
        s = int(start)
        shifted = _shift_words(words, s & 63)
        w0 = s >> 6
        out[w0 : w0 + shifted.size] |= shifted
    payload = out[:n_words].astype(">u8").tobytes()[: (total_bits + 7) >> 3]
    return payload, _header(code, n, total_bits, sync)


def _encode_blocks(values, code, executor):
    """Block-parallel encode: chunkify and pack sync-aligned blocks.

    Fan-out/merge structure: (1) map ``_chunkify`` over symbol blocks,
    (2) a serial prefix sum turns per-block bit counts into global bit
    positions, (3) map the word-aligned pack over blocks at their
    (mod-64) start shift, (4) OR the word buffers together.  MSB-first
    concatenation is associative, so the result is bit-identical to the
    single-shot path for any executor.  Under the process backend the
    whole structure runs across address spaces instead
    (:func:`_encode_blocks_process`): symbol ranges ship through shared
    memory and the returned pack-at-0 word buffers are realigned with
    :func:`_shift_words` before the OR-merge.
    """
    if getattr(executor, "kind", None) == "process":
        out = _encode_blocks_process(values, code, executor)
        if out is not None:
            return out
    n = values.size
    bounds = list(range(0, n, _BLOCK_SYMBOLS)) + [n]
    blocks = [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    chunked = executor.map(lambda v: _chunkify(v, code), blocks)

    # global bit position of every block and of every element
    block_bits = np.zeros(len(blocks) + 1, dtype=np.int64)
    elem_bits_local = []
    block_offs = []
    for i, (c_codes, c_lens, elem_chunk) in enumerate(chunked):
        offs = np.zeros(c_lens.size + 1, dtype=np.int64)
        np.cumsum(c_lens, out=offs[1:])
        elem_bits_local.append(offs[:-1] if elem_chunk is None else offs[elem_chunk])
        block_offs.append(offs)
        block_bits[i + 1] = offs[-1]
    block_start = np.cumsum(block_bits)[:-1]
    total_bits = int(block_start[-1] + block_bits[-1])
    elem_bits = np.concatenate(
        [loc + start for loc, start in zip(elem_bits_local, block_start)]
    )
    sync = elem_bits[_SYNC_BLOCK::_SYNC_BLOCK]

    def pack_one(i: int):
        c_codes, c_lens, _ = chunked[i]
        start = int(block_start[i])
        return start >> 6, _pack_chunks_words(
            c_codes, c_lens, block_offs[i] + (start & 63)
        )

    packed = executor.map(pack_one, range(len(blocks)))
    n_words = (total_bits + 63) >> 6
    out = np.zeros(n_words + 1, dtype=np.uint64)
    for w0, buf in packed:
        out[w0 : w0 + buf.size] |= buf
    payload = out[:n_words].astype(">u8").tobytes()[: (total_bits + 7) >> 3]
    return payload, _header(code, n, total_bits, sync)


def huffman_encode(values: np.ndarray, max_table: int = 4096, *, executor=None):
    """Encode an int64 array; returns (payload, header).

    The code book is built from ``values`` (at most ``max_table``
    entries, ESCAPE included) and the header carries it as plain Python
    data (symbol/length pairs) plus the element count, so the payload
    decodes with nothing but its header.  This is the vectorized fast
    path; it emits payloads bit-identical to
    :func:`huffman_encode_scalar`.  An ``executor`` (see
    :mod:`repro.compress.executor`) schedules sync-aligned symbol
    blocks; the payload is bit-identical to the serial path.
    """
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if values.size == 0:
        return b"", {"n": 0, "bits": 0, "table": []}
    code = _build_code(values, max_table)
    if (
        executor is not None
        and getattr(executor, "max_workers", 1) > 1
        and values.size >= 2 * _BLOCK_SYMBOLS
    ):
        return _encode_blocks(values, code, executor)
    c_codes, c_lens, elem_chunk = _chunkify(values, code)
    payload, total_bits, offsets = _pack_chunks(c_codes, c_lens)
    elem_bits = offsets if elem_chunk is None else offsets[elem_chunk]
    sync = elem_bits[_SYNC_BLOCK::_SYNC_BLOCK]
    return payload, _header(code, values.size, total_bits, sync)


class _DecodeTables:
    """Canonical first-code tables in array form.

    Per length L the codes form the contiguous range
    ``[first[L], first[L] + count[L])``; symbols in canonical order live
    in one flat array indexed by ``base[L] + (code - first[L])``.  In
    the left-justified (Moffat–Turpin) view the per-length ranges tile
    ``[0, limit[-1])`` in ascending-length order, so a single
    ``searchsorted`` against the range limits classifies a 64-bit
    window.  The last limit may be ``2**64`` (Kraft-complete code), so
    it is excluded from the search table and covered by the
    ``rank < count`` check instead.
    """

    def __init__(self, code: HuffmanCode):
        order = sorted(code.codes, key=lambda s: (code.lengths[s], code.codes[s]))
        lens_present = sorted({ln for ln in code.lengths.values()})
        self._code = code
        self.flat_syms = np.empty(len(order), dtype=np.int64)
        first: dict[int, int] = {}
        count: dict[int, int] = {}
        base: dict[int, int] = {}
        self.esc_len = code.lengths.get(_ESCAPE)
        self.esc_flat = -1
        for i, s in enumerate(order):
            ln = code.lengths[s]
            if ln not in first:
                first[ln] = code.codes[s]
                base[ln] = i
                count[ln] = 0
            count[ln] += 1
            if s is _ESCAPE:
                self.esc_flat = i
                self.flat_syms[i] = 0
            else:
                self.flat_syms[i] = s
        self.lens_arr = np.asarray(lens_present, dtype=np.int64)
        self.first_arr = np.asarray([first[L] for L in lens_present], dtype=np.uint64)
        self.count_arr = np.asarray([count[L] for L in lens_present], dtype=np.uint64)
        self.base_arr = np.asarray([base[L] for L in lens_present], dtype=np.int64)
        self.limits = np.asarray(
            [(first[L] + count[L]) << (64 - L) for L in lens_present[:-1]],
            dtype=np.uint64,
        )

    @property
    def table_json(self) -> str:
        """JSON header-form table of the source book — what the process
        fan-out ships to rebuild these tables in another address space."""
        return json.dumps(table_from_code(self._code))

    def classify(self, win: np.ndarray):
        """Left-justified windows -> (length, flat symbol rank, valid)."""
        li = np.searchsorted(self.limits, win, side="right")
        L = self.lens_arr[li]
        rank = (win >> (64 - L).astype(np.uint64)) - self.first_arr[li]
        valid = rank < self.count_arr[li]
        return L, self.base_arr[li] + rank.astype(np.int64), valid


def _payload_words(payload: bytes, total: int, spill: int = 2) -> np.ndarray:
    """Payload as big-endian 64-bit words, zero padded with spill words."""
    n_bytes = (total + 7) >> 3
    n_words = (total + 63) >> 6
    byts = np.zeros((n_words + spill) * 8, dtype=np.uint8)
    byts[:n_bytes] = np.frombuffer(payload, dtype=np.uint8, count=n_bytes)
    return byts.view(">u8").astype(np.uint64)


def _windows_at(words: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The 64 stream bits starting at each bit position in ``p``."""
    wi = p >> 6
    r = (p & 63).astype(np.uint64)
    return (words[wi] << r) | ((words[wi + 1] >> (np.uint64(63) - r)) >> np.uint64(1))


def huffman_decode(payload: bytes, header: dict, *, executor=None) -> np.ndarray:
    """Invert :func:`huffman_encode` (vectorized fast path).

    Canonical decoding normally walks the bit stream serially.  When the
    header carries sync offsets (one per :data:`_SYNC_BLOCK` symbols —
    any payload our encoders emit), the fast path runs one cursor per
    block in vectorized lockstep; an ``executor`` partitions the blocks
    into contiguous runs decoded as independent work units (the output
    is identical either way).  Headers without sync fall back to a
    whole-stream classification: "if a codeword started at bit ``p``,
    which (length, symbol) would it be?", with the actual codeword-start
    chain ``p -> p + len(p)`` resolved by pointer doubling — still pure
    NumPy array operations.  A non-empty header must carry its code
    book (``table``); one without it raises ``ValueError``.
    """
    n = int(header["n"])
    if n < 0:
        raise ValueError(f"corrupt Huffman header: negative element count {n}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    total = int(header["bits"])
    if total < 0:
        raise ValueError(f"corrupt Huffman header: negative bit count {total}")
    if len(payload) < (total + 7) >> 3:
        raise ValueError("truncated Huffman payload")
    if "table" not in header:
        raise ValueError(
            f"corrupt Huffman header: {n} symbols but no code-book table"
        )
    tables = _DecodeTables(HuffmanCode.from_lengths(_lengths_from_header(header)))
    sync = header.get("sync")
    if sync and len(sync) + 1 == -(-n // _SYNC_BLOCK):
        return _decode_sync(payload, n, total, tables, sync, executor)
    return _decode_chain(payload, n, total, tables)


def _decode_sync(
    payload, n, total, tables: _DecodeTables, sync, executor=None
) -> np.ndarray:
    """Lockstep decode: one cursor per sync block, advanced together."""
    n_blocks = len(sync) + 1
    starts = np.empty(n_blocks, dtype=np.int64)
    starts[0] = 0
    starts[1:] = sync
    ends = np.empty(n_blocks, dtype=np.int64)
    ends[:-1] = sync
    ends[-1] = total
    if np.any(starts > total) or np.any(np.diff(starts) < 0):
        raise ValueError("corrupt Huffman payload: bad sync offsets")
    rem = n - (n_blocks - 1) * _SYNC_BLOCK  # symbols in the last block
    workers = getattr(executor, "max_workers", 1) if executor is not None else 1
    # every range pays the full _SYNC_BLOCK-iteration lockstep loop, so
    # splitting only pays off when each worker keeps wide vectors; keep
    # at least _MIN_DECODE_BLOCKS_PER_WORKER blocks per range
    workers = min(workers, n_blocks // _MIN_DECODE_BLOCKS_PER_WORKER)
    words = _payload_words(payload, total)
    if workers > 1:
        # one contiguous sync-block run per worker; the process and
        # thread paths decode exactly these ranges, so the partition
        # rule lives in one place
        cuts = np.linspace(0, n_blocks, workers + 1).astype(int)
        ranges = [
            (starts[a:b], ends[a:b], rem if b == n_blocks else _SYNC_BLOCK)
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
        if getattr(executor, "kind", None) == "process":
            # this loop is the GIL-bound hot spot threads cannot split;
            # ship the payload words through shared memory instead
            out = _decode_sync_process(words, total, tables, ranges, executor)
            if out is not None:
                return out
        parts = executor.map(
            lambda s, e, r: _decode_sync_range(words, s, e, r, total, tables),
            *zip(*ranges),
        )
        return np.concatenate(parts)
    return _decode_sync_range(words, starts, ends, rem, total, tables)


def _decode_sync_process(
    words, total, tables: _DecodeTables, ranges, executor
) -> np.ndarray | None:
    """Sync-range decode fanned out across *processes*.

    The payload words are staged once in shared memory; each worker
    receives only (segment ref, its range bounds, the header-form code
    table) and returns its freshly-decoded symbols.  Returns ``None``
    when shared memory is unavailable so the caller can fall back to
    the in-process path (reusing the same ``words`` and ``ranges``).
    """
    from ..parallel import shm as _shm

    try:
        ref, block = _shm.share_array(words)
    except _shm.ShmUnavailable:
        return None
    try:
        table_key = tables.table_json
        rows = [(ref, s, e, r, total, table_key) for s, e, r in ranges]
        parts = executor.map(_decode_sync_range_worker, *zip(*rows))
        return np.concatenate(parts)
    finally:
        block.destroy()


# worker-resident decode tables, keyed by the header-form table JSON —
# a worker that gets several ranges of one payload builds them once
_WORKER_TABLE_CACHE: dict[str, "_DecodeTables"] = {}


def _decode_sync_range_worker(ref, starts, ends, rem, total, table_json):
    """Process-pool work unit: decode one run of sync blocks from shm."""
    tables = _WORKER_TABLE_CACHE.get(table_json)
    if tables is None:
        if len(_WORKER_TABLE_CACHE) >= 8:
            _WORKER_TABLE_CACHE.clear()
        tables = _DecodeTables(code_from_table(json.loads(table_json)))
        _WORKER_TABLE_CACHE[table_json] = tables
    lease = ref.open()
    try:
        # _decode_sync_range only reads the words through fancy indexing
        # (copies), so nothing it returns aliases the shared segment
        return _decode_sync_range(lease.view, starts, ends, rem, total, tables)
    finally:
        lease.close()


def _decode_sync_range(
    words, starts, ends, rem, total, tables: _DecodeTables
) -> np.ndarray:
    """Decode one run of sync blocks, dispatched through the launcher.

    The compiled backend walks each block to completion independently
    (blocks parallelize); the NumPy path advances all block cursors in
    vectorized lockstep.  Same tables, same windows, same outputs —
    and the same ``ValueError`` messages on corrupt payloads.
    """
    ran, out = maybe_launch(
        "huff_decode",
        (int(total),),
        np.int64,
        np.asarray(words, dtype=np.uint64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        int(rem),
        int(total),
        tables.lens_arr,
        tables.first_arr,
        tables.count_arr,
        tables.base_arr,
        tables.limits,
        tables.flat_syms,
        int(tables.esc_flat),
        int(tables.esc_len or 0),
        _SYNC_BLOCK,
    )
    if ran:
        return out
    return _decode_sync_range_numpy(words, starts, ends, rem, total, tables)


def _decode_sync_range_numpy(
    words, starts, ends, rem, total, tables: _DecodeTables
) -> np.ndarray:
    """Lockstep-decode one contiguous run of sync blocks.

    Every block holds :data:`_SYNC_BLOCK` symbols except the last of
    the run, which holds ``rem``.
    """
    n_blocks = len(starts)
    out = np.empty((n_blocks, _SYNC_BLOCK), dtype=np.int64)
    pos = starts.copy()
    esc_flat, esc_len = tables.esc_flat, tables.esc_len
    for t in range(_SYNC_BLOCK):
        m = n_blocks if t < rem else n_blocks - 1
        p = pos[:m]
        win = _windows_at(words, p)
        L, flat, valid = tables.classify(win)
        if not valid.all():
            raise ValueError("corrupt Huffman payload: no codeword matches")
        sym = tables.flat_syms[flat]
        if esc_flat >= 0:
            em = flat == esc_flat
            if em.any():
                raw = _windows_at(words, p[em] + esc_len)
                sym[em] = raw.astype(np.int64)  # two's complement
                L = L + np.where(em, 64, 0)
        out[:m, t] = sym
        p += L
        if p.max(initial=0) > total:
            raise ValueError("truncated Huffman payload")
    if not np.array_equal(pos, ends):
        raise ValueError("corrupt Huffman payload: sync mismatch")
    return np.concatenate([out[:-1].reshape(-1), out[-1, :rem]])


def _decode_chain(payload, n, total, tables: _DecodeTables) -> np.ndarray:
    """Whole-stream classification + pointer-doubling chain resolution."""
    words = _payload_words(payload, total, spill=1)
    win = _windows_at(words, np.arange(total, dtype=np.int64))
    L_at, flat_at, valid = tables.classify(win)
    len_at = np.where(valid, L_at, 0)
    step = len_at.copy()
    esc_flat, esc_len = tables.esc_flat, tables.esc_len
    if esc_flat >= 0:
        step[valid & (flat_at == esc_flat)] += 64

    nxt = np.empty(total + 1, dtype=np.int64)
    np.add(np.arange(total, dtype=np.int64), step, out=nxt[:total])
    nxt[total] = total  # sentinel self-loop at end-of-stream
    nxt[:total][~valid] = total  # no codeword starts here; flagged if visited
    np.minimum(nxt, total, out=nxt)

    # orbit of position 0 under `nxt` by pointer doubling: when `pos`
    # holds the first m codeword starts and J = nxt^m, J[pos] is the
    # next m starts.
    pos = np.zeros(1, dtype=np.int64)
    J = nxt
    while pos.size < n:
        pos = np.concatenate([pos, J[pos]])
        if pos.size < n:
            J = J[J]
    pos = pos[:n]

    overrun = np.flatnonzero(pos >= total)
    if overrun.size:
        k = int(overrun[0])
        if k > 0 and len_at[pos[k - 1]] == 0:
            raise ValueError("corrupt Huffman payload: no codeword matches")
        raise ValueError("truncated Huffman payload")
    if len_at[pos[-1]] == 0:
        raise ValueError("corrupt Huffman payload: no codeword matches")
    if int(pos[-1] + step[pos[-1]]) > total:
        raise ValueError("truncated Huffman payload")

    ranks = flat_at[pos]
    out = tables.flat_syms[ranks]
    if esc_flat >= 0:
        em = ranks == esc_flat
        if np.any(em):
            pe = pos[em] + esc_len  # start of the 64 raw bits
            out[em] = win[pe].astype(np.int64)  # two's complement
    return out


# ----------------------------------------------------------------------
# scalar reference implementations (cross-checks for the fast path)


def huffman_encode_scalar(values: np.ndarray, max_table: int = 4096) -> tuple[bytes, dict]:
    """Per-element/per-bit reference encoder (bit-identical payloads)."""
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if values.size == 0:
        return b"", {"n": 0, "bits": 0, "table": []}
    code = _build_code(values, max_table)
    esc_len = code.lengths.get(_ESCAPE)
    # emit (code, length) per element, tracking sync-block bit offsets
    bit_chunks: list[tuple[int, int]] = []
    sync: list[int] = []
    cum_bits = 0
    table_codes = code.codes
    table_lengths = code.lengths
    for i, v in enumerate(values.tolist()):
        if i and i % _SYNC_BLOCK == 0:
            sync.append(cum_bits)
        if v in table_codes:
            bit_chunks.append((table_codes[v], table_lengths[v]))
            cum_bits += table_lengths[v]
        else:
            if esc_len is None:
                raise AssertionError("value outside table but no escape code")
            bit_chunks.append((table_codes[_ESCAPE], esc_len))
            bit_chunks.append((v & ((1 << 64) - 1), 64))
            cum_bits += esc_len + 64
    # pack MSB-first
    total_bits = sum(ln for _, ln in bit_chunks)
    buf = np.zeros((total_bits + 7) // 8, dtype=np.uint8)
    pos = 0
    for val, ln in bit_chunks:
        for shift in range(ln - 1, -1, -1):
            if (val >> shift) & 1:
                buf[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return buf.tobytes(), _header(code, values.size, total_bits, sync)


def huffman_decode_scalar(payload: bytes, header: dict) -> np.ndarray:
    """Per-bit reference decoder matching :func:`huffman_encode_scalar`."""
    if int(header["n"]) == 0:
        return np.empty(0, dtype=np.int64)
    code = HuffmanCode.from_lengths(_lengths_from_header(header))
    # first-code/first-symbol tables per length for canonical decoding
    by_len: dict[int, dict[int, object]] = {}
    for sym, c in code.codes.items():
        by_len.setdefault(code.lengths[sym], {})[c] = sym
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[: header["bits"]]
    out = np.empty(header["n"], dtype=np.int64)
    pos = 0
    acc = 0
    acc_len = 0
    i = 0
    n_bits = bits.shape[0]
    max_len = max(by_len) if by_len else 1
    while i < header["n"]:
        sym = None
        while sym is None:
            if pos >= n_bits:
                raise ValueError("truncated Huffman payload")
            acc = (acc << 1) | int(bits[pos])
            acc_len += 1
            pos += 1
            if acc_len > max_len and acc_len > 64:
                raise ValueError("corrupt Huffman payload: code too long")
            table = by_len.get(acc_len)
            if table is not None and acc in table:
                sym = table[acc]
        acc = 0
        acc_len = 0
        if sym is _ESCAPE:
            if pos + 64 > n_bits:
                raise ValueError("truncated escape payload")
            raw = 0
            for _ in range(64):
                raw = (raw << 1) | int(bits[pos])
                pos += 1
            # interpret as signed 64-bit
            if raw >= 1 << 63:
                raw -= 1 << 64
            out[i] = raw
        else:
            out[i] = sym
        i += 1
    return out
