"""Array operations on bit-packed GF(2) data: the kernel span, cycles, circuits and their windows.

A set of columns (d-faces in ``face_columns`` order) is packed into uint64
words, one word per 64 columns, low word first; a vertex window is packed
the same way over vertices.  This module owns that layout and the one
order on packed vectors, (popcount, mask) with the high word most
significant (``np.lexsort``).

``connected_span`` gives ``cycles.iter_cycle_supports`` the cycles of a
kernel with their vertex windows, in that order.  It sorts the span
once, then takes it in chunks of 16 vectors doubling up to 4096
(``_FIRST``, ``_UNPACK``), so that a search that stops early builds
little beyond the span.  A chunk is turned on its side, one bitset over
the chunk per column (``_transpose``), and a breadth-first frontier steps
every vector at once through the boundary rows (``_connected``): Python
runs once per step and chunk, not once per vector.

``circuit_supports`` finds the circuits of a kernel, the face-minimal
cycles, for ``cycles.minimal_kernel_supports``: one rank test per
coefficient set of the kernel basis, run over all of them at once as
array elimination.  Python runs once per chunk of 2^16 sets (``_CHUNK``),
row and slot, not once per vector or circuit.

``decide_circuits`` decides every circuit at once for
``chordality.is_d_chorded``: completeness by popcount, and closure-window
membership by sweeping the pivot columns of the windows' solver rows
(already masks over the global columns), packed once and keyed by (pivot
column, window).  Python runs once per window, and memory grows with the
circuits and the solver rows.

Both take vertex windows from ``_circuit_windows``, the star-AND: one
AND over all vectors of each vertex's faces, word by word, folded into
window words, with no numpy call per vertex.

The module imports numpy at the top and nothing from ``cycles``, so
``cycles`` and ``chordality`` import it on first use: importing the
package neither loads numpy nor compiles this module.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .complex_core import _bits, _union


_CHUNK = 1 << 16  # coefficient sets eliminated at a time
_UNPACK = 4096  # sorted vectors turned into Python ints at a time
_FIRST = 16  # vectors in the first chunk of ``connected_span``
_BLOCK = 1 << 16  # star-AND terms evaluated at a time by ``_circuit_windows``


def _popcount(words):
    """Per-element bit counts of a uint64 array."""
    x = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def _ints(rows) -> list[int]:
    """The rows of an (n, words) uint64 array as Python ints, low word first."""
    vectors = rows[:, 0].tolist()
    for j in range(1, rows.shape[1]):
        vectors = [lo | hi << (64 * j) for lo, hi in zip(vectors, rows[:, j].tolist())]
    return vectors


def _sorted_ints(words):
    """Packed vectors sorted by (popcount, mask), as column masks, ``_UNPACK`` at a time.

    ``words`` holds one uint64 array per 64 columns, low word first; the
    sort is one ``np.lexsort`` with the high word most significant.
    """
    order = np.lexsort(words + [sum(_popcount(w) for w in words)])
    for start in range(0, order.size, _UNPACK):
        yield _ints(np.stack([w[order[start:start + _UNPACK]] for w in words], axis=1))


def connected_span(basis: list[int], masks: list[int], rows: list[int]):
    """Each d-path-connected vector spanned by ``basis``, with its vertex window.

    ``basis`` spans kernel vectors over the d-faces ``masks``, and ``rows``
    are the boundary rows, one column mask per (d-1)-subface
    (``cycles._kernel``): two faces are adjacent when a row holds both.
    Yields (column mask, vertex mask) pairs in (popcount, mask) order.

    The span is built whole by doubling and sorted once, then taken in
    chunks of ``_FIRST`` vectors, doubling up to ``_UNPACK``, so that a
    search that stops early pays for little more than the span.  Each
    chunk is turned on its side (``_transpose``: one bitset over the chunk
    per column), so that one array operation steps every vector at once:
    the connected vectors are those whose reach from their lowest column
    fills their support (``_connected``), and the windows come from the
    vertices' stars (``_circuit_windows``).  Memory is the span plus one
    chunk.

    A span of one vector is yielded at once, with no arrays: the vector is
    connected, because each d-path component of a kernel vector is itself
    a kernel vector, and its window is the union of its faces.  Most walks
    are over such spans (a vertex-minimality test's windows minus a
    vertex), where numpy's fixed cost would outweigh the work.
    """
    if len(basis) == 1:
        yield basis[0], _union(masks[j] for j in _bits(basis[0]))
        return
    ncols = len(masks)
    words = []
    for shift in range(0, ncols, 64):
        span = np.zeros(1, dtype=np.uint64)
        for b in basis:
            span = np.concatenate([span, span ^ np.uint64(b >> shift & 0xFFFFFFFFFFFFFFFF)])
        words.append(span[1:])
    order = np.lexsort(words + [sum(_popcount(w) for w in words)])
    star, steps = _star(masks, _union(basis)), _steps(rows)
    start, size = 0, _FIRST
    while start < order.size:
        at = order[start:start + size]
        chunk = np.stack([w[at] for w in words], axis=1)
        start, size = start + size, min(2 * size, _UNPACK)
        chunk = chunk[_connected(_transpose(chunk, ncols), len(chunk), steps)]
        yield from zip(_ints(chunk), _ints(_circuit_windows(chunk, star)))


def _transpose(rows, m: int):
    """The first m bit columns of packed rows, packed as rows: an (m, ceil(n/64)) uint64 array.

    ``rows`` is an (n, words) uint64 array, bit j of row i at bit j & 63 of
    word j >> 6.  Turning a chunk of vectors on its side gives one bitset
    over the chunk per column, so that one array operation acts on every
    vector at once.
    """
    bits = np.unpackbits(rows.astype("<u8", copy=False).view(np.uint8), axis=1, count=m, bitorder="little")
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    out = np.zeros((m, 8 * max(1, -(-rows.shape[0] // 64))), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def _steps(rows: list[int]):
    """The boundary rows as ``np.bitwise_or.reduceat`` gathers for ``_connected``.

    Returns the columns of each row, row by row, and where each row
    starts; then the rows of each column, column by column, and where each
    column starts.  Every column lies in some row.
    """
    cols = []
    for r in rows:
        while r:
            low = r & -r
            cols.append(low.bit_length() - 1)
            r ^= low
    sizes = np.array([r.bit_count() for r in rows])
    cols = np.array(cols, dtype=np.intp)
    order = np.argsort(cols, kind="stable")
    ordered = cols[order]
    col_starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return cols, np.cumsum(sizes) - sizes, np.repeat(np.arange(len(rows)), sizes)[order], col_starts


def _connected(cols, n: int, steps):
    """Whether each of the n vectors held side-on in ``cols`` (``_transpose``) is d-path-connected.

    ``steps`` is ``_steps`` of the boundary rows.  The reach of every
    vector starts at its lowest column and grows one step at a time, all
    vectors at once: a row is hit when it holds a reached column, and a
    column of the support is reached when one of its rows is hit.  A vector
    is connected when its reach stops growing at its support.
    """
    row_cols, row_starts, col_rows, col_starts = steps
    reach = cols.copy()
    reach[1:] &= ~np.bitwise_or.accumulate(cols, axis=0)[:-1]
    while True:
        hit = np.bitwise_or.reduceat(reach[row_cols], row_starts, axis=0)
        grown = np.bitwise_or.reduceat(hit[col_rows], col_starts, axis=0) & cols
        if not (grown != reach).any():
            break
        reach = grown
    short = np.bitwise_or.reduce(reach ^ cols, axis=0).astype("<u8", copy=False)
    return np.unpackbits(short.view(np.uint8), count=n, bitorder="little") == 0


def _even_table():
    t = np.arange(1 << 16)
    for shift in (8, 4, 2, 1):
        t ^= t >> shift
    return (t & 1) == 0


_EVEN = _even_table()  # whether each 16-bit value has an even bit count


def _even(v, k: int):
    """Whether each element of ``v`` (all below 2^k) is nonzero with an even bit count."""
    f = v
    for shift in (32, 16):
        if k > shift:
            f = f ^ (f >> shift)
    return _EVEN.take(f & 0xFFFF) & (v != 0)


def circuit_supports(basis: list[int], ncols: int) -> list[int]:
    """The circuits of the span of ``basis``, sorted by (popcount, mask).

    A circuit is an inclusion-minimal nonzero support.

    ``basis`` is ``gf2_kernel_masks``'s, which gives each vector a free
    column of its own, so the combination xB of a coefficient set x
    contains yB only if y is a subset of x.  Column c of xB is the parity
    of x & R_c, where R_c is the set of basis vectors holding c.  So yB
    lies inside xB exactly when y is a subset of x orthogonal to every
    row R_c & x with x.R_c even.  x itself is such a y, so xB is a circuit
    exactly when those rows have rank |x| - 1.  A row of one bit is never
    even and nonzero, so only the distinct R_c of two or more bits count.

    The coefficient sets are eliminated together, ``_CHUNK`` at a time, one
    row at a time.  Each set keeps its independent rows in slots by
    insertion order, each with its lowest bit as pivot, and reduces a new
    row against them in that order, so at most min(rows, k - 1) slots are
    used.  A set with fewer even nonzero rows than |x| - 1 is dropped
    before eliminating, and a set stops taking rows once it is decided
    either way.  Only the circuits' supports are built, as packed words,
    and sorted.
    """
    k = len(basis)
    holders: dict[int, int] = {}  # column -> R_c
    for i, vec in enumerate(basis):
        for c in _bits(vec):
            holders[c] = holders.get(c, 0) | 1 << i
    rows = sorted({r for r in holders.values() if r & (r - 1)})
    slots = min(len(rows), k - 1)
    dtype = np.int32 if k < 32 else np.int64
    found = [np.zeros(0, dtype=dtype)]
    for start in range(1, 1 << k, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, 1 << k), dtype=dtype)
        need = _popcount(x.astype(np.uint64)).astype(dtype) - 1
        left = np.zeros_like(x)  # even nonzero rows not yet eliminated
        for r in rows:
            left += _even(x & r, k)
        keep = need <= left
        x, need, left = x[keep], need[keep], left[keep]
        rank = np.zeros_like(x)
        slot = np.zeros((slots, x.size), dtype=dtype)
        pivot = np.zeros((slots, x.size), dtype=dtype)
        used = 0
        for r in rows:
            v = x & r
            even = _even(v, k)
            at = np.flatnonzero(even & (rank < need) & (rank + left >= need))
            left -= even
            w = v[at]
            for s in range(used):
                w ^= slot[s, at] * ((w & pivot[s, at]) != 0)
            at, w = at[w != 0], w[w != 0]
            if at.size:
                slot[rank[at], at] = w
                pivot[rank[at], at] = w & -w
                rank[at] += 1
                used = min(used + 1, slots)
        found.append(x[rank == need])
    flagged = np.concatenate(found).astype(np.uint64)
    words = []
    for shift in range(0, ncols, 64):
        word = np.zeros(flagged.size, dtype=np.uint64)
        for i, vec in enumerate(basis):
            if vec >> shift & 0xFFFFFFFFFFFFFFFF:
                word ^= (flagged >> np.uint64(i) & np.uint64(1)) * np.uint64(vec >> shift & 0xFFFFFFFFFFFFFFFF)
        words.append(word)
    return [v for vectors in _sorted_ints(words) for v in vectors]


def decide_circuits(supports: list[int], masks: list[int], nverts: int, d: int, solver, limit: int | None):
    """Decide which circuits need a chord set and which of those have one.

    ``supports`` are column masks over the d-faces ``masks``; ``solver``
    maps a vertex window to its mask-native solver triple
    (``chordality._window_basis``: window columns, window tops, and pivot
    rows as masks over these same global columns).
    Returns (complete circuits, non-complete circuits, the shown ones):
    the first ``limit`` non-complete circuits whose face sum bounds plus
    every one whose sum does not, as (support, bounds) pairs in
    ``CycleRecord.sort_key`` order.
    """
    circuits = _pack(supports, len(masks))
    (union,) = _ints(np.bitwise_or.reduce(circuits, axis=0, keepdims=True))
    windows = _circuit_windows(circuits, _star(masks, union))
    sizes = _row_popcount(circuits)
    # C(window size, d+1), clipped where no circuit can reach it
    full = np.array([min(math.comb(k, d + 1), len(masks) + 1) for k in range(nverts + 1)], dtype=np.uint64)
    complete = sizes == full[_row_popcount(windows).astype(np.intp)]
    rest = np.flatnonzero(~complete)  # the circuits that need a chord set
    circuits, windows, sizes = circuits[rest], windows[rest], sizes[rest]
    bounds = _bounding(circuits, windows, len(masks), solver)
    # columns follow the vertex-tuple order, and column tuples of one size
    # sort as the bit-reversed masks in reverse
    order = np.lexsort([~_bit_reversed(circuits[:, k]) for k in reversed(range(circuits.shape[1]))] + [sizes])
    keep = ~bounds
    keep[order[bounds[order]][:limit]] = True
    shown = order[keep[order]]
    pairs = [(supports[j], passes) for j, passes in zip(rest[shown].tolist(), bounds[shown].tolist())]
    return int(complete.sum()), int(rest.size), pairs


def _pack(masks: list[int], ncols: int):
    """Column masks as an (n, words) uint64 array."""
    nwords = max(1, -(-ncols // 64))
    raw = b"".join(m.to_bytes(8 * nwords, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), nwords).astype(np.uint64)


def _star(masks: list[int], union: int):
    """The star-AND terms of ``_circuit_windows`` for the columns ``masks``.

    One term per vertex and 64-column word holding some of the vertex's
    faces, in vertex order: that word, those faces, and the vertex's bit
    in its window word.  Then where each window word's terms start.  Only
    the columns in ``union``, those the vectors can hold, are visited.
    """
    star: dict[int, int] = {}  # vertex -> the columns of its faces
    for j in _bits(union):
        m = masks[j]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            star[v] = star.get(v, 0) | 1 << j
            m ^= low
    vertices, words, faces = [], [], []
    for v in sorted(star):
        for k in range(star[v].bit_length() + 63 >> 6):
            word = star[v] >> 64 * k & 0xFFFFFFFFFFFFFFFF
            if word:
                vertices.append(v)
                words.append(k)
                faces.append(word)
    starts = [bisect.bisect_left(vertices, 64 * k) for k in range(vertices[-1] // 64 + 2)]
    bits = np.uint64(1) << np.array([v & 63 for v in vertices], dtype=np.uint64)
    return np.array(words, dtype=np.intp), np.array(faces, dtype=np.uint64)[:, None], bits[:, None], starts


def _circuit_windows(rows, star):
    """The vertex window of each packed vector, packed over vertices: the star-AND.

    ``star`` is ``_star`` of the columns.  A vertex is in a vector's window
    when the vector meets the vertex's faces in some word.  Each term is
    one row of a single AND over all vectors at once, and one OR-reduce per
    window word folds the terms in, so the numpy calls do not grow with the
    vertices.  Vectors are taken ``_BLOCK`` terms' worth at a time, which
    bounds the memory of the terms.
    """
    words, faces, bits, starts = star
    out = np.zeros((len(rows), len(starts) - 1), dtype=np.uint64)
    step = max(1, _BLOCK // len(words))
    for at in range(0, len(rows), step):
        hit = ((rows.T[words, at:at + step] & faces) != 0) * bits
        for k in range(len(starts) - 1):
            out[at:at + step, k] = np.bitwise_or.reduce(hit[starts[k]:starts[k + 1]], axis=0)
    return out


def _row_popcount(rows):
    """The bit count of each row of a packed array."""
    return sum(_popcount(rows[:, k]) for k in range(rows.shape[1]))


def _bounding(circuits, windows, ncols: int, solver):
    """Whether each packed circuit's face sum is a (d+1)-boundary in its closure window.

    The circuits are grouped by window, and each window's solver rows,
    already masks over the global columns, are packed once, keyed by
    (pivot column, window).  A row's pivot is its lowest bit, so sweeping
    the pivots in ascending order and clearing each circuit's bit at every
    pivot of its window reduces all circuits exactly.  A bit with no pivot
    in the circuit's window stays set, and the circuit does not bound.
    Memory grows with the solver rows.
    """
    keys, inverse = np.unique(windows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.0.0 gave the row form's inverse the input's shape
    rows: list[int] = []
    at: list[int] = []  # pivot column * windows + window, of each row
    for w, key in enumerate(keys.tolist()):
        _, _, pivots = solver(sum(word << (64 * k) for k, word in enumerate(key)))
        for low, (row, _) in pivots.items():
            rows.append(row)
            at.append((low.bit_length() - 1) * len(keys) + w)
    swept = sorted({a // len(keys) for a in at})  # a bare np.unique would import numpy.ma, about 1 MB
    at = np.array(at, dtype=np.int64)
    order = np.argsort(at)
    at, table = at[order], _pack(rows, ncols)[order]
    residue = circuits.copy()
    for p in swept:
        hit = np.flatnonzero(residue[:, p >> 6] & np.uint64(1 << (p & 63)))
        want = inverse[hit] + p * len(keys)
        row = np.minimum(np.searchsorted(at, want), len(at) - 1)
        found = at[row] == want
        residue[hit[found]] ^= table[row[found]]
    return ~residue.any(axis=1)


def _bit_reversed(words):
    """Each element of a uint64 array with its 64 bits in reverse order."""
    for shift, mask in ((1, 0x5555555555555555), (2, 0x3333333333333333), (4, 0x0F0F0F0F0F0F0F0F),
                        (8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0x00000000FFFFFFFF)):
        shift, mask = np.uint64(shift), np.uint64(mask)
        words = (words >> shift) & mask | (words & mask) << shift
    return words

