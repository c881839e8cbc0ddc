"""Array operations on bit-packed GF(2) data: the kernel span, circuits and their windows.

A set of columns (d-faces in ``face_columns`` order) is packed into uint64
words, one word per 64 columns, low word first; a vertex window is packed
the same way over vertices.  This module owns that layout and the one
order on packed vectors, (popcount, mask) with the high word most
significant (``_sorted_ints``), which ``kernel_span`` gives the span that
``cycles.iter_cycle_supports`` walks.

``circuit_supports`` finds the circuits of a kernel, the face-minimal
cycles, for ``cycles.minimal_kernel_supports``: one rank test per
coefficient set of the kernel basis, run over all of them at once as
array elimination.  Python runs once per chunk of 2^16 sets (``_CHUNK``),
row and slot, not once per vector or circuit.

``decide_circuits`` decides every circuit at once for
``chordality.is_d_chorded``: vertex windows by AND with each vertex's
column mask, completeness by popcount, and closure-window membership by
sweeping the pivot columns of the windows' solver rows (already masks
over the global columns), packed once and keyed by (pivot column,
window).  Its numpy work grows with the columns and vertices the
circuits touch, not with the circuits; Python runs once per window, and
memory grows with the circuits and the solver rows.

The module imports numpy at the top and nothing from ``cycles``, so
``cycles`` and ``chordality`` import it on first use: importing the
package neither loads numpy nor compiles this module.
"""

from __future__ import annotations

import math

import numpy as np

from .complex_core import _bits


_CHUNK = 1 << 16  # coefficient sets eliminated at a time
_UNPACK = 4096  # sorted vectors turned into Python ints at a time


def _popcount(words):
    """Per-element bit counts of a uint64 array."""
    x = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def _sorted_ints(words):
    """Packed vectors sorted by (popcount, mask), as column masks, ``_UNPACK`` at a time.

    ``words`` holds one uint64 array per 64 columns, low word first; the
    sort is one ``np.lexsort`` with the high word most significant.
    """
    order = np.lexsort(words + [sum(_popcount(w) for w in words)])
    for start in range(0, order.size, _UNPACK):
        at = order[start:start + _UNPACK]
        vectors = words[0][at].tolist()
        for j, w in enumerate(words[1:], 1):
            vectors = [lo | hi << (64 * j) for lo, hi in zip(vectors, w[at].tolist())]
        yield vectors


def kernel_span(basis: list[int], ncols: int):
    """The nonzero vectors spanned by ``basis``, built whole by doubling and sorted once.

    They come as column masks in (popcount, mask) order, ``_UNPACK`` at a
    time, so a search over them can stop early.
    """
    words = []
    for shift in range(0, ncols, 64):
        span = np.zeros(1, dtype=np.uint64)
        for b in basis:
            span = np.concatenate([span, span ^ np.uint64(b >> shift & 0xFFFFFFFFFFFFFFFF)])
        words.append(span[1:])
    return _sorted_ints(words)


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
    windows = _circuit_windows(circuits, masks, nverts)
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


def _circuit_windows(circuits, masks: list[int], nverts: int):
    """The vertex window of each packed circuit, packed over vertices.

    Only the faces of some circuit and their vertices are visited, and
    each vertex only at the words where it has such a face.
    """
    union = np.bitwise_or.reduce(circuits, axis=0)
    star: dict[int, dict[int, int]] = {}  # vertex -> {word: its faces' columns there}
    for j in _bits(int.from_bytes(union.astype("<u8").tobytes(), "little")):
        for v in _bits(masks[j]):
            words = star.setdefault(v, {})
            words[j >> 6] = words.get(j >> 6, 0) | 1 << (j & 63)
    windows = np.zeros((circuits.shape[0], max(1, -(-nverts // 64))), dtype=np.uint64)
    for v, words in star.items():
        hit = np.zeros(circuits.shape[0], dtype=bool)
        for k, word in words.items():
            hit |= (circuits[:, k] & np.uint64(word)) != 0
        windows[:, v >> 6] |= hit.astype(np.uint64) << np.uint64(v & 63)
    return windows


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

