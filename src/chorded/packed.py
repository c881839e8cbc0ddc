"""Array operations on bit-packed circuits, for ``chordality.is_d_chorded``.

A set of columns (d-faces in ``face_columns`` order) is packed into uint64
words, one word per 64 columns, low word first; a vertex window is packed
the same way over vertices.  ``decide_circuits`` decides every circuit of
the sieve at once: vertex windows by AND with each vertex's column mask,
completeness by popcount, and closure-window membership by sweeping the
pivot columns of the windows' solver rows, packed once and keyed by
(pivot column, window).  Its numpy work grows with the columns and
vertices the circuits touch, not with the circuits; Python runs once per
window, and memory grows with the circuits and the solver rows.

The module imports numpy at the top, so ``chordality`` imports it on first
use: importing the package neither loads numpy nor compiles this module.
"""

from __future__ import annotations

import math

import numpy as np

from .complex_core import _bits
from .cycles import _popcount


def decide_circuits(supports: list[int], masks: list[int], nverts: int, d: int, solver, limit: int | None):
    """Decide which circuits need a chord set and which of those have one.

    ``supports`` are column masks over the d-faces ``masks``; ``solver``
    maps a vertex window to its ``chordality._window_solver`` triple.
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
    bounds = _bounding(circuits, windows, masks, solver)
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


def _bounding(circuits, windows, masks: list[int], solver):
    """Whether each packed circuit's face sum is a (d+1)-boundary in its closure window.

    The circuits are grouped by window, and each window's solver rows,
    mapped to global columns, are packed once, keyed by (pivot column,
    window).  A row's pivot is its lowest bit, and the map keeps column
    order, so sweeping the pivots in ascending order and clearing each
    circuit's bit at every pivot of its window reduces all circuits
    exactly.  A bit with no pivot in the circuit's window stays set, and
    the circuit does not bound.  Memory grows with the solver rows.
    """
    keys, inverse = np.unique(windows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.0.0 gave the row form's inverse the input's shape
    column = {m: j for j, m in enumerate(masks)}
    rows: list[int] = []
    at: list[int] = []  # pivot column * windows + window, of each row
    for w, key in enumerate(keys.tolist()):
        _, local, pivots = solver(sum(word << (64 * k) for k, word in enumerate(key)))
        to_global = [column[m] for m in local]  # increasing: both orders are face_columns order
        for low, (row, _) in pivots.items():
            rows.append(sum(1 << to_global[j] for j in _bits(row)))
            at.append(to_global[low.bit_length() - 1] * len(keys) + w)
    swept = sorted({a // len(keys) for a in at})  # a bare np.unique would import numpy.ma, about 1 MB
    at = np.array(at, dtype=np.int64)
    order = np.argsort(at)
    at, table = at[order], _pack(rows, len(masks))[order]
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

