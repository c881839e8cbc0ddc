"""Boundary matrices, the induced-orientation rule, and reduced Betti numbers.

Face bases are ordered lexicographically by sorted vertex ids and every sign
derives from the sorted order: the boundary of an i-face puts sign (-1)^j on
the subface obtained by deleting the j-th (0-indexed) vertex.  Reduced
homology in degree 0 uses the augmentation row (all ones), so a single point
has vanishing reduced homology everywhere.  The empty complex is assigned 0
in every degree i >= 0; degree -1 is never reported.

Every reduced Betti number comes from one routine over int face masks,
``first_nonvanishing``: ``reduced_betti`` asks it about a whole complex in
one degree, and the linear-resolution sweep (``resolutions``) about every
vertex window of an ideal's complex, extending each window's echelon form
from its lex-prefix parent.  ``boundary_matrix`` and ``field_linalg.rank``
stay a separate, ``Face``-labelled reference, which ``verify-corpus``
checks and the tests hold ``reduced_betti`` to.

Over QQ every window is first ranked modulo the prime 2^31-1.  Ranks mod p
never exceed rational ranks, so a betti number 0 mod p certifies rational
vanishing; only when it is positive are that window's ranks recomputed
exactly by Bareiss elimination.  No floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complex_core import Complex, EMPTY_FACE, Face, _bits, face_columns
from .errors import InputError
from .field_linalg import FieldSpec, SparseMatrix, gf2_reduce, gfp_insert, sparse_rank

__all__ = [
    "OrientedFace",
    "BettiProfile",
    "boundary_matrix",
    "reduced_betti",
    "betti_profile",
    "induced_orientation",
]

CERTIFICATE_PRIME = 2147483647  # 2^31 - 1: rational vanishing is certified by ranks mod this prime


def _permutation_parity(seq: tuple[int, ...]) -> int:
    """0 for even, 1 for odd, by inversion count (sequences here are tiny)."""
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return inv & 1


@dataclass(frozen=True)
class OrientedFace:
    """A face with one of its two orientation classes.

    ``flipped=False`` means the class of the increasing vertex order; two
    explicit orderings related by an even permutation construct equal
    values.
    """

    face: Face
    flipped: bool = False

    @classmethod
    def from_order(cls, ordering: tuple[int, ...] | list[int]) -> "OrientedFace":
        ordering = tuple(ordering)
        face = Face.of(ordering)
        rank_of = {v: i for i, v in enumerate(face.vertices)}
        return cls(face, bool(_permutation_parity(tuple(rank_of[v] for v in ordering))))

    def opposite(self) -> "OrientedFace":
        return OrientedFace(self.face, not self.flipped)

    def representative(self) -> tuple[int, ...]:
        """An explicit vertex ordering in this orientation class."""
        vs = list(self.face.vertices)
        if self.flipped:
            if len(vs) < 2:
                raise InputError("a 0-face has a single orientation")
            vs[0], vs[1] = vs[1], vs[0]
        return tuple(vs)


def induced_orientation(of: OrientedFace, removed_vertex: int) -> OrientedFace:
    """Orient the subface obtained by deleting one vertex.

    With the leading position counted as even: deleting at an odd position
    keeps the remaining order; deleting at an even position flips it.
    """
    if removed_vertex not in of.face:
        raise InputError(f"vertex {removed_vertex} not in face {of.face.vertices}")
    if len(of.face) < 2:
        raise InputError("cannot orient the boundary of a 0-face")
    order = of.representative()
    j = order.index(removed_vertex)
    remaining = order[:j] + order[j + 1 :]
    sub = Face.of(remaining)
    rank_of = {v: i for i, v in enumerate(sub.vertices)}
    parity = _permutation_parity(tuple(rank_of[v] for v in remaining))
    if j % 2 == 0:
        parity ^= 1
    return OrientedFace(sub, bool(parity))


def boundary_matrix(c: Complex, i: int, f: FieldSpec, augmented: bool = False) -> SparseMatrix:
    """The matrix of the i-th boundary map in the sorted-face bases.

    Columns are the i-faces, rows the (i-1)-faces; the entry for deleting
    the j-th vertex of a sorted column face is (-1)^j.  For ``i == 0`` the
    unaugmented matrix has no rows; with ``augmented=True`` it has the
    single augmentation row (all entries 1) labelled by the empty face.
    """
    if i < 0:
        raise InputError("boundary dimension must be non-negative")
    cols = tuple(face_columns(c.faces(i)))
    if i == 0:
        rows: tuple[Face, ...] = (EMPTY_FACE,) if augmented else ()
    else:
        rows = tuple(face_columns(c.faces(i - 1)))
    row_pos = {face: r for r, face in enumerate(rows)}
    entries: list[tuple[int, int, object]] = []
    for jcol, face in enumerate(cols):
        if i == 0:
            if augmented:
                entries.append((0, jcol, 1))
            continue
        for j, v in enumerate(face.vertices):
            sign = -1 if j & 1 else 1
            entries.append((row_pos[face.without(v)], jcol, f.normalize(sign)))
    return SparseMatrix(len(rows), len(cols), entries, rows, cols)


def first_nonvanishing(
    n: int, f: FieldSpec, levels: list[list[int]], sizes, degrees: int
) -> tuple[tuple[int, ...], int, int] | None:
    """The first (window, degree offset, betti) with nonzero reduced homology.

    ``levels`` are sorted face masks of consecutive sizes on n vertices;
    offset j is the faces of ``levels[j + 1]``.  Windows are the vertex sets
    of each size in ``sizes`` (all positive), in (size, lex) order, and
    offsets 0..degrees-1 ascend within a window.

    Each size is one round: a depth-first walk over the lex prefix tree of
    vertex sets, whose nodes of that depth are the windows in lex order.
    All levels share one bit index space, and each face carries its boundary
    vector over the level below.  The child W+v of a prefix W (v > max W)
    adds the faces whose largest vertex is v and whose other vertices lie in
    W to the path's one forward echelon form (``gf2_reduce``,
    ``gfp_insert``), which never changes a kept row: a window's rank in each
    degree is its count of pivots in that level, and leaving a node deletes
    the pivots it added.  Only the current path is held: memory O(n + faces).
    """
    exact = f.kind == "rational"
    p = CERTIFICATE_PRIME if exact else f.p  # None for GF(2), whose boundary vectors are bitmasks
    levels = levels[: degrees + 2]
    if len(levels) < 2:
        return None
    below = {m: r for r, m in enumerate(levels[0])}
    offset = len(levels[0])
    spans = [(0, (1 << offset) - 1)]  # per level: (first bit, width mask)
    vectors: list = [None] * offset  # per bit: the face's boundary vector, over the bits one level down
    contains = [0] * n  # per vertex: the faces through it
    newest = [0] * n  # per vertex: the faces whose largest vertex it is
    for faces in levels[1:]:
        first = offset
        for m in faces:
            bit = 1 << offset
            offset += 1
            signed = []
            sign, rest = 1, m
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                contains[v] |= bit
                signed.append((below[m ^ low], sign))
                sign = -sign
            newest[v] |= bit
            vectors.append(sum(1 << r for r, _ in signed) if p is None else tuple(signed))
        spans.append((first, (1 << len(faces)) - 1))
        below = {m: first + r for r, m in enumerate(faces)}
    spans.append((0, 0))  # nothing above the top level

    pivots: dict = {}  # the current path's echelon form: lowest index (its bit over GF(2)) -> row
    for size in sizes:
        pivots.clear()
        path, saved = [0] * size, [None] * size
        # the node path[:depth] + [v]; excluded: the faces through a vertex below v left out of it
        depth = v = excluded = window = ranked = mark = 0
        while True:
            if v > n - size + depth:  # no vertex left for this slot that still reaches `size`
                if not depth:
                    break
                depth -= 1
                excluded, window, ranked, mark = saved[depth]
                excluded |= contains[path[depth]]
                v = path[depth] + 1
                continue
            while len(pivots) > mark:  # the previous sibling's pivots, and its subtree's
                pivots.popitem()
            new = rest = newest[v] & ~excluded
            got = ranked  # the bits of the pivots' lowest indices
            while rest:
                low = rest & -rest
                rest ^= low
                vec = vectors[low.bit_length() - 1]
                if p is None:
                    row = gf2_reduce(pivots, vec)[0]
                    if row:
                        key = row & -row
                        pivots[key] = row, 0
                        got |= key
                else:
                    key = gfp_insert(pivots, vec, p)
                    if key is not None:
                        got |= 1 << key
            path[depth] = v
            if depth + 1 < size:
                saved[depth] = excluded, window, ranked, mark
                depth += 1
                window |= new
                ranked, mark = got, len(pivots)
                v += 1
                continue
            inside = window | new
            for j in range(degrees):
                first, width = spans[j + 1]
                cols = (inside >> first & width).bit_count()
                if not cols:
                    break
                b = cols - (got >> spans[j][0] & spans[j][1]).bit_count() - (got >> first & width).bit_count()
                if b and exact:  # b is the betti number mod p, an upper bound over QQ
                    b = cols - sum(sparse_rank([vectors[lo + i] for i in _bits(inside >> lo & wide)])
                                   for lo, wide in spans[j + 1 : j + 3])
                if b:
                    return tuple(path), j, b
            excluded |= contains[v]
            v += 1
    return None


@lru_cache(maxsize=65536)
def _betti(c: Complex, i: int, f: FieldSpec) -> int:
    levels = [sorted(face.mask for face in c.faces(k)) for k in (i - 1, i, i + 1)]
    found = first_nonvanishing(c.vertex_count, f, levels, (c.vertex_count,), 1)
    return 0 if found is None else found[2]


def reduced_betti(c: Complex, i: int, f: FieldSpec) -> int:
    """dim of the i-th reduced homology of ``c`` over ``f`` (i >= 0)."""
    if i < 0:
        raise InputError("reduced_betti is defined here for i >= 0 only")
    if i > c.dim:
        return 0
    return _betti(c, i, f)


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers in degrees 0..dim over one field."""

    field: FieldSpec
    dims: tuple[int, ...]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.dims))


def betti_profile(c: Complex, f: FieldSpec) -> BettiProfile:
    return BettiProfile(f, tuple(reduced_betti(c, i, f) for i in range(c.dim + 1)))

