"""Detection, enumeration and classification of d-dimensional cycles.

A d-dimensional cycle is a pure d-dimensional, d-path-connected complex in
which every (d-1)-face lies in an even number of d-faces.  Over GF(2) these
are exactly the nonzero kernel vectors of the d-th boundary map with
d-path-connected support (a d-path component of a kernel support is itself
a kernel vector), so the enumerations take them from the 2^nullity kernel
vectors under a cap.

A face tuple in ``face_columns`` order gives the columns, and a set of
faces is an int column mask over them.  A ``CycleRecord`` is such a mask
over a tuple that many records share: the enumerations,
``classify_minimality`` and ``is_d_chorded`` build and read records from
masks, a record's ``faces`` frozenset is built only when a caller reads
it, and the CLI's JSON reads its label lists off the masks.

The packed kernel span, its (popcount, mask) order and the array code over
it live in ``packed``, imported on first use.  ``iter_cycle_supports`` is
the one enumeration of cycles on a face list: ``packed.connected_span``
sorts the span once and, a chunk at a time (doubling up to 4096 vectors),
keeps the d-path-connected vectors by one breadth-first pass in numpy and
gives them their vertex windows by the star-AND.  ``minimal_kernel_supports``
builds no span: a combination of kernel basis vectors is a face-minimal
cycle exactly when a rank over its coefficients is full, and
``packed.circuit_supports`` tests every coefficient set at once.  All of
them take their basis from ``_kernel`` and refuse with ``CapExceeded``
before any work when the kernel holds more than ``cap`` vectors (default
``DEFAULT_KERNEL_CAP`` = 2^20).  Only ``classify_minimality`` still walks a
span in Gray-code order (``_cycle_walk``), which fixes where its refusals
fall.

Orientability is decided over column masks in two stages: ``_sign_classes``
ties the face signs across subfaces of incidence 2 and applies the cap to
the 2^classes sign choices left, and ``_sign_search`` backtracks over them.

Face-minimality is intrinsic (no cycle on a strict subset of the d-faces)
and equals "the restricted cycle space is one-dimensional".  Vertex
minimality is relative to an ambient complex and is decided by sweeping the
maximal strict vertex subsets, which suffices because a cycle on any strict
subset lies within one of them.  Plain d-cycle-completeness needs no
enumeration: ``minimal_windows_complete`` decides it from which vertex
windows carry a nonzero cycle space, with ``cap`` counting windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .complex_core import Complex, Face, _bits, _closure_level, _mask_of, _union, face_columns
from .errors import CapExceeded, InputError
from .field_linalg import DEFAULT_KERNEL_CAP, gf2_kernel_masks, gf2_reduce, gf2_rref, gf2_span

__all__ = [
    "CycleRecord",
    "Partition",
    "d_path_components",
    "is_d_dimensional_cycle",
    "cycle_from_faces",
    "enumerate_cycles_within",
    "classify_minimality",
    "is_orientable",
    "decompose_cycle",
]


_FLAGS = dict.fromkeys(("face_minimal", "vertex_minimal", "orientable", "orientation",
                        "orientably_face_minimal", "orientably_vertex_minimal"))


class _Record:
    """Immutable, but for the face sets cached on first read; equal, hashed and shown by ``_key()``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"


class CycleRecord(_Record):
    """A d-dimensional cycle plus lazily computed classification flags.

    The faces are a column mask ``support`` over ``columns``, a face tuple
    in ``face_columns`` order that records share; ``faces`` is built on
    first read.  ``CycleRecord(dim, faces, **flags)`` wraps a face set and
    ``from_mask`` a mask, and records with equal dimensions, face sets and
    flags are equal.  ``orientation`` holds a witness sign per face when
    the cycle is orientable.  Flags are ``None`` until
    ``classify_minimality`` or ``is_orientable`` fills them in.
    """

    def __init__(self, dim: int, faces, **flags):
        columns = tuple(face_columns(frozenset(faces)))
        vars(self).update(vars(self.from_mask(dim, columns, (1 << len(columns)) - 1, **flags)))

    @classmethod
    def from_mask(cls, dim: int, columns: tuple[Face, ...], support: int, **flags) -> CycleRecord:
        """The cycle on the faces at the set bits of ``support`` over ``columns``."""
        if not flags.keys() <= _FLAGS.keys():
            raise TypeError(f"unknown CycleRecord flags {sorted(flags.keys() - _FLAGS.keys())}")
        record = cls.__new__(cls)
        vars(record).update(_FLAGS, dim=dim, columns=columns, support=support, **flags)
        return record

    @cached_property
    def faces(self) -> frozenset[Face]:
        return frozenset(self.face_list())

    def face_list(self) -> list[Face]:
        """The faces in column order, with no face set built."""
        return [self.columns[j] for j in _bits(self.support)]

    @property
    def vertex_mask(self) -> int:
        return _union(f.mask for f in self.face_list())

    @property
    def vertices(self) -> tuple[int, ...]:
        return Face(self.vertex_mask).vertices

    def is_complete(self) -> bool:
        """d-complete on its own vertex set."""
        return self.support.bit_count() == math.comb(self.vertex_mask.bit_count(), self.dim + 1)

    def sort_key(self) -> tuple:
        return (self.support.bit_count(), tuple(f.vertices for f in self.face_list()))

    def _key(self) -> tuple:
        return (self.dim, tuple(f.mask for f in self.face_list()), *map(vars(self).get, _FLAGS))


@dataclass(frozen=True)
class Partition:
    """Disjoint face blocks covering an input face set."""

    blocks: tuple[frozenset[Face], ...]

    def __post_init__(self):
        seen: set[Face] = set()
        for block in self.blocks:
            if seen & block:
                raise InputError("partition blocks must be disjoint")
            seen |= block

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def covered(self) -> frozenset[Face]:
        out: set[Face] = set()
        for block in self.blocks:
            out |= block
        return frozenset(out)


# ---------------------------------------------------------------------------
# The GF(2) cycle-space core.  Columns index a face list in ``face_columns``
# order; a set of columns is an int bitmask.

def faces_within(c: Complex, d: int, wmask: int) -> list[Face]:
    """The d-faces of ``c`` inside the vertex window ``wmask``, in column order."""
    return face_columns(f for f in c.faces(d) if f.mask & ~wmask == 0)


def faces_of(mask: int, faces: Sequence[Face]) -> frozenset[Face]:
    """The faces at the set bits of a column mask."""
    return frozenset(faces[j] for j in _bits(mask))


def _subface_columns(face_masks: list[int]) -> dict[int, int]:
    """(d-1)-subface -> bitmask of the columns containing it: the boundary rows."""
    table: dict[int, int] = {}
    for j, m in enumerate(face_masks):
        bit = 1 << j
        mm = m
        while mm:
            low = mm & -mm
            table[m ^ low] = table.get(m ^ low, 0) | bit
            mm ^= low
    return table


def _column_adjacency(subfaces: dict[int, int], ncols: int) -> list[int]:
    """adj[j] = bitmask of the other columns sharing a (d-1)-subface with column j."""
    adj = [0] * ncols
    for members in subfaces.values():
        if members.bit_count() >= 2:
            mm = members
            while mm:
                low = mm & -mm
                adj[low.bit_length() - 1] |= members ^ low
                mm ^= low
    return adj


def _component(seed: int, support: int, adj: list[int]) -> int:
    """The connected component of the ``seed`` bit inside a column subset."""
    comp = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & support & ~comp
        comp |= frontier
    return comp


def _support_components(support: int, adj: list[int]) -> list[int]:
    """Connected components of a column subset under the adjacency masks."""
    comps = []
    todo = support
    while todo:
        comp = _component(todo & -todo, support, adj)
        comps.append(comp)
        todo &= ~comp
    return comps


def nullity(face_masks: list[int]) -> int:
    """Dimension of the GF(2) cycle space on the given d-faces."""
    if not face_masks:
        return 0
    _, pivots = gf2_rref(list(_subface_columns(face_masks).values()))
    return len(face_masks) - len(pivots)


def _kernel(face_masks: list[int]) -> tuple[dict[int, int], list[int]]:
    """The boundary rows of the d-faces (``_subface_columns``) and a basis of their GF(2) kernel."""
    subfaces = _subface_columns(face_masks)
    return subfaces, gf2_kernel_masks(list(subfaces.values()), len(face_masks))


def _check_span(basis: list[int], cap: int) -> None:
    """Refuse a cycle-space basis whose span has more than ``cap`` vectors."""
    if (1 << len(basis)) > cap:
        raise CapExceeded(
            f"cycle space has 2^{len(basis)} vectors, above cap {cap}",
            needed=1 << len(basis),
            cap=cap,
        )


def _cycle_walk(subfaces: dict[int, int], basis: list[int], ncols: int, cap: int) -> Iterator[int]:
    """Each d-path component of the nonzero supports spanned by ``basis``, once.

    Yields column masks in the order the Gray-code walk first meets them,
    so a search can stop early; the cap is checked on the first step.
    """
    _check_span(basis, cap)
    adj = _column_adjacency(subfaces, ncols)
    seen: set[int] = set()
    for support in gf2_span(basis):
        for comp in _support_components(support, adj):
            if comp not in seen:
                seen.add(comp)
                yield comp


def iter_cycle_supports(face_masks: list[int], cap: int) -> Iterator[tuple[int, int]]:
    """Every d-dimensional cycle on the given d-faces with its vertex window, in (size, mask) order.

    Yields (column mask, vertex mask) pairs.  The cycles are the nonzero
    kernel vectors whose support is d-path-connected: a d-path component
    of any kernel support is itself a kernel vector, because the faces at a
    (d-1)-subface are pairwise adjacent.  The span is built and sorted
    whole, and its connected vectors and their windows are found one
    chunk at a time (``packed.connected_span``) and yielded lazily, so a
    search can stop at its first hit.  Refuses with ``CapExceeded`` before
    the first vector when the kernel has more than ``cap`` vectors.
    """
    if not face_masks:
        return
    subfaces, basis = _kernel(face_masks)
    _check_span(basis, cap)
    if not basis:
        return
    from . import packed  # imported on first use, as its docstring says

    yield from packed.connected_span(basis, face_masks, list(subfaces.values()))


def cycle_supports(face_masks: list[int], cap: int) -> list[int]:
    """Every d-dimensional cycle on the given d-faces, as a column mask, sorted by (size, mask)."""
    return [support for support, _ in iter_cycle_supports(face_masks, cap)]


def minimal_kernel_supports(face_masks: list[int], cap: int) -> list[int]:
    """Inclusion-minimal nonzero kernel supports (the face-minimal cycles).

    Sorted by support size then column order; each is automatically
    d-path-connected.  They are the circuits of the kernel basis, found by
    one rank test per coefficient set (``packed.circuit_supports``) over
    the up to ``cap`` vectors of the span; refuses with ``CapExceeded``
    before any of them is tested.
    """
    if not face_masks:
        return []
    _, basis = _kernel(face_masks)
    _check_span(basis, cap)
    from . import packed  # imported on first use, as its docstring says

    return packed.circuit_supports(basis, len(face_masks))


@lru_cache(maxsize=65536)
def _nullity_within(c: Complex, d: int, wmask: int) -> int:
    return nullity([f.mask for f in c.faces(d) if f.mask & ~wmask == 0])


@lru_cache(maxsize=16384)
def _orientable_cycle_within(c: Complex, d: int, wmask: int, cap: int) -> bool:
    """Whether some cycle with faces inside ``wmask`` is orientable."""
    masks = [f.mask for f in faces_within(c, d, wmask)]
    return any(
        _orientation([masks[j] for j in _bits(comp)], cap) is not None
        for comp, _ in iter_cycle_supports(masks, cap)
    )


def is_vertex_minimal(
    ambient: Complex, d: int, vmask: int, orientable: bool = False, cap: int = DEFAULT_KERNEL_CAP
) -> bool:
    """Whether no (orientable) d-cycle of ``ambient`` lies on a strict subset of ``vmask``.

    Sweeps the maximal strict subsets, which suffices because a cycle on any
    strict subset lies within one of them.
    """
    for v in Face(vmask).vertices:
        sub = vmask ^ (1 << v)
        if _orientable_cycle_within(ambient, d, sub, cap) if orientable else _nullity_within(ambient, d, sub):
            return False
    return True


def _cycles_avoiding(basis: list[int], columns: int) -> list[int]:
    """A basis of the vectors spanned by ``basis`` that miss every column in ``columns``."""
    pivots: dict[int, tuple[int, int]] = {}
    out = []
    for vec in basis:
        hits, combo = gf2_reduce(pivots, vec & columns, vec)
        if hits:
            pivots[hits & -hits] = (hits, combo)
        else:
            out.append(combo)
    return out


def minimal_windows_complete(face_masks: list[int], d: int, cap: int) -> bool:
    """Whether every inclusion-minimal vertex window holding a d-cycle has d+2 vertices.

    That is d-cycle-completeness: a cycle on such a window uses all of its
    vertices, so it is vertex-minimal, and a complete cycle on more than d+2
    vertices would contain a (d+1)-simplex boundary on a strict subset.

    The window of a cycle space is the vertex set of its support; a window
    of d+2 vertices holds one cycle, the complete one.  A larger window W
    with no complete cycle on d+2 of its vertices contains a minimal window
    of more than d+2 vertices, so the answer is False.  Otherwise take the
    first complete cycle T inside W: a minimal window in W with more than
    d+2 vertices misses some vertex v of T, so it lies in the window of
    W - v, whose cycle space is the part of W's that avoids v's faces.  The
    walk starts at the window of the whole cycle space and follows these
    d+2 children, sweeping sizes largest first so that each window is split
    once.  ``cap`` bounds the windows swept (those of more than d+2
    vertices); each size's exact count is checked against it before any of
    that size's kernels is computed.
    """
    star: dict[int, int] = {}  # vertex -> the columns of the faces containing it
    for j, m in enumerate(face_masks):
        for v in _bits(m):
            star[v] = star.get(v, 0) | 1 << j
    # the vertex sets of the complete cycles: the (d+1)-faces of the d-closure
    tops = sorted(_closure_level(set(face_masks), max(star, default=-1) + 1))
    levels: dict[int, dict[int, tuple[list[int], int]]] = {}  # size -> window -> (cycle basis, T)

    def add(basis: list[int]) -> bool:
        """Queue the window of a cycle space; False when it holds no complete cycle."""
        support = _union(basis)
        wmask = _mask_of(v for v, cols in star.items() if support & cols)
        if wmask.bit_count() > d + 2:
            top = next((t for t in tops if t & ~wmask == 0), 0)
            if not top:
                return False
            levels.setdefault(wmask.bit_count(), {}).setdefault(wmask, (basis, top))
        return True

    if not add(_kernel(face_masks)[1]):
        return False
    swept = 0
    while levels:
        level = levels.pop(max(levels))
        swept += len(level)
        if swept > cap:
            raise CapExceeded(f"window sweep over {swept} vertex windows, above cap {cap}", swept, cap)
        seen: set[int] = set()  # W - v already split; only this level's W reach it
        for wmask, (basis, top) in sorted(level.items()):
            for v in _bits(top):
                sub = wmask ^ (1 << v)
                if sub not in seen:
                    seen.add(sub)
                    if not add(_cycles_avoiding(basis, star[v])):
                        return False
    return True


# ---------------------------------------------------------------------------
# Public operations.

def d_path_components(c: Complex, d: int) -> Partition:
    """Partition the d-faces into d-path-connected components.

    Two d-faces are adjacent when they share exactly d vertices, i.e. a
    common (d-1)-subface.
    """
    faces = face_columns(c.faces(d))
    adj = _column_adjacency(_subface_columns([f.mask for f in faces]), len(faces))
    blocks = [faces_of(comp, faces) for comp in _support_components((1 << len(faces)) - 1, adj)]
    blocks.sort(key=lambda b: tuple(sorted(f.vertices for f in b)))
    return Partition(tuple(blocks))


def _is_cycle(face_masks: list[int], d: int) -> bool:
    """Whether the faces at these masks form a d-dimensional cycle.

    That is: d >= 0, nonempty, every face of d+1 vertices, every
    (d-1)-subface in an even number of them, and one d-path component.
    """
    if d < 0 or not face_masks or any(m.bit_count() != d + 1 for m in face_masks):
        return False
    subfaces = _subface_columns(face_masks)
    if any(members.bit_count() & 1 for members in subfaces.values()):
        return False
    full = (1 << len(face_masks)) - 1
    return _component(1, full, _column_adjacency(subfaces, len(face_masks))) == full


def is_d_dimensional_cycle(c: Complex, d: int) -> bool:
    """Pure of dimension d, d-path-connected, with even subface incidences."""
    return c.is_pure(d) and _is_cycle([f.mask for f in c.facets], d)


def cycle_from_faces(faces, d: int) -> CycleRecord:
    """Wrap a face set as a CycleRecord after validating the cycle axioms."""
    faces = frozenset(faces)
    if not faces:
        raise InputError("a cycle has at least one face")
    if not _is_cycle([f.mask for f in faces], d):
        raise InputError("face set is not a d-dimensional cycle")
    return CycleRecord(d, faces)


def cycle_from_complex(c: Complex, d: int) -> CycleRecord:
    if not is_d_dimensional_cycle(c, d):
        raise InputError("complex is not a d-dimensional cycle")
    return CycleRecord(d, frozenset(c.faces(d)))


def enumerate_cycles_within(
    c: Complex, d: int, w, cap: int = DEFAULT_KERNEL_CAP
) -> list[CycleRecord]:
    """Every d-dimensional cycle whose faces lie in the subcomplex induced on ``w``.

    ``w`` is an iterable of ambient vertex ids; records are in ambient
    coordinates, in ``CycleRecord.sort_key`` order, which is (size, column
    tuple) order, since the columns follow the vertex-tuple order.
    """
    if d < 0:
        raise InputError("dimension must be non-negative")
    wmask = 0
    for v in w:
        if not (0 <= v < c.vertex_count):
            raise InputError(f"unknown vertex id {v}")
        wmask |= 1 << v
    faces = tuple(faces_within(c, d, wmask))
    supports = sorted(cycle_supports([f.mask for f in faces], cap), key=lambda m: (m.bit_count(), tuple(_bits(m))))
    return [CycleRecord.from_mask(d, faces, m) for m in supports]


def _sign_classes(
    face_masks: list[int], cap: int
) -> tuple[list[int], list[int], int, list[list[tuple[int, int]]]] | None:
    """Stage one of the orientability test, over face masks in column order.

    A face's boundary at its j-th vertex carries the induced sign (-1)^j.
    Every subface must lie in an even number of faces, and across a subface
    of incidence exactly 2 the two faces' signs are tied, so the faces fall
    into sign classes, each face with a fixed sign relative to its class.
    Returns (class of each face, relative sign of each face, class count,
    the subfaces of higher incidence as (face, induced sign) lists), or None
    when the parity or the ties already fail.  Refuses with
    ``CapExceeded`` when the 2^classes sign choices exceed ``cap``.
    """
    k = len(face_masks)
    inc: dict[int, list[tuple[int, int]]] = {}
    for idx, m in enumerate(face_masks):
        sigma = 1
        mm = m
        while mm:
            low = mm & -mm
            inc.setdefault(m ^ low, []).append((idx, sigma))
            sigma = -sigma
            mm ^= low

    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    constraints: list[list[tuple[int, int]]] = []
    for lst in inc.values():
        if len(lst) % 2:
            return None
        if len(lst) == 2:
            (a, sa), (b, sb) = lst
            w = -sa * sb
            adj[a].append((b, w))
            adj[b].append((a, w))
        elif len(lst) >= 4:
            constraints.append(lst)

    rel = [0] * k
    comp = [-1] * k
    ncomp = 0
    for start in range(k):
        if comp[start] >= 0:
            continue
        comp[start] = ncomp
        rel[start] = 1
        stack = [start]
        while stack:
            a = stack.pop()
            for b, w in adj[a]:
                want = rel[a] * w
                if comp[b] == -1:
                    comp[b] = ncomp
                    rel[b] = want
                    stack.append(b)
                elif rel[b] != want:
                    return None
        ncomp += 1

    if 1 << ncomp > cap:
        raise CapExceeded(f"orientability search over 2^{ncomp} sign choices", 1 << ncomp, cap)
    return comp, rel, ncomp, constraints


def _sign_search(classes) -> list[int] | None:
    """Stage two: the first balancing sign per class, +1 before -1, as one sign per face; or None."""
    comp, rel, ncomp, constraints = classes
    # collapse each balance constraint to coefficients per sign class
    by_last_comp: list[list[dict[int, int]]] = [[] for _ in range(ncomp)]
    for lst in constraints:
        coeff: dict[int, int] = {}
        for idx, sigma in lst:
            coeff[comp[idx]] = coeff.get(comp[idx], 0) + sigma * rel[idx]
        by_last_comp[max(coeff)].append(coeff)

    signs = [0] * ncomp

    def search(cid: int) -> bool:
        if cid == ncomp:
            return True
        for choice in (1, -1):
            signs[cid] = choice
            if all(
                sum(cf * signs[cc] for cc, cf in coeff.items()) == 0
                for coeff in by_last_comp[cid]
            ) and search(cid + 1):
                return True
        signs[cid] = 0
        return False

    if not search(0):
        return None
    return [r * signs[cc] for cc, r in zip(comp, rel)]


def _orientation(face_masks: list[int], cap: int) -> list[int] | None:
    """One balancing sign per face (masks in column order), or None."""
    classes = _sign_classes(face_masks, cap)
    return None if classes is None else _sign_search(classes)


def is_orientable(cycle: CycleRecord, cap: int = DEFAULT_KERNEL_CAP) -> dict[Face, int] | None:
    """A face -> +-1 assignment whose signed sum has zero boundary, or None.

    Equivalent to the balance condition on induced orientations: around
    every (d-1)-subface the induced orientations split evenly between the
    two classes.  Signs are propagated along subfaces of incidence exactly
    2 (``_sign_classes``, which applies the cap); subfaces of higher
    incidence contribute balance constraints checked by a backtracking
    search over the remaining sign freedom (``_sign_search``).
    """
    faces = cycle.face_list()
    signs = _orientation([f.mask for f in faces], cap)
    return None if signs is None else dict(zip(faces, signs))


def classify_minimality(
    cycle: CycleRecord, ambient: Complex, cap: int = DEFAULT_KERNEL_CAP
) -> CycleRecord:
    """Fill in minimality and orientability flags relative to ``ambient``.

    Face-minimality restricts the cycle space to the cycle's own faces and
    asks for nullity one.  Vertex-minimality sweeps the maximal strict
    vertex subsets of the cycle inside the ambient complex.  The orientable
    variants enumerate the cycles actually present rather than shortcutting
    through the plain flags; a face-minimal cycle is the only cycle on its
    faces, so it is orientably face-minimal as soon as it is orientable.
    """
    masks = [f.mask for f in cycle.face_list()]
    subfaces, basis = _kernel(masks)
    vmask = cycle.vertex_mask
    face_min = len(basis) == 1
    vertex_min = is_vertex_minimal(ambient, cycle.dim, vmask)

    orientation = is_orientable(cycle, cap)
    orientable = orientation is not None

    o_face_min: bool | None = None
    o_vertex_min: bool | None = None
    if orientable:
        full = (1 << len(masks)) - 1
        o_face_min = face_min or not any(
            comp != full and _orientation([masks[j] for j in _bits(comp)], cap) is not None
            for comp in _cycle_walk(subfaces, basis, len(masks), cap)
        )
        o_vertex_min = is_vertex_minimal(ambient, cycle.dim, vmask, True, cap)

    return CycleRecord.from_mask(
        cycle.dim, cycle.columns, cycle.support, face_minimal=face_min, vertex_minimal=vertex_min,
        orientable=orientable,
        orientation=tuple(sorted(orientation.items())) if orientation else None,
        orientably_face_minimal=o_face_min,
        orientably_vertex_minimal=o_vertex_min,
    )


def decompose_cycle(cycle: CycleRecord, cap: int = DEFAULT_KERNEL_CAP) -> Partition:
    """Partition the faces into face-minimal d-dimensional cycles.

    Greedy: repeatedly extract the first cycle (``iter_cycle_supports``)
    among the remaining faces.  It is the smallest (size, column order)
    nonzero kernel vector, whose support is minimal, so it is a
    face-minimal cycle; the remainder stays a disjoint union of cycles, so
    the loop terminates with a full partition.
    """
    columns, remaining = cycle.columns, cycle.support
    blocks: list[int] = []  # column masks over the cycle's columns
    while remaining:
        cols = list(_bits(remaining))
        support, _ = next(iter_cycle_supports([columns[j].mask for j in cols], cap), (0, 0))
        if not support:
            raise InputError("input faces are not a disjoint union of cycles")
        block = sum(1 << cols[i] for i in _bits(support))
        blocks.append(block)
        remaining ^= block
    # columns follow the vertex-tuple order, so column tuples sort as the blocks' sorted faces
    blocks.sort(key=lambda b: tuple(_bits(b)))
    return Partition(tuple(faces_of(b, columns) for b in blocks))
