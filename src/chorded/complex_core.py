"""Simplicial complexes stored by their facets, plus the purely combinatorial
transforms: skeletons, induced subcomplexes, d-closure, d-complement,
completeness tests, and the two translations between complexes and
square-free monomial ideals.

Vertices are dense integer ids 0..n-1 carrying display labels on the owning
``Complex``.  A ``Face`` is an immutable sorted id subset backed by an int
bitmask, so all set algebra is single-word bit arithmetic.  A ``Complex``
stores only its maximal faces; every face query enumerates subsets of facets
and is memoized per dimension.  Complexes are immutable after construction
and every operation here is a pure function, so callers may evaluate them
concurrently without coordination.

The vertex set of a complex may strictly contain the union of its facets:
isolated vertices are legal and are *not* faces.  Consequently the complex
with facet set {} on a nonempty vertex set is distinct from the complex on
zero vertices, and both are legal values.
"""

from __future__ import annotations

import itertools
import math
from typing import Collection, Iterable, Iterator

from .errors import InputError, PurityError

__all__ = [
    "Face",
    "Complex",
    "MonomialIdeal",
    "build_complex",
    "faces_of_dim",
    "pure_skeleton",
    "induced_subcomplex",
    "d_closure",
    "d_complement",
    "is_d_complete",
    "stanley_reisner_generators",
    "facet_ideal_generators",
    "complex_of_ideal",
]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(ids: Iterable[int]) -> int:
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def _union(masks: Iterable[int]) -> int:
    """The bitwise OR of int masks."""
    out = 0
    for m in masks:
        out |= m
    return out


class Face:
    """An immutable, strictly sorted set of vertex ids (possibly empty).

    ``dim`` is ``len(face) - 1``; the empty face has dimension -1 and is a
    legal value (it indexes the augmentation row of boundary matrices).
    Faces compare and hash by their bitmask; ordering sorts by dimension,
    then lexicographically by the sorted vertex tuple.
    """

    __slots__ = ("mask", "vertices")

    def __init__(self, mask: int):
        if mask < 0:
            raise InputError("face mask must be non-negative")
        self.mask = mask
        self.vertices = tuple(_bits(mask))

    @classmethod
    def of(cls, ids: Iterable[int]) -> "Face":
        ids = list(ids)
        mask = _mask_of(ids)
        face = cls(mask)
        if len(face.vertices) != len(ids):
            raise InputError(f"duplicate vertex id in face {sorted(ids)}")
        return face

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def issubset(self, other: "Face") -> bool:
        return self.mask & ~other.mask == 0

    def without(self, vertex: int) -> "Face":
        if not self.mask >> vertex & 1:
            raise InputError(f"vertex {vertex} not in face {self.vertices}")
        return Face(self.mask ^ (1 << vertex))

    def __contains__(self, vertex: int) -> bool:
        return bool(self.mask >> vertex & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Face) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "Face") -> bool:
        return (len(self.vertices), self.vertices) < (len(other.vertices), other.vertices)

    def __repr__(self) -> str:
        return f"Face{self.vertices!r}"


EMPTY_FACE = Face(0)


def face_columns(faces: Iterable[Face]) -> list[Face]:
    """Faces in column order: sorted by vertex tuple."""
    return sorted(faces, key=lambda f: f.vertices)


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal elements, deterministic order (size desc, then value)."""
    out: list[int] = []
    larger: list[int] = []  # the kept masks strictly larger than m: equal sizes never nest
    size = -1
    for m in sorted(set(masks), key=lambda m: (-m.bit_count(), m)):
        if m.bit_count() != size:
            size, larger = m.bit_count(), out[:]
        if not any(m & ~k == 0 for k in larger):
            out.append(m)
    return out


class Complex:
    """A simplicial complex presented by maximal faces on a fixed vertex set.

    Non-maximal input faces are absorbed on construction.  Equality and hash
    use ``(vertex_count, facets)`` only; labels are presentation metadata.
    ``source_ids`` records, for complexes produced by ``induced_subcomplex``,
    the original id of each re-densified vertex.
    """

    __slots__ = ("vertex_count", "labels", "facets", "source_ids", "_face_cache", "_hash")

    def __init__(
        self,
        vertex_count: int,
        facets: Iterable[Face] = (),
        labels: tuple[str, ...] | None = None,
        source_ids: tuple[int, ...] | None = None,
    ):
        if vertex_count < 0:
            raise InputError("vertex_count must be non-negative")
        if labels is None:
            labels = tuple(f"v{i}" for i in range(vertex_count))
        labels = tuple(labels)
        if len(labels) != vertex_count:
            raise InputError("label list length must equal vertex_count")
        if len(set(labels)) != vertex_count:
            raise InputError("labels must be distinct")
        full = (1 << vertex_count) - 1
        masks = []
        for f in facets:
            if f.mask & ~full:
                raise InputError(f"face {f.vertices} uses vertex ids outside 0..{vertex_count - 1}")
            if f.mask:
                masks.append(f.mask)
        self.vertex_count = vertex_count
        self.labels = labels
        self.facets = frozenset(Face(m) for m in _maximal_masks(masks))
        self.source_ids = source_ids
        self._face_cache: dict[int, frozenset[Face]] = {}
        self._hash = hash((vertex_count, self.facets))

    @property
    def dim(self) -> int:
        return max((f.dim for f in self.facets), default=-1)

    def is_pure(self, d: int | None = None) -> bool:
        dims = {f.dim for f in self.facets}
        if d is None:
            return len(dims) <= 1
        return dims <= {d}

    def face_count(self, i: int) -> int:
        return len(self.faces(i))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(self.face_count(i) for i in range(self.dim + 1))

    def faces(self, i: int) -> frozenset[Face]:
        """All faces of dimension ``i``; ``{EMPTY_FACE}`` for ``i == -1``."""
        if i == -1:
            return frozenset((EMPTY_FACE,))
        if i < -1:
            return frozenset()
        cached = self._face_cache.get(i)
        if cached is not None:
            return cached
        found: set[int] = set()
        for facet in self.facets:
            if facet.dim < i:
                continue
            for combo in itertools.combinations(facet.vertices, i + 1):
                found.add(_mask_of(combo))
        result = frozenset(Face(m) for m in found)
        self._face_cache[i] = result
        return result

    def label_set(self, face: Face) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in face.vertices)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Complex)
            and self.vertex_count == other.vertex_count
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        names = sorted("-".join(self.label_set(f)) for f in self.facets)
        return f"Complex(n={self.vertex_count}, <{', '.join(names)}>)"


class MonomialIdeal:
    """A square-free monomial ideal given by its minimal generators.

    Each generator is a ``Face`` read as the support of a square-free
    monomial in ``variable_count`` variables.  Construction discards
    non-minimal generators so the stored set is an antichain; the empty
    generator (the unit monomial) is rejected.  The zero ideal is the one
    with no generators.
    """

    __slots__ = ("variable_count", "labels", "generators", "_hash")

    def __init__(
        self,
        variable_count: int,
        generators: Iterable[Face] = (),
        labels: tuple[str, ...] | None = None,
    ):
        if variable_count < 0:
            raise InputError("variable_count must be non-negative")
        if labels is None:
            labels = tuple(f"x{i}" for i in range(variable_count))
        labels = tuple(labels)
        if len(labels) != variable_count or len(set(labels)) != variable_count:
            raise InputError("labels must be distinct and match variable_count")
        full = (1 << variable_count) - 1
        masks = []
        for g in generators:
            if g.mask == 0:
                raise InputError("the unit monomial cannot generate a proper ideal")
            if g.mask & ~full:
                raise InputError(f"generator {g.vertices} uses variables outside 0..{variable_count - 1}")
            masks.append(g.mask)
        # minimal under divisibility: drop any generator strictly containing another
        uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
        minimal: list[int] = []
        for m in uniq:
            if not any(k & ~m == 0 for k in minimal):
                minimal.append(m)
        self.variable_count = variable_count
        self.labels = labels
        self.generators = frozenset(Face(m) for m in minimal)
        self._hash = hash((variable_count, self.generators))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def degrees(self) -> set[int]:
        return {len(g) for g in self.generators}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.variable_count == other.variable_count
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        gens = sorted("*".join(self.labels[v] for v in g.vertices) for g in self.generators)
        return f"MonomialIdeal({', '.join(gens) if gens else '0'})"


def build_complex(
    facets: Iterable[Iterable[str]],
    extra_vertices: Iterable[str] = (),
) -> Complex:
    """Build a complex from facets given as label sequences.

    Ids are assigned densely in first-seen order over the facet sequence,
    then over ``extra_vertices``.  Non-maximal input facets are absorbed.
    A label repeated inside one facet is an ``InputError``.
    """
    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(label: str) -> int:
        if not isinstance(label, str) or not label:
            raise InputError(f"labels must be nonempty strings, got {label!r}")
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    face_masks: list[int] = []
    for facet in facets:
        seen: set[int] = set()
        mask = 0
        for lab in facet:
            v = intern(lab)
            if v in seen:
                raise InputError(f"duplicate label {lab!r} in facet")
            seen.add(v)
            mask |= 1 << v
        if mask:
            face_masks.append(mask)
    for lab in extra_vertices:
        intern(lab)
    return Complex(len(labels), (Face(m) for m in face_masks), tuple(labels))


def faces_of_dim(c: Complex, i: int) -> frozenset[Face]:
    """The i-dimensional faces of ``c`` (subsets of facets of size i+1)."""
    return c.faces(i)


def pure_skeleton(c: Complex, d: int) -> Complex:
    """The complex on the same vertex set whose facets are the d-faces of ``c``."""
    if d < 0:
        raise InputError("skeleton dimension must be non-negative")
    return Complex(c.vertex_count, c.faces(d), c.labels)


def induced_subcomplex(c: Complex, w: Iterable[int]) -> Complex:
    """The subcomplex of faces contained in ``w``, re-densified onto ``w``.

    The returned complex records the original ids in ``source_ids`` and
    keeps the original labels for its vertices.
    """
    w = sorted(set(w))
    for v in w:
        if not (0 <= v < c.vertex_count):
            raise InputError(f"unknown vertex id {v}")
    old_to_new = {v: i for i, v in enumerate(w)}
    wmask = _mask_of(w)
    new_facets = []
    for f in c.facets:
        m = f.mask & wmask
        if m:
            new_facets.append(Face.of(old_to_new[v] for v in _bits(m)))
    return Complex(
        len(w),
        new_facets,
        tuple(c.labels[v] for v in w),
        source_ids=tuple(w),
    )


def _require_pure(c: Complex, d: int, op: str) -> frozenset[Face]:
    if d < 0:
        raise PurityError(f"{op}: dimension must be non-negative, got {d}")
    if not c.is_pure(d):
        raise PurityError(
            f"{op}: complex is not pure of dimension {d} (facet dims {sorted({f.dim for f in c.facets})})"
        )
    return c.faces(d)


def _closure_level(level: Collection[int], n: int) -> set[int]:
    """The sets on vertices below ``n`` all of whose one-smaller subsets lie in ``level``.

    ``level`` holds sets of one size.  Each candidate is built once, from
    the subset m without its top vertex, by a vertex v above it: m | v
    qualifies when every s | v with s one smaller than m is in ``level``,
    so v is in the AND of the vertices that extend each such s.
    """
    extends: dict[int, int] = {}  # s -> the vertices v with s | v in level
    for m in level:
        for u in _bits(m):
            s = m ^ (1 << u)
            extends[s] = extends.get(s, 0) | 1 << u
    out: set[int] = set()
    for m in level:
        allowed = ((1 << n) - 1) >> m.bit_length() << m.bit_length()
        for u in _bits(m):
            allowed &= extends[m ^ (1 << u)]
        out.update(m | 1 << v for v in _bits(allowed))
    return out


def d_closure(c: Complex, d: int) -> Complex:
    """Close a pure d-dimensional complex under fully-supported larger faces.

    The result contains ``c``, every vertex subset of size at most ``d``, and
    every set S with |S| > d+1 all of whose (d+1)-subsets are d-faces of
    ``c``.  The d-faces of the result equal the d-faces of ``c``.
    """
    n = c.vertex_count
    # grow level by level: a (k+1)-set qualifies iff all its k-subsets did
    levels: list[set[int]] = [{f.mask for f in _require_pure(c, d, "d_closure")}]
    while levels[-1]:
        levels.append(_closure_level(levels[-1], n))

    small = d if n >= d else n
    candidates: list[int] = [m for level in levels for m in level]
    if small > 0:
        candidates.extend(_mask_of(combo) for combo in itertools.combinations(range(n), small))
    return Complex(n, (Face(m) for m in candidates), c.labels)


def d_complement(c: Complex, d: int) -> Complex:
    """The pure complex on V(c) whose facets are the absent (d+1)-subsets.

    Applying the operation twice recovers the facet set, so it is an
    involution on pure d-dimensional complexes over a fixed vertex set.
    """
    dfaces = _require_pure(c, d, "d_complement")
    present = {f.mask for f in dfaces}
    missing = [
        _mask_of(combo)
        for combo in itertools.combinations(range(c.vertex_count), d + 1)
        if _mask_of(combo) not in present
    ]
    return Complex(c.vertex_count, (Face(m) for m in missing), c.labels)


def is_d_complete(c: Complex, d: int) -> bool:
    """Whether every (d+1)-subset of V(c) is a face of ``c``."""
    if d < 0:
        return True
    return len(c.faces(d)) == math.comb(c.vertex_count, d + 1)


def stanley_reisner_generators(c: Complex) -> MonomialIdeal:
    """The minimal non-faces of ``c`` as a square-free monomial ideal.

    A vertex of ``c`` not covered by any facet is a non-face here, so it
    contributes a degree-1 generator.  The full simplex yields the zero
    ideal.
    """
    n = c.vertex_count
    gens: list[int] = []
    # minimal non-faces have size at most dim(c) + 2; those of size k are the
    # non-faces among the closure candidates over the (k-2)-faces
    for size in range(1, min(n, c.dim + 2) + 1):
        faces_here = {f.mask for f in c.faces(size - 1)}
        gens.extend(m for m in _closure_level({f.mask for f in c.faces(size - 2)}, n) if m not in faces_here)
    return MonomialIdeal(n, (Face(m) for m in gens), c.labels)


def facet_ideal_generators(c: Complex) -> MonomialIdeal:
    """One generator per facet (the facet/edge ideal of the complex)."""
    return MonomialIdeal(c.vertex_count, c.facets, c.labels)


def complex_of_ideal(i: MonomialIdeal) -> Complex:
    """The complex whose faces are the subsets divisible by no generator.

    Inverse to ``stanley_reisner_generators``: round-tripping a complex
    through its ideal returns the same complex.
    """
    n = i.variable_count
    current: list[int] = [(1 << n) - 1]
    for g in sorted(i.generators):
        # Sets missing part of g stay maximal: current is an antichain, so none
        # lies inside a split set s - v.  A split set survives when it is
        # maximal among the split sets and lies inside no kept set.
        kept = [s for s in current if g.mask & ~s]
        split = _maximal_masks(s ^ (1 << v) for s in current if not g.mask & ~s for v in g.vertices)
        current = kept + [m for m in split if not any(m & ~k == 0 for k in kept)]
    return Complex(n, (Face(m) for m in current if m), i.labels)
