"""Cycle-completeness and its cycle-space cores against the walks they replaced.

``kernel_walk_cycle_supports`` is the cycle enumeration as it stood before
the lazy sorted-span walk: the Gray-code walk over all 2^nullity GF(2) kernel
vectors, each split into d-path components by a BFS, deduplicated and sorted
by (size, mask).  ``search_is_orientable`` is the Face-based orientability
test as it stood before the mask-native sign core.

``kernel_walk_cycle_complete`` is the plain ``is_d_cycle_complete`` as it
stood before the window sweep, and ``kernel_walk_orientably_complete`` the
orientable one as it stood before the lazy walk: it runs the whole
orientability test on every cycle in (size, mask) order and tests the
orientable ones for orientable vertex-minimality, built on the two oracles
above.  The new routes must give the same verdict, or the same refusal
(message, ``needed`` and ``cap``), on seeded random pure complexes and on
every corpus file at every dimension.
"""

import collections
import functools
import itertools
import math
import random
from pathlib import Path

import pytest

from chorded import CapExceeded, Complex, Face, is_d_cycle_complete, is_orientable, pure_skeleton
from chorded.cli import parse_facet_file
from chorded.complex_core import _bits
from chorded.cycles import (
    CycleRecord,
    _cycle_walk,
    _subface_columns,
    cycle_supports,
    enumerate_cycles_within,
    face_columns,
    faces_of,
    faces_within,
    is_vertex_minimal,
    iter_cycle_supports,
    nullity,
)
from chorded.field_linalg import DEFAULT_KERNEL_CAP, gf2_kernel_masks

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.facets"))


def kernel_walk_cycle_supports(face_masks: list[int], cap: int) -> list[int]:
    """Every cycle as a column mask: each kernel vector's d-path components, deduplicated and sorted."""
    if not face_masks:
        return []
    subfaces = _subface_columns(face_masks)
    basis = gf2_kernel_masks(list(subfaces.values()), len(face_masks))
    return sorted(_cycle_walk(subfaces, basis, len(face_masks), cap), key=lambda m: (m.bit_count(), m))


def search_is_orientable(cycle: CycleRecord, cap: int = DEFAULT_KERNEL_CAP) -> dict[Face, int] | None:
    """Face signs by propagation across subfaces of incidence 2, then a backtracking search."""
    faces = face_columns(cycle.faces)
    k = len(faces)
    inc: dict[int, list[tuple[int, int]]] = {}
    for idx, f in enumerate(faces):
        for j, v in enumerate(f.vertices):
            sigma = -1 if j & 1 else 1
            sub = f.mask ^ (1 << v)
            inc.setdefault(sub, []).append((idx, sigma))

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

    collapsed: list[dict[int, int]] = []
    for lst in constraints:
        coeff: dict[int, int] = {}
        for idx, sigma in lst:
            coeff[comp[idx]] = coeff.get(comp[idx], 0) + sigma * rel[idx]
        collapsed.append(coeff)

    by_last_comp: list[list[dict[int, int]]] = [[] for _ in range(ncomp)]
    for coeff in collapsed:
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
    return {faces[i]: rel[i] * signs[comp[i]] for i in range(k)}


def kernel_walk_cycle_complete(c: Complex, d: int, cap: int = DEFAULT_KERNEL_CAP) -> bool:
    """Whether every vertex-minimal cycle is d-complete, by walking every kernel vector."""
    masks = [f.mask for f in face_columns(c.faces(d))]
    for comp in kernel_walk_cycle_supports(masks, cap):
        vmask = 0
        for j in _bits(comp):
            vmask |= masks[j]
        complete = comp.bit_count() == math.comb(vmask.bit_count(), d + 1)
        if is_vertex_minimal(c, d, vmask, False, cap) and not complete:
            return False
    return True


@functools.lru_cache(maxsize=None)
def walk_orientable_cycle_within(c: Complex, d: int, wmask: int, cap: int) -> bool:
    """Whether some cycle with faces inside ``wmask`` is orientable, by the old walk and search."""
    faces = faces_within(c, d, wmask)
    return any(
        search_is_orientable(CycleRecord(d, faces_of(comp, faces)), cap) is not None
        for comp in kernel_walk_cycle_supports([f.mask for f in faces], cap)
    )


def kernel_walk_orientably_complete(c: Complex, d: int, cap: int = DEFAULT_KERNEL_CAP) -> bool:
    """Whether every orientable, orientably vertex-minimal cycle is d-complete, cycle by cycle."""
    faces = face_columns(c.faces(d))
    masks = [f.mask for f in faces]
    for comp in kernel_walk_cycle_supports(masks, cap):
        if search_is_orientable(CycleRecord(d, faces_of(comp, faces)), cap) is None:
            continue
        vmask = 0
        for j in _bits(comp):
            vmask |= masks[j]
        complete = comp.bit_count() == math.comb(vmask.bit_count(), d + 1)
        minimal = not any(walk_orientable_cycle_within(c, d, vmask ^ (1 << v), cap) for v in _bits(vmask))
        if minimal and not complete:
            return False
    return True


def outcome(fn, *args):
    """A verdict, or a refusal as (message, needed, cap)."""
    try:
        return fn(*args)
    except CapExceeded as exc:
        return str(exc), exc.needed, exc.cap


def random_pure_complex(rng: random.Random, d: int, max_vertices: int) -> Complex:
    """Each d-face on up to ``max_vertices`` vertices kept with one seeded density."""
    n = rng.randint(d + 2, max_vertices)
    p = rng.choice((0.3, 0.5, 0.7, 0.85, 0.95))
    faces = [Face.of(s) for s in itertools.combinations(range(n), d + 1) if rng.random() < p]
    return Complex(n, faces or [Face.of(range(d + 1))])


@pytest.mark.parametrize("d,max_vertices", [(1, 9), (2, 8), (3, 7)])
def test_window_sweep_matches_kernel_walk_on_random_complexes(d, max_vertices):
    rng = random.Random(6000 + d)
    verdicts = []
    for _ in range(130):
        c = random_pure_complex(rng, d, max_vertices)
        try:
            expected = kernel_walk_cycle_complete(c, d, 1 << 12)
        except CapExceeded:
            continue  # the walk's kernel is too large to take as a reference here
        assert is_d_cycle_complete(c, d) == expected, sorted(f.vertices for f in c.faces(d))
        verdicts.append(expected)
    # 107, 109 and 122 decided at d = 1, 2, 3, with 35, 20 and 12 negatives
    assert len(verdicts) >= 100 and verdicts.count(False) >= 10


def test_window_sweep_matches_kernel_walk_on_corpus():
    for path in sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.facets")):
        c = parse_facet_file(path.read_text(encoding="utf-8"))
        for d in range(c.dim + 1):
            skeleton = pure_skeleton(c, d)
            assert is_d_cycle_complete(skeleton, d) == kernel_walk_cycle_complete(skeleton, d), (path.name, d)


@pytest.mark.parametrize("d,max_vertices", [(1, 8), (2, 7), (3, 7)])
def test_orientable_walk_matches_eager_walk_on_random_complexes(d, max_vertices):
    rng = random.Random(7000 + d)
    kinds = collections.Counter()
    for _ in range(80):
        c = random_pure_complex(rng, d, max_vertices)
        if nullity([f.mask for f in c.faces(d)]) > 12:
            continue  # the eager walk's kernel is too large to take as a reference here
        for cap in (1 << 4, 1 << 6, 1 << 8, DEFAULT_KERNEL_CAP):
            expected = outcome(kernel_walk_orientably_complete, c, d, cap)
            assert outcome(is_d_cycle_complete, c, d, True, cap) == expected, (cap, sorted(f.vertices for f in c.faces(d)))
            kinds[expected if isinstance(expected, bool) else expected[0].split()[0]] += 1
    # verdicts both ways, kernels refused, and at d = 1 sign searches refused inside the walk
    assert kinds[True] and kinds[False] and kinds["cycle"], kinds
    assert kinds["orientability"] or d > 1, kinds


def test_orientable_walk_matches_eager_walk_on_corpus():
    for path in CORPUS:
        c = parse_facet_file(path.read_text(encoding="utf-8"))
        for d in range(c.dim + 1):
            if (path.stem, d) == ("seven_vertex_counterexample", 2):
                continue  # the eager walk needs about a minute for its 2^19 kernel vectors
            skeleton = pure_skeleton(c, d)
            for cap in (1 << 6, 1 << 8, DEFAULT_KERNEL_CAP):
                expected = outcome(kernel_walk_orientably_complete, skeleton, d, cap)
                assert outcome(is_d_cycle_complete, skeleton, d, True, cap) == expected, (path.name, d, cap)


def test_seven_vertex_orientable_refusal_is_pinned(counterexample7):
    with pytest.raises(CapExceeded) as err:
        is_d_cycle_complete(pure_skeleton(counterexample7, 1), 1, True)
    assert str(err.value) == "orientability search over 2^21 sign choices"
    assert (err.value.needed, err.value.cap) == (1 << 21, 1 << 20)


def random_face_set(rng: random.Random, d: int, nfaces: int, boundaries: int) -> list[int]:
    """``nfaces`` d-face masks in column order: (d+1)-simplex boundaries glued into a stacked d-tree.

    The tree adds one face on a new vertex at a time, so it carries no
    cycle, and each boundary adds at most d+2 to the nullity.  Vertex ids
    are shuffled so that the cycles' columns spread over the 64-bit words.
    """
    faces = {(1 << (d + 1)) - 1}
    n = d + 1

    def grow(target):
        nonlocal n
        while len(faces) < target:
            f = rng.choice(sorted(faces))
            faces.add(f ^ (1 << rng.choice(list(_bits(f)))) | 1 << n)
            n += 1

    grow(nfaces - (d + 2) * boundaries)
    for _ in range(boundaries):
        lo = rng.randrange(max(1, n - 2 * d - 3))
        top = sum(1 << v for v in rng.sample(range(lo, min(n, lo + 2 * d + 3)), d + 2))
        faces.update(top ^ (1 << v) for v in _bits(top))
    grow(nfaces)
    relabel = list(range(n))
    rng.shuffle(relabel)
    return [f.mask for f in face_columns(Face.of(relabel[v] for v in _bits(m)) for m in faces)]


@pytest.mark.parametrize("nfaces", [20, 63, 64, 65, 129])
@pytest.mark.parametrize("d", [1, 2])
def test_lazy_walk_matches_kernel_walk_on_random_face_sets(d, nfaces):
    rng = random.Random(100 * d + nfaces)
    high = 0  # the cycles with a column past the first 64-bit word
    for boundaries in (1, 2, 3, 3, 3):
        masks = random_face_set(rng, d, nfaces, boundaries)
        assert len(masks) == nfaces
        expected = kernel_walk_cycle_supports(masks, DEFAULT_KERNEL_CAP)
        assert cycle_supports(masks, DEFAULT_KERNEL_CAP) == expected
        high += sum(m >> 64 != 0 for m in expected)
        cap = 1 << boundaries
        assert outcome(cycle_supports, masks, cap) == outcome(kernel_walk_cycle_supports, masks, cap)
    assert (high > 0) == (nfaces > 64)


def two_tree_edges(rng: random.Random, triangles: int, pendants: int) -> tuple[int, list[int]]:
    """Edge masks in column order of a 2-tree of ``triangles`` triangles with ``pendants`` tree edges hung on it.

    Each triangle after the first adds a vertex on an existing edge, so the
    nullity is ``triangles``.  Every induced cycle of a 2-tree is a
    triangle, so no cycle of more than three edges is vertex-minimal and
    the orientable walk visits the whole span.  Vertex ids are shuffled.
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    n = 3
    for _ in range(triangles - 1):
        a, b = rng.choice(edges)
        edges += [(a, n), (b, n)]
        n += 1
    for _ in range(pendants):
        edges.append((rng.randrange(n), n))
        n += 1
    relabel = list(range(n))
    rng.shuffle(relabel)
    return n, [f.mask for f in face_columns(Face.of((relabel[a], relabel[b])) for a, b in edges)]


def assert_walks_agree(n: int, d: int, masks: list[int], caps) -> list[int]:
    """Supports, windows and orientable outcomes of the chunked walk against the kernel walks; returns the cycles."""
    expected = kernel_walk_cycle_supports(masks, DEFAULT_KERNEL_CAP)
    pairs = list(iter_cycle_supports(masks, DEFAULT_KERNEL_CAP))
    assert [support for support, _ in pairs] == expected
    for support, window in pairs:
        assert window == functools.reduce(int.__or__, (masks[j] for j in _bits(support)))
    c = Complex(n, [Face(m) for m in masks])
    for cap in caps:
        assert outcome(cycle_supports, masks, cap) == outcome(kernel_walk_cycle_supports, masks, cap)
        assert outcome(is_d_cycle_complete, c, d, True, cap) == outcome(kernel_walk_orientably_complete, c, d, cap)
    return expected


@pytest.mark.parametrize("triangles", [13, 14])
def test_chunked_walk_matches_kernel_walk_across_chunks(triangles):
    # spans of 2^13 and 2^14 vectors: the chunks of 16, 32, ..., 4096 vectors
    # and then whole ones of packed._UNPACK, over 67 and 69 columns
    from chorded import packed

    n, masks = two_tree_edges(random.Random(triangles), triangles, 40)
    assert 1 << nullity(masks) > packed._UNPACK and len(masks) > 64
    expected = assert_walks_agree(n, 1, masks, (1 << 4, 1 << 13, DEFAULT_KERNEL_CAP))
    assert len(expected) > packed._UNPACK and any(m >> 64 for m in expected) == (triangles == 14)


def test_chunked_walk_matches_kernel_walk_on_sparse_wide_span():
    # 13 tetrahedron boundaries in a stacked 2-tree of 100 faces: a span of
    # 8191 vectors of which only 31 are connected
    masks = random_face_set(random.Random(0), 2, 100, 13)
    assert nullity(masks) == 13
    expected = assert_walks_agree(max(masks).bit_length(), 2, masks, (1 << 8, DEFAULT_KERNEL_CAP))
    assert len(expected) == 31 and any(m >> 64 for m in expected)


def test_chunked_walk_on_empty_and_one_vector_spans():
    # a triangle with 70 tree edges hung on it, and the same without one triangle edge
    n, masks = two_tree_edges(random.Random(5), 1, 70)
    (cycle,) = assert_walks_agree(n, 1, masks, (1, 2, DEFAULT_KERNEL_CAP))
    assert cycle.bit_count() == 3 and len(masks) > 64
    tree = [m for j, m in enumerate(masks) if j != cycle.bit_length() - 1]
    assert assert_walks_agree(n, 1, tree, (1, DEFAULT_KERNEL_CAP)) == []


def test_lazy_walk_matches_kernel_walk_on_corpus():
    for path in CORPUS:
        c = parse_facet_file(path.read_text(encoding="utf-8"))
        for d in range(c.dim + 1):
            masks = [f.mask for f in face_columns(c.faces(d))]
            expected = outcome(kernel_walk_cycle_supports, masks, 1 << 17)
            assert outcome(cycle_supports, masks, 1 << 17) == expected, (path.name, d)


def assert_same_orientation(record: CycleRecord, cap: int):
    """The same witness in the same face order, the same None, or the same refusal; returns it."""
    got = outcome(is_orientable, record, cap)
    want = outcome(search_is_orientable, record, cap)
    assert got == want and list(got or ()) == list(want or ()), (sorted(f.vertices for f in record.faces), cap)
    return got


def test_sign_core_matches_search_on_corpus_cycles():
    rng = random.Random(77)
    for path in CORPUS:
        c = parse_facet_file(path.read_text(encoding="utf-8"))
        for d in range(1, c.dim + 1):
            faces = face_columns(c.faces(d))
            supports = cycle_supports([f.mask for f in faces], DEFAULT_KERNEL_CAP)
            if len(supports) > 4096:  # 32,592, 130,092 and 523,980 cycles: a seeded sample
                supports = rng.sample(supports, 1000)
            for comp in supports:
                record = CycleRecord(d, faces_of(comp, faces))
                for cap in (1 << 3, DEFAULT_KERNEL_CAP):
                    assert_same_orientation(record, cap)


def test_sign_core_matches_search_on_random_cycles():
    rng = random.Random(78)
    seen = {"orientable": 0, "not": 0, "refused": 0}
    for d, max_vertices in [(1, 7), (2, 7), (3, 6)] * 20:
        c = random_pure_complex(rng, d, max_vertices)
        if nullity([f.mask for f in c.faces(d)]) > 12:
            continue
        for record in enumerate_cycles_within(c, d, range(c.vertex_count)):
            for cap in (1 << 2, DEFAULT_KERNEL_CAP):
                got = assert_same_orientation(record, cap)
                seen["refused" if isinstance(got, tuple) else "not" if got is None else "orientable"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("length,expected", [
    (9, False),
    (11, ("orientability search over 2^10 sign choices", 1 << 10, 1 << 9)),
])
def test_first_event_in_size_order_decides(length, expected):
    # an induced cycle on the low vertex ids and K5 on the high ones, at d = 1
    # and cap 2^9: the cycle answers False, and the whole K5 (10 edges, each
    # its own sign class) refuses, so the smaller of the two decides
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += itertools.combinations(range(length, length + 5), 2)
    c = Complex(length + 5, [Face.of(e) for e in edges])
    assert outcome(is_d_cycle_complete, c, 1, True, 1 << 9) == expected
    assert outcome(kernel_walk_orientably_complete, c, 1, 1 << 9) == expected
