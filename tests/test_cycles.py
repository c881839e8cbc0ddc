import math
from fractions import Fraction

import pytest

from chorded import (
    CapExceeded,
    ChainVector,
    Complex,
    CycleRecord,
    Face,
    GF2,
    InputError,
    RATIONAL,
    boundary_matrix,
    build_complex,
    classify_minimality,
    cycle_from_complex,
    cycle_from_faces,
    d_path_components,
    decompose_cycle,
    enumerate_cycles_within,
    is_d_dimensional_cycle,
    is_orientable,
    pure_skeleton,
)
from chorded.corpus import bipyramid, cycle_graph, octahedron_boundary
from chorded.field_linalg import DEFAULT_KERNEL_CAP, apply_matrix

from conftest import RP2_FACETS


def face_names(c, faces):
    return sorted(tuple(c.labels[v] for v in f.vertices) for f in faces)


def test_d_path_components_chain():
    c = build_complex(["abc", "acd", "ade"])
    part = d_path_components(c, 2)
    assert part.block_count == 1


def test_d_path_components_split():
    c = build_complex(["abc", "cde"])
    part = d_path_components(c, 2)
    assert part.block_count == 2


def test_d_path_components_double_tetra(double_tetra):
    # oracle: check adjacency by hand over all facet pairs
    faces = sorted(double_tetra.faces(2), key=lambda f: f.vertices)
    adjacency = {
        (f.vertices, g.vertices)
        for f in faces
        for g in faces
        if f != g and len(set(f.vertices) & set(g.vertices)) == 2
    }
    assert adjacency  # the two tetrahedra meet through faces sharing edge cd
    assert d_path_components(double_tetra, 2).block_count == 1


def test_is_cycle_tetra(tetra):
    assert is_d_dimensional_cycle(tetra, 2)


def test_is_cycle_rejects_odd_incidence():
    assert not is_d_dimensional_cycle(build_complex(["abc", "abd"]), 2)


def test_is_cycle_rp2(rp2):
    # oracle: every edge of the triangulation lies in exactly two facets
    from collections import Counter

    counts = Counter()
    for facet in RP2_FACETS:
        for e in ((facet[0], facet[1]), (facet[0], facet[2]), (facet[1], facet[2])):
            counts[e] += 1
    assert set(counts.values()) == {2}
    assert is_d_dimensional_cycle(rp2, 2)


def test_is_cycle_requires_purity_and_connectivity():
    assert not is_d_dimensional_cycle(build_complex(["abc", "de"]), 2)
    two_tetra_disjoint = build_complex(
        ["abc", "abd", "acd", "bcd", "efg", "efh", "egh", "fgh"]
    )
    assert not is_d_dimensional_cycle(two_tetra_disjoint, 2)


def test_cycle_from_faces_validates():
    with pytest.raises(InputError):
        cycle_from_faces([Face.of([0, 1, 2])], 2)
    boundary = [Face.of(t) for t in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
    assert cycle_from_faces(boundary, 2).faces == frozenset(boundary)
    with pytest.raises(InputError):  # every face must be a d-face
        cycle_from_faces(boundary + [Face.of([0, 1])], 2)
    with pytest.raises(InputError):  # one d-path component
        cycle_from_faces(boundary + [Face.of([v + 4 for v in f.vertices]) for f in boundary], 2)
    with pytest.raises(InputError):  # no cycle has a negative dimension
        cycle_from_faces([Face(0)], -1)


def test_enumerate_cycles_tetra(tetra):
    records = enumerate_cycles_within(tetra, 2, range(4))
    assert len(records) == 1
    assert records[0].faces == tetra.faces(2)
    assert records[0].is_complete()


def test_enumerate_cycles_none():
    c = build_complex(["abc", "abd"])
    assert enumerate_cycles_within(c, 2, range(4)) == []


def test_enumerate_cycles_double_tetra(double_tetra):
    records = enumerate_cycles_within(double_tetra, 2, range(6))
    assert [len(r.faces) for r in records] == [4, 4, 8]


def test_enumerate_cycles_in_sort_key_order(counterexample7):
    """The records come in ``sort_key`` order, and the face sets they build are the cycles' own."""
    c = pure_skeleton(counterexample7, 1)
    records = enumerate_cycles_within(c, 1, range(c.vertex_count))
    assert len(records) > 1000
    assert records == sorted(records, key=CycleRecord.sort_key)
    assert [r.sort_key() for r in records] == [CycleRecord(1, r.faces).sort_key() for r in records]
    assert all(is_d_dimensional_cycle(Complex(c.vertex_count, r.faces), 1) for r in records[::50])


def test_enumerate_cycles_within_window(double_tetra):
    # restricting to one tetrahedron's vertex set finds only that cycle
    records = enumerate_cycles_within(double_tetra, 2, [0, 1, 2, 3])
    assert len(records) == 1
    assert len(records[0].faces) == 4


def test_enumerate_cycles_cap(double_tetra):
    with pytest.raises(CapExceeded):
        enumerate_cycles_within(double_tetra, 2, range(6), cap=2)


def test_classify_union_cycle(double_tetra):
    records = enumerate_cycles_within(double_tetra, 2, range(6))
    union = records[-1]
    flagged = classify_minimality(union, double_tetra)
    assert flagged.face_minimal is False
    assert flagged.vertex_minimal is False
    assert flagged.orientable is True


def test_classify_tetra_standalone(tetra):
    record = cycle_from_complex(tetra, 2)
    flagged = classify_minimality(record, tetra)
    assert flagged.face_minimal and flagged.vertex_minimal
    assert flagged.orientable and flagged.orientably_face_minimal
    assert flagged.orientably_vertex_minimal


def test_classify_hexagon_cycle():
    hexagon = cycle_graph(6)
    record = cycle_from_complex(hexagon, 1)
    flagged = classify_minimality(record, hexagon)
    assert flagged.face_minimal is True


def test_outer_sphere_vertex_minimality_depends_on_ambient():
    from chorded.corpus import sphere_with_inner_tetrahedron

    ambient = sphere_with_inner_tetrahedron()
    records = enumerate_cycles_within(ambient, 2, range(8))
    sphere = next(r for r in records if len(r.faces) == 12)
    in_ambient = classify_minimality(sphere, ambient)
    assert in_ambient.vertex_minimal is False
    standalone = Complex(8, sphere.faces)
    alone = classify_minimality(sphere, standalone)
    assert alone.vertex_minimal is True


def test_orientable_tetra_signs_kill_boundary(tetra):
    record = cycle_from_complex(tetra, 2)
    signs = is_orientable(record)
    assert signs is not None
    m = boundary_matrix(tetra, 2, RATIONAL)
    vec = ChainVector({f: Fraction(s) for f, s in signs.items()})
    assert apply_matrix(m, vec, RATIONAL).is_zero


def test_rp2_not_orientable(rp2):
    record = cycle_from_complex(rp2, 2)
    assert is_orientable(record) is None


def test_hexagon_orientable_alternating():
    hexagon = cycle_graph(6)
    record = cycle_from_complex(hexagon, 1)
    signs = is_orientable(record)
    assert signs is not None
    assert set(signs.values()) <= {1, -1}
    m = boundary_matrix(hexagon, 1, RATIONAL)
    vec = ChainVector({f: Fraction(s) for f, s in signs.items()})
    assert apply_matrix(m, vec, RATIONAL).is_zero
    # walking the six-cycle, the wrap-around edge carries the opposite sign
    assert signs[Face.of([0, 1])] == -signs[Face.of([0, 5])]


def test_decompose_double_tetra(double_tetra):
    records = enumerate_cycles_within(double_tetra, 2, range(6))
    union = records[-1]
    part = decompose_cycle(union)
    assert [len(b) for b in part.blocks] == [4, 4]
    assert part.covered() == union.faces


def test_decompose_face_minimal_is_singleton(tetra):
    record = cycle_from_complex(tetra, 2)
    part = decompose_cycle(record)
    assert part.block_count == 1


def test_decompose_octahedron_singleton():
    oct_boundary = octahedron_boundary()
    record = cycle_from_complex(oct_boundary, 2)
    flagged = classify_minimality(record, oct_boundary)
    assert flagged.face_minimal is True
    assert decompose_cycle(record).block_count == 1


def test_bipyramid_cycle_flags():
    bp = bipyramid()
    record = cycle_from_complex(bp, 2)
    flagged = classify_minimality(record, bp)
    assert flagged.face_minimal is True
    assert flagged.vertex_minimal is True
    assert not record.is_complete()


def _bucket_sieve(face_masks, cap):
    """Oracle for ``minimal_kernel_supports``: the pure-Python bucket sieve.

    Walks the kernel span in (size, mask) order and keeps each vector that
    contains no kept one, looking kept vectors up by their lowest bit.
    """
    from chorded.cycles import _subface_columns
    from chorded.field_linalg import gf2_kernel_masks, gf2_span

    if not face_masks:
        return []
    basis = gf2_kernel_masks(list(_subface_columns(face_masks).values()), len(face_masks))
    if (1 << len(basis)) > cap:
        raise CapExceeded("oracle", needed=1 << len(basis), cap=cap)
    minimal = []
    buckets = {}
    for v in sorted(gf2_span(basis), key=lambda v: (v.bit_count(), v)):
        contained = False
        mm = v
        while mm and not contained:
            low = mm & -mm
            for c in buckets.get(low, ()):
                if c & ~v == 0:
                    contained = True
                    break
            mm ^= low
        if not contained:
            minimal.append(v)
            buckets.setdefault(v & -v, []).append(v)
    return minimal


def _per_circuit_sieve(face_masks, cap):
    """Second oracle for ``minimal_kernel_supports``: the per-circuit numpy filter.

    Takes the kernel span sorted by (size, mask) and packs it, one array
    per 64 columns; the first vector left is always a circuit, and each
    circuit drops every vector containing it, i.e. every vector that misses
    none of its bits in any word.
    """
    from chorded import packed
    from chorded.cycles import _check_span, _kernel
    from chorded.field_linalg import gf2_span

    if not face_masks:
        return []
    _, basis = _kernel(face_masks)
    _check_span(basis, cap)
    span = sorted(gf2_span(basis), key=lambda v: (v.bit_count(), v))
    rows = packed._pack(span, len(face_masks))
    words = [rows[:, j].copy() for j in range(rows.shape[1])]
    minimal = []
    while words[0].size:
        circuit = [w[0] for w in words]
        minimal.append(sum(int(c) << (64 * j) for j, c in enumerate(circuit)))
        keep = (words[0] & circuit[0]) != circuit[0]
        for w, c in zip(words[1:], circuit[1:]):
            keep |= (w & c) != c
        words = [w[keep] for w in words]
    return minimal


def _triangles_at_nullity(rng, faces, nullity):
    """A random set of ``faces`` triangle masks whose GF(2) cycle space has dimension ``nullity``."""
    import itertools

    n = 4
    while math.comb(n - 1, 2) < faces - nullity + 4:  # room for faces - nullity independent columns
        n += 1
    pool = [sum(1 << v for v in t) for t in itertools.combinations(range(n), 3)]
    while True:
        rng.shuffle(pool)
        pivots, edge_bit, chosen, dependent = {}, {}, [], 0
        for t in pool:
            col = 0
            for v in range(n):
                if t >> v & 1:
                    col ^= 1 << edge_bit.setdefault(t ^ (1 << v), len(edge_bit))
            while col and (col & -col) in pivots:
                col ^= pivots[col & -col]
            if col and len(chosen) - dependent < faces - nullity:
                pivots[col & -col] = col
                chosen.append(t)
            elif not col and dependent < nullity:
                dependent += 1
                chosen.append(t)
            if len(chosen) == faces:
                return sorted(chosen, key=lambda m: [v for v in range(n) if m >> v & 1])


def _assert_sieve_matches_oracle(masks, cap, oracle=_bucket_sieve):
    from chorded.cycles import minimal_kernel_supports

    try:
        expected = oracle(masks, cap)
    except CapExceeded as refused:
        with pytest.raises(CapExceeded) as exc:
            minimal_kernel_supports(masks, cap)
        assert (exc.value.needed, exc.value.cap) == (refused.needed, refused.cap)
        return False
    assert minimal_kernel_supports(masks, cap) == expected
    return True


@pytest.mark.parametrize("faces,largest", [(63, 14), (64, 13), (65, 12), (127, 12), (128, 14), (129, 13)])
def test_minimal_support_sieve_matches_bucket_oracle(faces, largest):
    # the word-packed sieve against the bucket sieve on both sides of the
    # 64- and 128-column word boundaries, for kernels of 0 to 14 vectors
    # (every face count takes 0..10 and one larger kernel, as the oracle
    # needs seconds per kernel of 2^13 or more vectors)
    import random

    from chorded.cycles import nullity

    rng = random.Random(faces)
    for k in [*range(11), largest]:
        masks = _triangles_at_nullity(rng, faces, k)
        assert len(masks) == faces and nullity(masks) == k
        assert _assert_sieve_matches_oracle(masks, 1 << 14)
    assert not _assert_sieve_matches_oracle(masks, (1 << largest) - 1)


def test_minimal_support_sieve_matches_bucket_oracle_on_corpus():
    # the bucket sieve below 2^14 vectors, the per-circuit sieve at the default cap
    from pathlib import Path

    from chorded.cli import parse_facet_file

    refused = 0
    for path in sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.facets")):
        c = parse_facet_file(path.read_text())
        for d in range(1, c.dim + 1):
            masks = [f.mask for f in sorted(c.faces(d), key=lambda f: f.vertices)]
            refused += not _assert_sieve_matches_oracle(masks, 1 << 14)
            assert _assert_sieve_matches_oracle(masks, DEFAULT_KERNEL_CAP, _per_circuit_sieve)
    assert refused  # seven_vertex_counterexample's 2-faces span 2^20 vectors


def test_circuit_rank_test_matches_per_circuit_sieve_on_random_complexes():
    # seeded random pure 1- to 3-complexes on 4 to 9 vertices, every skeleton
    import itertools
    import random

    rng = random.Random(309)
    decided = 0
    for _ in range(150):
        n, dim = rng.randint(4, 9), rng.randint(1, 3)
        pool = list(itertools.combinations(range(n), dim + 1))
        c = Complex(n, [Face.of(t) for t in rng.sample(pool, rng.randint(1, min(len(pool), 30)))])
        for d in range(1, c.dim + 1):
            masks = [f.mask for f in sorted(c.faces(d), key=lambda f: f.vertices)]
            decided += _assert_sieve_matches_oracle(masks, 1 << 12, _per_circuit_sieve)
    assert decided > 150


@pytest.mark.parametrize("nullity", range(12, 18))
def test_circuit_rank_test_on_graphs_with_few_pivot_rows(nullity):
    # d = 1 on 7 or 8 vertices: a kernel of 2^12 to 2^17 vectors over at
    # most 7 pivot rows, the shape of sphere_with_inner_tetrahedron at d = 1
    import itertools
    import random

    from chorded.cycles import nullity as cycle_nullity

    rng = random.Random(nullity)
    n = 7 if nullity <= 14 else 8
    pool = [sum(1 << v for v in e) for e in itertools.combinations(range(n), 2)]
    while True:
        masks = sorted(rng.sample(pool, nullity + n - 1), key=lambda m: [v for v in range(n) if m >> v & 1])
        if cycle_nullity(masks) == nullity:
            break
    assert _assert_sieve_matches_oracle(masks, 1 << 17, _per_circuit_sieve)


def test_circuit_rank_test_across_chunks(monkeypatch):
    # chunks much smaller than the span, two of them not a power of two
    from chorded import packed
    from chorded.corpus import seven_vertex_counterexample, sphere_with_inner_tetrahedron
    from chorded.cycles import minimal_kernel_supports

    cases = [
        (sphere_with_inner_tetrahedron(), 1, (97, 1 << 10)),  # nullity 17
        (seven_vertex_counterexample(), 1, (97, 1 << 10)),  # nullity 15
        (seven_vertex_counterexample(), 3, (1, 97, 1 << 10)),  # nullity 11
    ]
    for c, d, chunks in cases:
        masks = [f.mask for f in sorted(c.faces(d), key=lambda f: f.vertices)]
        expected = _per_circuit_sieve(masks, 1 << 17)
        for chunk in chunks:
            monkeypatch.setattr(packed, "_CHUNK", chunk)
            assert minimal_kernel_supports(masks, 1 << 17) == expected


@pytest.mark.parametrize("name,d,circuits", [("K7", 2, 89_846), ("seven_vertex_counterexample", 2, 55_726)])
def test_circuit_counts_at_the_default_cap(name, d, circuits):
    from chorded.corpus import complete_skeleton, seven_vertex_counterexample
    from chorded.cycles import minimal_kernel_supports

    c = complete_skeleton(7, 2) if name == "K7" else seven_vertex_counterexample()
    masks = [f.mask for f in sorted(c.faces(d), key=lambda f: f.vertices)]
    supports = minimal_kernel_supports(masks, DEFAULT_KERNEL_CAP)
    assert len(supports) == circuits
    assert supports == sorted(supports, key=lambda m: (m.bit_count(), m))


def test_circuit_rank_test_refuses_before_any_work(monkeypatch):
    from chorded import packed
    from chorded.corpus import seven_vertex_counterexample
    from chorded.cycles import minimal_kernel_supports

    def no_work(*args):
        raise AssertionError("a refused kernel reached the rank test")

    monkeypatch.setattr(packed, "circuit_supports", no_work)
    masks = [f.mask for f in sorted(seven_vertex_counterexample().faces(2), key=lambda f: f.vertices)]
    for cap in (1, 1 << 18, (1 << 19) - 1):
        with pytest.raises(CapExceeded) as exc:
            minimal_kernel_supports(masks, cap)
        assert (exc.value.needed, exc.value.cap) == (1 << 19, cap)


def test_window_solver_preimages_sum_to_target():
    from chorded.chordality import _preimage, _window_basis, _window_solver
    from chorded.complex_core import _bits
    from chorded.corpus import bipyramid_with_chord, octahedron_with_axis_chords

    for ambient in (bipyramid_with_chord(), octahedron_with_axis_chords()):
        solver = _window_solver(ambient, 2)
        for record in enumerate_cycles_within(ambient, 2, range(ambient.vertex_count)):
            column, tops, pivots = _window_basis(solver, record.vertex_mask)
            chosen = _preimage(pivots, sum(1 << column[f.mask] for f in record.faces))
            if chosen is None:
                continue
            acc = {}
            for j in _bits(chosen):
                for v in _bits(tops[j]):
                    sub = tops[j] ^ (1 << v)
                    acc[sub] = acc.get(sub, 0) ^ 1
            summed = {m for m, parity in acc.items() if parity}
            assert summed == {f.mask for f in record.faces}


def brute_force_orientable(record):
    """Independent oracle: try every sign assignment over the rationals."""
    import itertools

    faces = sorted(record.faces, key=lambda f: f.vertices)
    n = max(v for f in faces for v in f.vertices) + 1
    m = boundary_matrix(Complex(n, faces), record.dim, RATIONAL)
    for signs in itertools.product((1, -1), repeat=len(faces)):
        vec = ChainVector({f: Fraction(s) for f, s in zip(faces, signs)})
        if apply_matrix(m, vec, RATIONAL).is_zero:
            return True
    return False


def test_orientability_matches_brute_force():
    import itertools
    import random

    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 6)
        pool = list(itertools.combinations(range(n), 3))
        faces = [Face.of(t) for t in rng.sample(pool, rng.randint(4, min(10, len(pool))))]
        c = Complex(n, faces)
        for record in enumerate_cycles_within(c, 2, range(n), 1 << 12):
            if len(record.faces) > 12:
                continue
            assert (is_orientable(record) is not None) == brute_force_orientable(record)
            checked += 1
    assert checked >= 60


def test_union_cycle_not_orientably_face_minimal(double_tetra):
    records = enumerate_cycles_within(double_tetra, 2, range(6))
    union = classify_minimality(records[-1], double_tetra)
    assert union.orientable is True
    assert union.orientably_face_minimal is False
    assert union.orientably_vertex_minimal is False


def test_betti_matches_independent_gf2_oracle():
    # recompute reduced GF(2) Betti numbers from scratch with a separate
    # elimination over explicitly built incidence rows
    import itertools
    import random

    from chorded import reduced_betti

    def oracle_rank(rows, ncols):
        work = [r for r in rows]
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, len(work)) if work[i] >> col & 1), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(len(work)):
                if i != r and work[i] >> col & 1:
                    work[i] ^= work[r]
            r += 1
        return r

    def oracle_betti(c, i):
        def faces(k):
            out = set()
            for facet in c.facets:
                out.update(itertools.combinations(facet.vertices, k + 1))
            return sorted(out)

        def rows_of(k):
            cols = faces(k)
            if k == 0:
                return [(1 << len(cols)) - 1] if cols else [], cols
            lower = {f: i2 for i2, f in enumerate(faces(k - 1))}
            rows = [0] * len(lower)
            for j, f in enumerate(cols):
                for drop in range(len(f)):
                    rows[lower[f[:drop] + f[drop + 1:]]] |= 1 << j
            return rows, cols

        rows_i, cols_i = rows_of(i)
        rows_up, cols_up = rows_of(i + 1)
        if not cols_i:
            return 0
        return len(cols_i) - oracle_rank(rows_i, len(cols_i)) - oracle_rank(rows_up, len(cols_up))

    rng = random.Random(515)
    for _ in range(40):
        n = rng.randint(3, 6)
        pool = [c for k in (2, 3, 4) for c in itertools.combinations(range(n), k) if k <= n]
        chosen = rng.sample(pool, rng.randint(1, min(8, len(pool))))
        c = Complex(n, [Face.of(t) for t in chosen])
        for i in range(c.dim + 1):
            assert reduced_betti(c, i, GF2) == oracle_betti(c, i), (chosen, i)


def test_smallest_cycle_has_d_plus_two_vertices():
    # exhaustive search over pure 2-complexes on 4 labelled vertices
    import itertools

    triples = list(itertools.combinations(range(4), 3))
    found = []
    for bits in range(1, 1 << 4):
        faces = [Face.of(t) for i, t in enumerate(triples) if bits >> i & 1]
        c = Complex(4, faces)
        if is_d_dimensional_cycle(c, 2):
            found.append(frozenset(faces))
    assert found == [frozenset(Face.of(t) for t in triples)]


def test_numpy_is_loaded_only_by_the_packed_array_code():
    # a fresh interpreter: the package and every predicate that builds no
    # packed array leave numpy unloaded; is_d_chorded on a cycle loads it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import chorded

    script = """
import sys
from chorded import (GF2, RATIONAL, facet_ideal_generators, gfp, has_t_linear_resolution,
                     is_d_chorded, is_d_cycle_complete, is_d_tree, reduced_betti)
from chorded.corpus import bipyramid
assert "numpy" not in sys.modules, "import chorded"
c = bipyramid()
assert not is_d_tree(c, 2)
assert not is_d_cycle_complete(c, 2)
for f in (GF2, gfp(3), RATIONAL):
    assert [reduced_betti(c, i, f) for i in range(3)] == [0, 0, 1]
    has_t_linear_resolution(facet_ideal_generators(c), 3, f)
assert "numpy" not in sys.modules, "the predicates without a packed array"
assert not is_d_chorded(c, 2).chorded
assert "numpy" in sys.modules, "is_d_chorded"
"""
    src = str(Path(chorded.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
