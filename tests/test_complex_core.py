import itertools
import random

import pytest

from chorded import (
    Complex,
    Face,
    InputError,
    MonomialIdeal,
    PurityError,
    build_complex,
    complex_of_ideal,
    d_closure,
    d_complement,
    faces_of_dim,
    facet_ideal_generators,
    induced_subcomplex,
    is_d_complete,
    pure_skeleton,
    stanley_reisner_generators,
)
from chorded.complex_core import _closure_level
from chorded.corpus import hollow_tetrahedron, seven_vertex_counterexample, tetra_with_fin

from conftest import RP2_FACETS


def labelled_facets(c):
    return sorted(tuple(c.labels[v] for v in f.vertices) for f in c.facets)


def test_face_basics():
    f = Face.of([3, 1, 2])
    assert f.vertices == (1, 2, 3)
    assert f.dim == 2
    assert 2 in f and 0 not in f
    assert Face.of([1, 2]).issubset(f)
    assert f.without(2) == Face.of([1, 3])
    with pytest.raises(InputError):
        Face.of([1, 1, 2])


def test_build_complex_absorbs_nonmaximal():
    c = build_complex(["abc", "ab"])
    assert labelled_facets(c) == [("a", "b", "c")]


def test_build_complex_extra_vertices_only():
    c = build_complex([], extra_vertices=["a"])
    assert c.vertex_count == 1
    assert not c.facets
    assert c.dim == -1


def test_build_complex_duplicate_label_in_facet():
    with pytest.raises(InputError):
        build_complex([["a", "a", "b"]])


def test_counterexample7_shape(counterexample7):
    # thirty 4-subsets of seven vertices survive the five removals
    assert counterexample7.vertex_count == 7
    assert len(counterexample7.facets) == 30
    assert counterexample7.is_pure(3)
    removed = {("x0", "x1", "x5", "x6"), ("x0", "x2", "x5", "x6"),
               ("x0", "x3", "x5", "x6"), ("x0", "x4", "x5", "x6"),
               ("x1", "x2", "x3", "x4")}
    names = set(labelled_facets(counterexample7))
    assert names.isdisjoint(removed)
    assert len(faces_of_dim(counterexample7, 3)) == 30


COUNTEREXAMPLE7_TABLE = [
    "x0x1x2x3", "x0x1x2x4", "x0x1x2x5", "x0x1x2x6", "x0x1x3x4", "x0x1x3x5",
    "x0x1x3x6", "x0x1x4x5", "x0x1x4x6", "x0x2x3x4", "x0x2x3x5", "x0x2x3x6",
    "x0x2x4x5", "x0x2x4x6", "x0x3x4x5", "x0x3x4x6", "x1x2x3x5", "x1x2x3x6",
    "x1x2x4x5", "x1x2x4x6", "x1x2x5x6", "x1x3x4x5", "x1x3x4x6", "x1x3x5x6",
    "x1x4x5x6", "x2x3x4x5", "x2x3x4x6", "x2x3x5x6", "x2x4x5x6", "x3x4x5x6",
]


def test_counterexample7_matches_explicit_table(counterexample7):
    table = {
        tuple(row[i : i + 2] for i in range(0, 8, 2)) for row in COUNTEREXAMPLE7_TABLE
    }
    assert set(labelled_facets(counterexample7)) == table


def test_faces_of_dim_tetra(tetra):
    assert len(faces_of_dim(tetra, 1)) == 6
    assert len(faces_of_dim(tetra, 2)) == 4
    assert faces_of_dim(tetra, 5) == frozenset()
    (empty,) = faces_of_dim(tetra, -1)
    assert empty.dim == -1


def test_faces_of_dim_single_triangle():
    c = build_complex(["abc"])
    assert faces_of_dim(c, 2) == frozenset({Face.of([0, 1, 2])})


def test_pure_skeleton(tetra):
    k4 = pure_skeleton(tetra, 1)
    assert len(k4.facets) == 6
    assert k4.vertex_count == 4

    solid = build_complex(["abcd"])
    assert pure_skeleton(solid, 2) == hollow_tetrahedron()


def test_pure_skeleton_of_closure_recovers_two_faces():
    closure = d_closure(tetra_with_fin(), 2)
    assert pure_skeleton(closure, 2) == tetra_with_fin()


def test_skeleton_idempotent(rp2):
    once = pure_skeleton(rp2, 1)
    assert pure_skeleton(once, 1) == once


def test_induced_subcomplex_triangle(tetra):
    sub = induced_subcomplex(tetra, [0, 1, 2])
    assert labelled_facets(sub) == [("a", "b", "c")]
    assert sub.source_ids == (0, 1, 2)


def test_induced_subcomplex_identity(rp2):
    assert induced_subcomplex(rp2, range(rp2.vertex_count)) == rp2


def test_induced_subcomplex_unknown_id(tetra):
    with pytest.raises(InputError):
        induced_subcomplex(tetra, [0, 9])


def test_induced_rp2_drops_one_vertex(rp2):
    # oracle: recompute the expected facets from the raw triangulation table
    for removed in range(6):
        removed_label = rp2.labels[removed]
        expected = sorted(f for f in RP2_FACETS if removed_label not in f)
        sub = induced_subcomplex(rp2, [v for v in range(6) if v != removed])
        assert labelled_facets(sub) == expected


def test_d_closure_fig6():
    assert labelled_facets(d_closure(tetra_with_fin(), 2)) == [
        ("a", "b", "c", "d"),
        ("a", "e"),
        ("b", "e"),
        ("c", "d", "e"),
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_d_closure_complete_cycle_is_simplex(d):
    n = d + 2
    labels = [f"v{i}" for i in range(n)]
    cycle = build_complex(
        [[labels[v] for v in combo] for combo in itertools.combinations(range(n), d + 1)]
    )
    closed = d_closure(cycle, d)
    assert labelled_facets(closed) == [tuple(labels)]


def test_d_closure_path_graph_adds_no_triangle():
    path = build_complex(["ab", "bc"])
    closed = d_closure(path, 1)
    assert labelled_facets(closed) == [("a", "b"), ("b", "c")]


def test_d_closure_rejects_non_pure():
    with pytest.raises(PurityError):
        d_closure(build_complex(["abc", "de"]), 2)


def closure_level_oracle(level: set[int], n: int) -> set[int]:
    """``_closure_level`` as a plain loop: try every vertex above each set's top vertex."""
    out = set()
    for m in level:
        for v in range(m.bit_length(), n):
            bit = 1 << v
            if all(((m ^ (1 << u)) | bit) in level for u in range(m.bit_length()) if m >> u & 1):
                out.add(m | bit)
    return out


def test_closure_level_matches_oracle_on_seeded_levels():
    rng = random.Random(0xC105E)
    for _ in range(300):
        n = rng.randint(0, 9)
        k = rng.randint(0, min(n, 4))
        keep = rng.choice((0.3, 0.6, 0.9, 1.0))
        level = {sum(1 << v for v in combo) for combo in itertools.combinations(range(n), k) if rng.random() < keep}
        while level:
            closed = _closure_level(level, n)
            assert closed == closure_level_oracle(level, n), (n, k, sorted(level))
            level = closed


def test_closure_level_matches_oracle_on_a_long_path_with_chords():
    def mask(*vs):
        return sum(1 << v for v in vs)

    n = 400
    edges = {mask(v, v + 1) for v in range(n - 1)}
    edges |= {mask(3, 5), mask(10, 200), mask(11, 202), mask(150, 399), mask(30, 32)}
    triangles = _closure_level(edges, n)
    assert triangles == closure_level_oracle(edges, n) == {mask(3, 4, 5), mask(30, 31, 32)}
    assert _closure_level(triangles, n) == closure_level_oracle(triangles, n) == set()


def test_d_complement_examples():
    c = build_complex(["abc"], extra_vertices=["d"])
    comp = d_complement(c, 2)
    assert labelled_facets(comp) == [("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]

    assert d_complement(hollow_tetrahedron(), 2).facets == frozenset()


def test_d_complement_involution(rp2):
    assert d_complement(d_complement(rp2, 2), 2).facets == rp2.facets


def test_is_d_complete(tetra):
    assert is_d_complete(tetra, 2)
    assert is_d_complete(pure_skeleton(build_complex(["abcde"]), 1), 1)
    assert not is_d_complete(build_complex(["abc", "abd"]), 2)


def test_stanley_reisner_simple():
    c = build_complex([["x1", "x2"], ["x3"]])
    ideal = stanley_reisner_generators(c)
    gens = sorted(tuple(ideal.labels[v] for v in g.vertices) for g in ideal.generators)
    assert gens == [("x1", "x3"), ("x2", "x3")]


def test_stanley_reisner_tetra(tetra):
    ideal = stanley_reisner_generators(tetra)
    assert [len(g) for g in ideal.generators] == [4]


def test_stanley_reisner_rp2(rp2):
    # oracle: enumerate all vertex subsets and take inclusion-minimal non-faces
    faces = set()
    for facet in RP2_FACETS:
        for r in range(1, 4):
            faces.update(itertools.combinations(sorted(facet), r))
    minimal = []
    for size in range(1, 7):
        for combo in itertools.combinations([str(i) for i in range(1, 7)], size):
            if combo in faces:
                continue
            if all(sub in faces for sub in itertools.combinations(combo, size - 1)) or size == 1:
                minimal.append(combo)
    ideal = stanley_reisner_generators(rp2)
    got = sorted(tuple(ideal.labels[v] for v in g.vertices) for g in ideal.generators)
    assert got == sorted(minimal)
    assert len(got) == 10
    assert all(len(g) == 3 for g in got)


def test_full_simplex_gives_zero_ideal():
    assert stanley_reisner_generators(build_complex(["abcd"])).is_zero


def test_facet_ideal():
    c = build_complex(["abc", "abd"])
    ideal = facet_ideal_generators(c)
    assert len(ideal.generators) == 2
    empty = Complex(3)
    assert facet_ideal_generators(empty).is_zero


def test_complement_ideal_matches_closure_ideal_small():
    # enumeration over every pure 2-complex on 4 or 5 labelled vertices
    for n in (4, 5):
        triples = list(itertools.combinations(range(n), 3))
        for bits in range(1 << len(triples)):
            faces = [Face.of(t) for i, t in enumerate(triples) if bits >> i & 1]
            c = Complex(n, faces)
            left = facet_ideal_generators(d_complement(c, 2))
            sr = stanley_reisner_generators(d_closure(c, 2))
            right = frozenset(g for g in sr.generators if len(g) == 3)
            assert left.generators == right
        if n == 5:
            break  # 5 vertices alone is 1024 complexes; 6 would be 1M


def test_complex_of_ideal_examples():
    ideal = MonomialIdeal(3, [Face.of([0, 2]), Face.of([1, 2])], ("x1", "x2", "x3"))
    c = complex_of_ideal(ideal)
    assert labelled_facets(c) == [("x1", "x2"), ("x3",)]

    quad = MonomialIdeal(4, [Face.of([0, 1, 2, 3])])
    assert complex_of_ideal(quad) == hollow_tetrahedron()


def test_complex_of_ideal_round_trip(rp2, tetra, double_tetra):
    for c in (rp2, tetra, double_tetra, tetra_with_fin(), seven_vertex_counterexample()):
        assert complex_of_ideal(stanley_reisner_generators(c)) == c


def test_zero_ideal_gives_full_simplex():
    ideal = MonomialIdeal(4)
    assert complex_of_ideal(ideal) == build_complex(["abcd"])


def test_empty_vs_nonempty_vertex_set_distinct():
    assert Complex(0) != Complex(2)
    assert Complex(2).facets == Complex(0).facets == frozenset()


def test_monomial_ideal_minimalizes():
    ideal = MonomialIdeal(3, [Face.of([0]), Face.of([0, 1])])
    assert ideal.generators == frozenset({Face.of([0])})
    with pytest.raises(InputError):
        MonomialIdeal(2, [Face(0)])
