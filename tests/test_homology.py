import itertools
import random
from functools import lru_cache

import pytest

from chorded import (
    ChainVector,
    Face,
    GF2,
    InputError,
    OrientedFace,
    RATIONAL,
    betti_profile,
    boundary_matrix,
    build_complex,
    d_closure,
    gfp,
    induced_orientation,
    pure_skeleton,
    rank,
    reduced_betti,
)
from chorded.corpus import named_corpus, random_pure_two_complex
from chorded.complex_core import face_columns
from chorded.field_linalg import apply_matrix


@lru_cache(maxsize=65536)  # the linres oracle sweeps meet the same induced windows many times
def reference_betti(c, i: int, f) -> int:
    """The i-th reduced Betti number from ``boundary_matrix`` and ``rank``, apart from ``reduced_betti``'s code."""
    if i > c.dim:
        return 0
    fi = len(c.faces(i))
    if fi == 0:
        return 0
    return fi - rank(boundary_matrix(c, i, f, augmented=(i == 0)), f) - rank(boundary_matrix(c, i + 1, f), f)


def test_boundary_of_triangle_signs():
    c = build_complex(["abc"])
    m = boundary_matrix(c, 2, RATIONAL)
    col = {m.row_labels[r]: v for r, v in m.columns[0]}
    # d[abc] = bc - ac + ab
    assert col[Face.of([1, 2])] == 1
    assert col[Face.of([0, 2])] == -1
    assert col[Face.of([0, 1])] == 1


def test_boundary_of_edge():
    c = build_complex(["ab"])
    m = boundary_matrix(c, 1, RATIONAL)
    col = {m.row_labels[r]: v for r, v in m.columns[0]}
    assert col[Face.of([1])] == 1
    assert col[Face.of([0])] == -1


def test_augmentation_row_for_three_points():
    c = build_complex([["a"], ["b"], ["c"]])
    m = boundary_matrix(c, 0, GF2, augmented=True)
    assert m.nrows == 1 and m.ncols == 3
    assert all(len(col) == 1 and col[0][1] == 1 for col in m.columns)


def test_full_simplex_acyclic():
    solid = build_complex(["abcde"])
    for i in range(5):
        for f in (GF2, gfp(3), RATIONAL):
            assert reduced_betti(solid, i, f) == 0


def test_tetra_top_homology(tetra):
    for f in (GF2, gfp(5), RATIONAL):
        assert reduced_betti(tetra, 2, f) == 1
        assert reduced_betti(tetra, 1, f) == 0
        assert reduced_betti(tetra, 0, f) == 0


def test_rp2_characteristic_split(rp2):
    assert reduced_betti(rp2, 1, GF2) == 1
    assert reduced_betti(rp2, 2, GF2) == 1
    assert reduced_betti(rp2, 1, RATIONAL) == 0
    assert reduced_betti(rp2, 2, RATIONAL) == 0
    profile = betti_profile(rp2, gfp(3))
    assert profile.dims == (0, 0, 0)


def test_reduced_betti_rejects_negative_degree(tetra):
    with pytest.raises(InputError):
        reduced_betti(tetra, -1, GF2)


def test_point_and_empty_complex():
    point = build_complex([["a"]])
    assert reduced_betti(point, 0, GF2) == 0
    isolated = build_complex([], extra_vertices=["a", "b"])
    assert reduced_betti(isolated, 0, GF2) == 0  # no 0-faces at all


def test_two_points_connectivity():
    c = build_complex([["a"], ["b"]])
    assert reduced_betti(c, 0, RATIONAL) == 1


def test_induced_orientation_rule_examples():
    of = OrientedFace.from_order([0, 1, 2])
    kept = induced_orientation(of, 1)      # odd position: order kept
    assert kept == OrientedFace.from_order([0, 2])
    flipped = induced_orientation(of, 0)   # even position: order reversed
    assert flipped == OrientedFace.from_order([2, 1])
    assert flipped == OrientedFace.from_order([1, 2]).opposite()


def test_induced_orientation_requires_member():
    with pytest.raises(InputError):
        induced_orientation(OrientedFace.from_order([0, 1]), 5)


def test_equivalent_orderings_same_oriented_face():
    assert OrientedFace.from_order([2, 0, 1]) == OrientedFace.from_order([0, 1, 2])
    assert OrientedFace.from_order([1, 0, 2]) == OrientedFace.from_order([0, 1, 2]).opposite()


def test_double_removal_antisymmetric():
    # composing two induced orientations reaches each 1-face once per class,
    # which is the combinatorial form of the boundary composing to zero
    of = OrientedFace.from_order([0, 1, 2, 3])
    reached = []
    for v in of.face.vertices:
        mid = induced_orientation(of, v)
        for w in mid.face.vertices:
            reached.append(induced_orientation(mid, w))
    for sub in itertools.combinations(range(4), 2):
        plus = OrientedFace.from_order(sub)
        assert reached.count(plus) == reached.count(plus.opposite()) == 1


@pytest.mark.parametrize("field", [GF2, gfp(3), RATIONAL])
def test_boundary_composition_zero(field):
    for name, c in named_corpus().items():
        if c.vertex_count > 7:
            continue
        for d in range(1, c.dim + 2):
            outer = boundary_matrix(c, d, field)
            inner = boundary_matrix(c, d + 1, field)
            for j in range(inner.ncols):
                vec = ChainVector({inner.row_labels[r]: v for r, v in inner.columns[j]})
                assert apply_matrix(outer, vec, field).is_zero, (name, d)


def test_odd_primes_agree_and_gf2_differs():
    differs = False
    for name, c in named_corpus().items():
        for i in range(c.dim + 1):
            b3 = reduced_betti(c, i, gfp(3))
            b5 = reduced_betti(c, i, gfp(5))
            bq = reduced_betti(c, i, RATIONAL)
            assert b3 == b5 == bq, (name, i)
            if reduced_betti(c, i, GF2) != bq:
                differs = True
    assert differs


def test_euler_characteristic_identity():
    for name, c in named_corpus().items():
        fvec = c.f_vector()
        lhs = sum((-1) ** i * fi for i, fi in enumerate(fvec)) - 1
        rhs = sum((-1) ** i * reduced_betti(c, i, RATIONAL) for i in range(c.dim + 1))
        assert lhs == rhs, name


def test_face_bases_sorted(rp2):
    faces = face_columns(rp2.faces(1))
    assert faces == sorted(faces, key=lambda f: f.vertices)
    m = boundary_matrix(rp2, 2, GF2)
    assert m.row_labels == tuple(faces)


def betti_oracle_cases():
    """(label, complex): the corpus, the d-closures of its skeletons, and seeded random pure 2-complexes."""
    for name, c in sorted(named_corpus().items()):
        yield name, c
        for d in range(1, c.dim + 1):
            yield (name, "closure", d), d_closure(pure_skeleton(c, d), d)
    rng = random.Random(0x13BE77)
    for k in range(100):
        yield ("random", k), random_pure_two_complex(rng)


def test_reduced_betti_matches_reference():
    rational_nonzero, gf2_split = set(), set()
    for label, c in betti_oracle_cases():
        for i in range(c.dim + 2):
            for f in (GF2, gfp(3), gfp(5), RATIONAL):
                assert reduced_betti(c, i, f) == reference_betti(c, i, f), (label, i, str(f))
            if reduced_betti(c, i, RATIONAL):
                rational_nonzero.add(label)
            if reduced_betti(c, i, GF2) != reduced_betti(c, i, RATIONAL):
                gf2_split.add(label)
    # nonzero rational Betti numbers run the exact recheck; RP^2 separates GF(2) from QQ
    assert {"octahedron_boundary", "hollow_tetrahedron"} <= rational_nonzero
    assert "projective_plane" in gf2_split
