from fractions import Fraction

import pytest

from chorded import (
    CapExceeded,
    ChainVector,
    Face,
    GF2,
    InputError,
    RATIONAL,
    ShapeError,
    SparseMatrix,
    build_complex,
    enumerate_kernel_vectors,
    gfp,
    in_image,
    kernel_basis,
    parse_field,
    rank,
)
from chorded.corpus import glued_tetrahedra, hollow_tetrahedron
from chorded.complex_core import face_columns
from chorded.field_linalg import apply_matrix, gf2_rref
from chorded.homology import boundary_matrix


def oracle_gf2_rank(rows, ncols):
    """Independent elimination used to pin expected ranks."""
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



def gf2_rref_oracle(rows):
    """The column sweep ``gf2_rref`` replaced: for each pivot, OR the remaining rows for the lowest column."""
    work = [r for r in rows if r]
    pivots = []
    r = 0
    while r < len(work):
        rest = 0
        for w in work[r:]:
            rest |= w
        if rest == 0:
            break
        col = (rest & -rest).bit_length() - 1
        bit = 1 << col
        pivot = next(i for i in range(r, len(work)) if work[i] & bit)
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return work[: len(pivots)], pivots

def test_field_spec_validation():
    assert parse_field("gf2") == GF2
    assert parse_field("q") == RATIONAL
    assert parse_field("gf7") == gfp(7)
    with pytest.raises(InputError):
        gfp(9)
    with pytest.raises(InputError):
        gfp(2)
    with pytest.raises(InputError):
        parse_field("gf")
    assert GF2.characteristic == 2
    assert gfp(31).characteristic == 31
    assert RATIONAL.characteristic == 0


def test_sparse_matrix_rejects_bad_entries():
    with pytest.raises(InputError):
        SparseMatrix(2, 2, [(0, 0, 0)])
    with pytest.raises(ShapeError):
        SparseMatrix(2, 2, [(2, 0, 1)])


def test_rank_tetra_boundary_gf2():
    m = boundary_matrix(hollow_tetrahedron(), 2, GF2)
    assert oracle_gf2_rank(m.gf2_rows(), m.ncols) == 3
    assert rank(m, GF2) == 3


def test_rank_zero_and_identity():
    zero = SparseMatrix(3, 4, [])
    assert rank(zero, GF2) == rank(zero, RATIONAL) == 0
    eye = SparseMatrix(5, 5, [(i, i, 1) for i in range(5)])
    assert rank(eye, gfp(7)) == 5


def test_kernel_tetra_is_full_face_sum():
    tetra = hollow_tetrahedron()
    m = boundary_matrix(tetra, 2, GF2)
    basis = kernel_basis(m, GF2)
    assert len(basis) == 1
    assert basis[0].support == tetra.faces(2)


def test_kernel_injective_matrix_empty():
    eye = SparseMatrix(3, 3, [(i, i, 1) for i in range(3)])
    assert kernel_basis(eye, RATIONAL) == []


def test_kernel_hexagon_rational_alternating():
    hexagon = build_complex([[f"v{i}", f"v{(i + 1) % 6}"] for i in range(6)])
    m = boundary_matrix(hexagon, 1, RATIONAL)
    basis = kernel_basis(m, RATIONAL)
    assert len(basis) == 1
    vec = basis[0]
    # hand solution: +1 on every edge walked 0->1->...->5, -1 on the wrap edge (0,5)
    hand = {
        Face.of([0, 1]): 1, Face.of([1, 2]): 1, Face.of([2, 3]): 1,
        Face.of([3, 4]): 1, Face.of([4, 5]): 1, Face.of([0, 5]): -1,
    }
    scale = vec.get(Face.of([0, 1]))
    assert scale != 0
    assert {f: c / scale for f, c in vec.coeffs.items()} == {f: Fraction(c) for f, c in hand.items()}
    assert apply_matrix(m, vec, RATIONAL).is_zero


def test_in_image_simplex_boundary():
    solid = build_complex(["abcd"])
    m = boundary_matrix(solid, 3, GF2)
    target = ChainVector({f: 1 for f in solid.faces(2)})
    pre = in_image(m, target, GF2)
    assert pre is not None
    assert pre.support == solid.faces(3)


def test_in_image_zero_vector():
    m = boundary_matrix(hollow_tetrahedron(), 2, GF2)
    assert in_image(m, ChainVector({}), GF2) == ChainVector({})


def test_in_image_absent_for_rp2_face_sum(rp2):
    # the closure adds no 3-faces, so the boundary map from degree 3 is empty
    from chorded import d_closure

    closure = d_closure(rp2, 2)
    m = boundary_matrix(closure, 3, GF2)
    assert m.ncols == 0
    target = ChainVector({f: 1 for f in rp2.faces(2)})
    assert in_image(m, target, GF2) is None


def test_in_image_dimension_mismatch():
    m = boundary_matrix(hollow_tetrahedron(), 2, GF2)
    with pytest.raises(ShapeError):
        in_image(m, ChainVector({Face.of([0, 1, 2]): 1}), GF2)


def test_enumerate_kernel_tetra():
    tetra = hollow_tetrahedron()
    m = boundary_matrix(tetra, 2, GF2)
    vectors = list(enumerate_kernel_vectors(m, 1024))
    assert vectors == [ChainVector({f: 1 for f in tetra.faces(2)})]


def test_enumerate_kernel_injective():
    eye = SparseMatrix(4, 4, [(i, i, 1) for i in range(4)])
    assert list(enumerate_kernel_vectors(eye, 16)) == []


def test_enumerate_kernel_double_tetra():
    dt = glued_tetrahedra()
    m = boundary_matrix(dt, 2, GF2)
    vectors = list(enumerate_kernel_vectors(m, 1024))
    supports = sorted(tuple(sorted(f.vertices for f in v.support)) for v in vectors)
    faces = face_columns(dt.faces(2))
    t1 = tuple(sorted(f.vertices for f in faces if f.mask & 0b110000 == 0))
    t2 = tuple(sorted(f.vertices for f in faces if f.mask & 0b000011 == 0))
    full = tuple(sorted(f.vertices for f in faces))
    assert supports == sorted([t1, t2, full])


def test_enumerate_kernel_cap():
    dt = glued_tetrahedra()
    m = boundary_matrix(dt, 2, GF2)
    with pytest.raises(CapExceeded):
        enumerate_kernel_vectors(m, 2)


@pytest.mark.parametrize("field", [GF2, gfp(3), RATIONAL])
def test_rank_nullity_and_annihilation(field, rp2, double_tetra):
    for c in (rp2, double_tetra):
        for d in range(0, c.dim + 2):
            m = boundary_matrix(c, d, field)
            basis = kernel_basis(m, field)
            assert rank(m, field) + len(basis) == m.ncols
            for v in basis:
                assert apply_matrix(m, v, field).is_zero


def test_kernel_deterministic_for_reordered_input(rp2):
    from chorded import Complex

    other = Complex(rp2.vertex_count, sorted(rp2.facets, reverse=True), rp2.labels)
    m1 = boundary_matrix(rp2, 2, GF2)
    m2 = boundary_matrix(other, 2, GF2)
    assert kernel_basis(m1, GF2) == kernel_basis(m2, GF2)
    assert list(enumerate_kernel_vectors(m1, 64)) == list(enumerate_kernel_vectors(m2, 64))


@pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 130])
def test_gf2_rref_matches_column_sweep_oracle(width):
    # seeded random row sets, with empty sets, zero rows and repeated rows,
    # at widths on both sides of one and two 64-bit words
    import random

    rng = random.Random(width)
    assert gf2_rref([]) == gf2_rref_oracle([]) == ([], [])
    assert gf2_rref([0, 0]) == gf2_rref_oracle([0, 0]) == ([], [])
    for _ in range(150):
        density = rng.choice((0.05, 0.2, 0.5, 0.9))
        rows = [sum(1 << j for j in range(width) if rng.random() < density) for _ in range(rng.randint(0, 2 * width + 3))]
        rows += [0] * rng.randint(0, 2) + [rng.choice(rows) for _ in range(rng.randint(0, 3)) if rows]
        rng.shuffle(rows)
        assert gf2_rref(rows) == gf2_rref_oracle(rows), rows
