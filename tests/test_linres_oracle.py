"""The mask-native linear-resolution sweep against two per-window references.

``oracle_sweep`` is the sweep as it stood before the mask-native engine: it
builds one ``Complex`` per vertex window and takes every degree but t-2
from ``reference_betti`` (boundary matrices and ``rank``), not from
``reduced_betti``, which shares its routine with the engine.  The engine
must return the same ``(linear, witness)`` on seeded random ideals, every
corpus closure and every facet-ideal degree component, over GF(2), GF(3)
and QQ.

``flat_first_nonvanishing`` is ``homology.first_nonvanishing`` as it stood
before the prefix walk: every window ranked from scratch, in a flat loop
over ``itertools.combinations``.  The walk must return the same (window,
degree offset, betti) on seeded random face levels, late-witness ideals and
vertices with no face, over GF(2), GF(3), GF(5) and QQ.
"""

import itertools
import random

import pytest

from chorded import (
    CapExceeded,
    Complex,
    Face,
    GF2,
    MonomialIdeal,
    PROBE_FIELDS,
    RATIONAL,
    complex_of_ideal,
    d_closure,
    degree_component,
    facet_ideal_generators,
    gfp,
    has_t_linear_resolution,
    induced_subcomplex,
    is_componentwise_linear,
    pure_skeleton,
    stanley_reisner_generators,
)
from chorded import field_linalg
from chorded.complex_core import _bits
from chorded.corpus import named_corpus
from chorded.field_linalg import gf2_rref, sparse_rank
from chorded.homology import CERTIFICATE_PRIME, first_nonvanishing
from chorded.resolutions import _face_levels

from test_homology import reference_betti


def oracle_sweep(i: MonomialIdeal, t: int, f):
    """(linear, witness) by one induced ``Complex`` per window, every degree but t-2."""
    n = complex_of_ideal(i)
    for size in range(1, i.variable_count + 1):
        for w in itertools.combinations(range(i.variable_count), size):
            ind = induced_subcomplex(n, w)
            for h in range(ind.dim + 1):
                if h == t - 2:
                    continue
                b = reference_betti(ind, h, f)
                if b:
                    return False, (w, h, b)
    return True, None


def assert_agrees(i: MonomialIdeal, t: int, label):
    for f in PROBE_FIELDS:
        verdict = has_t_linear_resolution(i, t, f)
        assert (verdict.linear, verdict.witness) == oracle_sweep(i, t, f), (label, t, str(f))


def random_ideal(rng: random.Random, n: int, t: int) -> MonomialIdeal:
    """Generators: the t-subsets left out of a random set of (t-1)-faces."""
    pool = list(itertools.combinations(range(n), t))
    keep = rng.choice((0.5, 0.7, 0.85))
    gens = [Face.of(g) for g in pool if rng.random() >= keep] or [Face.of(rng.choice(pool))]
    return MonomialIdeal(n, gens)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_random_ideals_match_oracle(t):
    rng = random.Random(0x11_4E5 + t)
    for k in range(12):
        n = 10 if k == 0 else rng.randint(t + 1, 9)
        assert_agrees(random_ideal(rng, n, t), t, ("random", k, n))


def test_corpus_closures_match_oracle():
    for name, c in sorted(named_corpus().items()):
        for d in range(1, c.dim + 1):
            ideal = stanley_reisner_generators(d_closure(pure_skeleton(c, d), d))
            if not ideal.is_zero:
                assert_agrees(ideal, d + 1, (name, d))


def test_facet_ideal_components_match_oracle():
    for name, c in sorted(named_corpus().items()):
        ideal = facet_ideal_generators(c)
        if ideal.is_zero:
            continue
        for d in range(min(ideal.degrees()), c.vertex_count + 1):
            assert_agrees(degree_component(ideal, d), d, (name, d))


def test_projective_plane_splits_gf2_from_q():
    c = named_corpus()["projective_plane"]
    ideal = stanley_reisner_generators(d_closure(c, 2))
    gf2 = has_t_linear_resolution(ideal, 3, GF2)
    q = has_t_linear_resolution(ideal, 3, RATIONAL)
    assert (gf2.linear, gf2.witness) == (False, (tuple(range(6)), 2, 1))
    assert q.linear


def test_q_vanishing_is_certified_mod_p_and_nonvanishing_by_bareiss(monkeypatch):
    calls = []
    original = field_linalg._int_rank_bareiss

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(field_linalg, "_int_rank_bareiss", counting)
    rp2 = stanley_reisner_generators(d_closure(named_corpus()["projective_plane"], 2))
    assert has_t_linear_resolution(rp2, 3, RATIONAL).linear
    assert calls == []  # every window certified by its ranks mod 2147483647
    c5 = facet_ideal_generators(named_corpus()["cycle_graph_5"])
    verdict = has_t_linear_resolution(c5, 2, RATIONAL)
    assert verdict.witness == ((0, 1, 2, 3, 4), 1, 1)
    assert calls  # the witness window was recomputed exactly
    assert (verdict.linear, verdict.witness) == oracle_sweep(c5, 2, RATIONAL)


def test_window_cap_is_checked_before_the_sweep():
    ideal = facet_ideal_generators(named_corpus()["projective_plane"])
    with pytest.raises(CapExceeded) as err:
        has_t_linear_resolution(ideal, 3, GF2, cap=1)
    assert err.value.cap == 1
    assert err.value.needed == 57  # the vertex sets of 2 to 6 of the 6 vertices
    with pytest.raises(CapExceeded):
        is_componentwise_linear(ideal, GF2, cap=1)
    assert has_t_linear_resolution(ideal, 3, GF2, cap=57) == has_t_linear_resolution(ideal, 3, GF2)


def flat_first_nonvanishing(n, f, levels, sizes, degrees):
    """``homology.first_nonvanishing`` before the prefix walk: each window's faces ranked from scratch."""
    exact = f.kind == "rational"
    p = CERTIFICATE_PRIME if exact else f.p  # None for GF(2), whose boundary vectors are bitmasks
    below = {m: r for r, m in enumerate(levels[0])}
    contains = [0] * n
    blocks = []  # per degree offset: (first bit, width mask, boundary vectors)
    offset = 0
    for faces in levels[1:]:
        vectors = []
        for k, m in enumerate(faces):
            bit = 1 << (offset + k)
            signed = []
            for j, v in enumerate(_bits(m)):
                contains[v] |= bit
                signed.append((below[m ^ (1 << v)], -1 if j & 1 else 1))
            vectors.append(sum(1 << r for r, _ in signed) if p is None else tuple(signed))
        blocks.append((offset, (1 << len(faces)) - 1, vectors))
        below = {m: r for r, m in enumerate(faces)}
        offset += len(faces)
    if not blocks:
        return None
    everything = (1 << offset) - 1

    def rank(vectors) -> int:
        return len(gf2_rref(vectors)[1]) if p is None else sparse_rank(vectors, p)

    def inside(window: int, j: int) -> list:
        """The boundary vectors of the window's faces of degree offset j."""
        if j >= len(blocks):
            return []
        first, width, vectors = blocks[j]
        picked = []
        sel = window >> first & width
        while sel:
            low_bit = sel & -sel
            picked.append(vectors[low_bit.bit_length() - 1])
            sel ^= low_bit
        return picked

    for size in sizes:
        for w in itertools.combinations(range(n), size):
            outside = 0
            for v in set(range(n)).difference(w):
                outside |= contains[v]
            window = everything & ~outside
            up = inside(window, 0)
            rank_up = rank(up)
            for j in range(degrees):
                cols, rank_cols = up, rank_up
                if not cols:
                    break
                up = inside(window, j + 1)
                rank_up = rank(up)
                b = len(cols) - rank_cols - rank_up
                if b and exact:  # b is the betti number mod p, an upper bound over QQ
                    rank_up = sparse_rank(up)
                    b = len(cols) - sparse_rank(cols) - rank_up
                if b:
                    return w, j, b
    return None


WALK_FIELDS = (GF2, gfp(3), gfp(5), RATIONAL)


def assert_walk_agrees(n, levels, low, label):
    """The walk against the flat loop over the linres sizes, the one full window, one offset and all."""
    for f in WALK_FIELDS:
        for sizes in (range(low + 3, n + 1), (n,)):
            for degrees in (1, len(levels) - 1):
                expected = flat_first_nonvanishing(n, f, levels, sizes, degrees)
                got = first_nonvanishing(n, f, levels, sizes, degrees)
                assert got == expected, (label, str(f), list(sizes), degrees)


def random_levels(rng: random.Random, n: int, ghost: int | None):
    """``(low, levels)``: a random complex's faces on n vertices by size from ``low``, none through ``ghost``."""
    vertices = [v for v in range(n) if v != ghost]
    faces = {0}
    for _ in range(rng.randint(2, 3 * n)):
        facet = rng.sample(vertices, rng.randint(2, min(5, len(vertices))))
        for k in range(1, len(facet) + 1):
            faces.update(sum(1 << v for v in sub) for sub in itertools.combinations(facet, k))
    low = rng.randint(0, 2)
    levels = []
    while True:
        level = sorted(m for m in faces if m.bit_count() == low + len(levels))
        if not level:
            return low, levels
        levels.append(level)


def test_walk_matches_flat_loop_on_random_face_levels():
    rng = random.Random(0x14_7A1C)
    seen = set()
    for k in range(40):
        n = rng.randint(4, 11)
        ghost = rng.choice((None, None, 0, n // 2, n - 1))
        low, levels = random_levels(rng, n, ghost)
        if len(levels) < 2:
            continue
        assert_walk_agrees(n, levels, low, ("random", k, n, ghost))
        seen.add(first_nonvanishing(n, GF2, levels, range(low + 3, n + 1), len(levels) - 1) is None)
    assert seen == {True, False}  # both outcomes are exercised


def two_tree_with_bipyramid(n: int) -> Complex:
    """A leaf-attached 2-tree on the first n-5 vertices and an unfilled bipyramid on the last five."""
    rng = random.Random(n)
    triangles, edges = [(0, 1, 2)], [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n - 5):
        a, b = rng.choice(edges)
        triangles.append((a, b, v))
        edges += [(a, v), (b, v)]
    apexes, equator = (n - 5, n - 4), (n - 3, n - 2, n - 1)
    triangles += [(a, *e) for a in apexes for e in itertools.combinations(equator, 2)]
    return Complex(n, [Face.of(t) for t in triangles])


@pytest.mark.parametrize("n", [11, 12, 13])
def test_walk_matches_flat_loop_on_late_witnesses(n):
    ideal = stanley_reisner_generators(d_closure(two_tree_with_bipyramid(n), 2))
    levels = _face_levels(ideal, 3)
    witness = flat_first_nonvanishing(n, GF2, levels, range(5, n + 1), len(levels) - 1)
    assert witness == (tuple(range(n - 5, n)), 0, 1)  # the last 5-window in lex order
    assert_walk_agrees(n, levels, 2, ("late", n))


def test_walk_matches_flat_loop_around_a_vertex_with_no_face():
    c = named_corpus()["octahedron_boundary"]
    for ghost in (0, 3, c.vertex_count):  # relabel so that vertex `ghost` lies on no face
        def shift(m):
            low = m & ((1 << ghost) - 1)
            return low | (m ^ low) << 1
        n = c.vertex_count + 1
        levels = [sorted(shift(face.mask) for face in c.faces(k)) for k in range(-1, c.dim + 1)]
        assert_walk_agrees(n, levels, 0, ("ghost", ghost))
        assert first_nonvanishing(n, GF2, levels, (n,), len(levels) - 1) == (tuple(range(n)), 2, 1)
