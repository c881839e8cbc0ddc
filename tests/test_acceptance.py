"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (integer equality or boolean verdicts); the stated
runtime budgets are asserted with ``time.perf_counter``.
"""

import hashlib
import itertools
import random
import time
from pathlib import Path

import numpy as np

from chorded import (
    Complex,
    Face,
    GF2,
    RATIONAL,
    boundary_chord_test,
    cycle_from_complex,
    d_closure,
    d_complement,
    exhaustive_chord_set_search,
    facet_ideal_generators,
    gfp,
    has_t_linear_resolution,
    is_d_chorded,
    is_d_cycle_complete,
    is_d_dimensional_cycle,
    is_d_tree,
    pure_skeleton,
    reduced_betti,
    stanley_reisner_generators,
)
from chorded.cli import run_command, serialize_report
from chorded.corpus import (
    projective_plane,
    random_pure_two_complex,
    random_two_tree,
    seven_vertex_counterexample,
    tetra_with_fin,
)
from chorded.cycles import CycleRecord, minimal_kernel_supports
from chorded.errors import CapExceeded
from chorded.verify import _oracle_instance

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PROBES = (GF2, gfp(3), RATIONAL)


def _report(number: int, name: str, started: float):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_closure_of_fin_complex():
    c = tetra_with_fin()
    started = time.perf_counter()
    closed = d_closure(c, 2)
    elapsed = time.perf_counter() - started
    names = sorted(tuple(closed.labels[v] for v in f.vertices) for f in closed.facets)
    assert names == [("a", "b", "c", "d"), ("a", "e"), ("b", "e"), ("c", "d", "e")]
    assert elapsed < 0.010, f"closure took {elapsed * 1000:.2f} ms"
    _report(1, "two-closure facets exact", started)


def test_criterion_2_projective_plane_characteristic_split():
    started = time.perf_counter()
    rp2 = projective_plane()
    assert reduced_betti(rp2, 1, GF2) == 1
    assert reduced_betti(rp2, 2, GF2) == 1
    assert reduced_betti(rp2, 1, RATIONAL) == 0
    assert reduced_betti(rp2, 2, RATIONAL) == 0
    path = str(CORPUS / "projective_plane.facets")
    gf2_report, code = run_command(["linres", "-t", "3", "--field", "gf2", "--closure", "-d", "2", path])
    assert code == 0 and gf2_report["result"]["linear"] is False
    q_report, code = run_command(["linres", "-t", "3", "--field", "q", "--closure", "-d", "2", path])
    assert code == 0 and q_report["result"]["linear"] is True
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion took {elapsed:.2f} s"
    _report(2, "projective-plane characteristic split", started)


def test_criterion_3_counterexample_end_to_end():
    started = time.perf_counter()
    g = seven_vertex_counterexample()
    assert is_d_chorded(g, 3).chorded

    closure = d_closure(g, 3)
    sk4 = pure_skeleton(closure, 4)
    assert is_d_dimensional_cycle(sk4, 4)
    record = cycle_from_complex(sk4, 4)
    assert not record.is_complete()
    assert boundary_chord_test(record, sk4) is None

    assert reduced_betti(closure, 4, GF2) != 0

    report, code = run_command(
        ["linres", "-t", "4", "--field", "gf2", "--closure", "-d", "3",
         str(CORPUS / "seven_vertex_counterexample.facets")]
    )
    assert code == 0 and report["result"]["linear"] is False
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion took {elapsed:.2f} s"
    _report(3, "thirty-facet complex end to end", started)


def _edge_positions(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _graphs_up_to_iso_on_six() -> list[list[tuple[int, int]]]:
    """Canonical representatives of all graphs on six vertices, via the
    minimum edge bitmask over all vertex permutations."""
    pairs = _edge_positions(6)
    index = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    canonical = masks.copy()
    for perm in itertools.permutations(range(6)):
        mapped = np.zeros_like(masks)
        for p, (i, j) in enumerate(pairs):
            q = index[tuple(sorted((perm[i], perm[j])))]
            mapped |= ((masks >> p) & 1) << q
        np.minimum(canonical, mapped, out=canonical)
    reps = np.unique(canonical)
    return [[pairs[p] for p in range(len(pairs)) if int(rep) >> p & 1] for rep in reps]


def _froeberg_agrees(n: int, edges: list[tuple[int, int]]) -> bool:
    g = Complex(n, [Face.of(e) for e in edges])
    complement = d_complement(g, 1)
    chorded = is_d_chorded(complement, 1).chorded
    ideal = facet_ideal_generators(g)
    for f in (GF2, RATIONAL):
        if has_t_linear_resolution(ideal, 2, f).linear != chorded:
            return False
    return True


def test_criterion_4_froeberg_graph_equivalence():
    started = time.perf_counter()
    checked = 0
    # all labelled graphs with at least one edge on up to five vertices
    for n in range(2, 6):
        pairs = _edge_positions(n)
        for bits in range(1, 1 << len(pairs)):
            edges = [pairs[p] for p in range(len(pairs)) if bits >> p & 1]
            assert _froeberg_agrees(n, edges), (n, edges)
            checked += 1
    # plus one representative per isomorphism class on six vertices
    six = [edges for edges in _graphs_up_to_iso_on_six() if edges]
    assert len(six) == 155  # 156 classes minus the edgeless graph
    for edges in six:
        assert _froeberg_agrees(6, edges), (6, edges)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion took {elapsed:.1f} s"
    _report(4, f"chordal-complement equivalence on {checked} graphs", started)


def test_criterion_5_tree_resolutions():
    started = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    for i in range(100):
        tree = random_two_tree(rng, max_vertices=8)
        assert is_d_tree(tree, 2), i
        ideal = stanley_reisner_generators(d_closure(tree, 2))
        assert has_t_linear_resolution(ideal, 3, GF2).linear, i
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion took {elapsed:.1f} s"
    _report(5, "100 random two-trees have char-2 linear closures", started)


def test_criterion_6_main_theorem_forward():
    started = time.perf_counter()
    rng = random.Random(0x5EED)
    for i in range(200):
        c = random_pure_two_complex(rng, max_vertices=7)
        ideal = stanley_reisner_generators(d_closure(c, 2))
        if ideal.is_zero:
            # complete complexes have acyclic closures; chordedness must hold
            assert is_d_chorded(c, 2).chorded, i
            continue
        linear = {f: has_t_linear_resolution(ideal, 3, f).linear for f in PROBES}
        if linear[GF2]:
            assert is_d_chorded(c, 2).chorded, i
        if any(linear.values()):
            assert is_d_cycle_complete(c, 2, orientable_mode=True), i
    _report(6, "main-theorem forward direction on 200 random complexes", started)


def test_criterion_7_chord_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xACE)
    instances = 0
    cycles_checked = 0
    while instances < 500:
        c = _oracle_instance(rng)
        instances += 1
        faces = sorted(c.faces(2), key=lambda f: f.vertices)
        masks = [f.mask for f in faces]
        for support in minimal_kernel_supports(masks, 1 << 20):
            record = CycleRecord(
                2, frozenset(faces[j] for j in range(len(faces)) if support >> j & 1),
                face_minimal=True,
            )
            if record.is_complete():
                continue
            via_boundary = boundary_chord_test(record, c)
            try:
                via_search = exhaustive_chord_set_search(record, c, 1 << 20)
            except CapExceeded:
                continue
            assert (via_boundary is None) == (via_search is None), (
                sorted(tuple(f.vertices) for f in c.facets),
                sorted(tuple(f.vertices) for f in record.faces),
            )
            cycles_checked += 1
    assert cycles_checked > 100  # the sampler must actually exercise the oracle
    _report(7, f"boundary test agrees with exhaustive search on {cycles_checked} cycles", started)


# sha256 of `chorded verify-corpus`'s report at the default seed; any byte change in it is a regression
VERIFY_CORPUS_SHA256 = "936b5a8c7ac979203b42f64840797baca1601182ab660d2a04fc2388a9a73393"


def test_criterion_8_verify_corpus_exit_zero():
    started = time.perf_counter()
    report, code = run_command(["verify-corpus"])
    assert code == 0, [p for p in report["result"]["properties"] if not p["passed"]]
    assert report["result"]["all_passed"] is True
    assert report["settings"]["seed"] == 20240901
    assert hashlib.sha256(serialize_report(report).encode()).hexdigest() == VERIFY_CORPUS_SHA256
    _report(8, "verify-corpus structural suites", started)
