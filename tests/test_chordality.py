import gc

import pytest

from chorded import (
    CapExceeded,
    Complex,
    CycleRecord,
    Face,
    InputError,
    PurityError,
    boundary_chord_test,
    build_complex,
    chordality_report,
    cycle_from_complex,
    d_closure,
    exhaustive_chord_set_search,
    is_chorded,
    is_d_chorded,
    is_d_cycle_complete,
    is_d_tree,
    pure_skeleton,
    verify_chord_set,
)
from chorded.corpus import (
    bipyramid,
    bipyramid_with_chord,
    complete_graph,
    complete_skeleton,
    cycle_graph,
    glued_tetrahedra,
    hexagon_with_long_chords,
    hollow_tetrahedron,
    octahedron_boundary,
    octahedron_with_axis_chords,
    path_graph,
    sphere_with_inner_tetrahedron,
    tetra_with_fin,
)


def face(c, labels):
    pos = {lab: i for i, lab in enumerate(c.labels)}
    return Face.of(pos[lab] for lab in labels)


def cycle_on(c, facet_labels, d):
    return CycleRecord(d, frozenset(face(c, labels) for labels in facet_labels))


def test_verify_chord_set_hexagon():
    ambient = hexagon_with_long_chords()
    hexagon = cycle_on(ambient, [("v0", "v1"), ("v1", "v2"), ("v2", "v3"),
                                 ("v3", "v4"), ("v4", "v5"), ("v0", "v5")], 1)
    chords = {face(ambient, ("v0", "v2")), face(ambient, ("v2", "v4")), face(ambient, ("v0", "v4"))}
    witnesses = [
        cycle_on(ambient, [("v0", "v1"), ("v1", "v2"), ("v0", "v2")], 1),
        cycle_on(ambient, [("v2", "v3"), ("v3", "v4"), ("v2", "v4")], 1),
        cycle_on(ambient, [("v4", "v5"), ("v0", "v5"), ("v0", "v4")], 1),
        cycle_on(ambient, [("v0", "v2"), ("v2", "v4"), ("v0", "v4")], 1),
    ]
    assert verify_chord_set(chords, hexagon, ambient, witnesses)



def test_verify_chord_set_rejects_a_witness_that_is_not_a_cycle():
    # a lone chord, listed twice so that every covering parity still holds
    ambient = hexagon_with_long_chords()
    hexagon = cycle_on(ambient, [("v0", "v1"), ("v1", "v2"), ("v2", "v3"),
                                 ("v3", "v4"), ("v4", "v5"), ("v0", "v5")], 1)
    chords = {face(ambient, ("v0", "v2")), face(ambient, ("v2", "v4")), face(ambient, ("v0", "v4"))}
    witnesses = [
        cycle_on(ambient, [("v0", "v1"), ("v1", "v2"), ("v0", "v2")], 1),
        cycle_on(ambient, [("v2", "v3"), ("v3", "v4"), ("v2", "v4")], 1),
        cycle_on(ambient, [("v4", "v5"), ("v0", "v5"), ("v0", "v4")], 1),
        cycle_on(ambient, [("v0", "v2"), ("v2", "v4"), ("v0", "v4")], 1),
    ]
    lone = cycle_on(ambient, [("v0", "v2")], 1)
    assert not verify_chord_set(chords, hexagon, ambient, witnesses + [lone, lone])

def test_verify_chord_set_bipyramid():
    ambient = bipyramid_with_chord()
    omega = cycle_on(ambient, [("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"),
                               ("a", "b", "e"), ("a", "c", "e"), ("b", "c", "e")], 2)
    chords = {face(ambient, ("a", "b", "c"))}
    witnesses = [
        cycle_on(ambient, [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")], 2),
        cycle_on(ambient, [("a", "b", "c"), ("a", "b", "e"), ("a", "c", "e"), ("b", "c", "e")], 2),
    ]
    assert verify_chord_set(chords, omega, ambient, witnesses)


def test_verify_chord_set_needs_two_witnesses(tetra):
    record = cycle_from_complex(tetra, 2)
    assert not verify_chord_set(set(), record, tetra, [record])


def test_verify_chord_set_rejects_outside_vertices():
    ambient = glued_tetrahedra()
    t1 = cycle_on(ambient, [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")], 2)
    chord_outside = face(ambient, ("c", "d", "e"))  # uses vertex e outside V(t1)
    assert not verify_chord_set({chord_outside}, t1, ambient, [t1, t1])


def test_boundary_chord_test_bipyramid():
    ambient = bipyramid_with_chord()
    omega = cycle_from_complex(bipyramid(), 2)
    record = boundary_chord_test(omega, ambient)
    assert record is not None
    assert record.source == "boundary_certificate"
    assert {f.vertices for f in record.chords} == {face(ambient, ("a", "b", "c")).vertices}
    assert len(record.witnesses) == 2
    assert verify_chord_set(record.chords, omega, ambient, record.witnesses)


def test_boundary_chord_test_absent_without_chord_face():
    ambient = bipyramid()
    omega = cycle_from_complex(ambient, 2)
    assert boundary_chord_test(omega, ambient) is None


def test_boundary_chord_test_rejects_complete(tetra):
    record = cycle_from_complex(tetra, 2)
    with pytest.raises(InputError):
        boundary_chord_test(record, tetra)


@pytest.mark.parametrize("search", [boundary_chord_test, exhaustive_chord_set_search])
def test_chord_tests_reject_a_cycle_outside_the_ambient(search):
    ambient = build_complex(["ab", "bc", "cd", "ad", "ae"])
    square = cycle_on(ambient, ["ab", "bc", "ce", "ae"], 1)  # ce is not an edge of the ambient
    with pytest.raises(InputError, match="expects a cycle inside the ambient complex"):
        search(square, ambient)


def test_exhaustive_search_matches_boundary_on_bipyramid():
    ambient = bipyramid_with_chord()
    omega = cycle_from_complex(bipyramid(), 2)
    record = exhaustive_chord_set_search(omega, ambient)
    assert record is not None
    assert record.source == "exhaustive"
    assert {f.vertices for f in record.chords} == {face(ambient, ("a", "b", "c")).vertices}


def test_exhaustive_search_hexagon_finds_set():
    ambient = hexagon_with_long_chords()
    hexagon = cycle_on(ambient, [("v0", "v1"), ("v1", "v2"), ("v2", "v3"),
                                 ("v3", "v4"), ("v4", "v5"), ("v0", "v5")], 1)
    record = exhaustive_chord_set_search(hexagon, ambient)
    assert record is not None
    assert record.chords


def test_exhaustive_search_leaves_no_reference_cycles():
    ambient = hexagon_with_long_chords()
    hexagon = cycle_on(ambient, [("v0", "v1"), ("v1", "v2"), ("v2", "v3"),
                                 ("v3", "v4"), ("v4", "v5"), ("v0", "v5")], 1)
    omega = cycle_from_complex(bipyramid(), 2)
    calls = [(hexagon, ambient), (omega, bipyramid_with_chord())]
    for cycle, amb in calls:  # first calls import and cache what they use
        exhaustive_chord_set_search(cycle, amb)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            for cycle, amb in calls:
                assert exhaustive_chord_set_search(cycle, amb) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exhaustive_search_absent_without_candidates():
    ambient = bipyramid()
    omega = cycle_from_complex(ambient, 2)
    assert exhaustive_chord_set_search(omega, ambient) is None


def test_is_d_chorded_graph_cases():
    assert not is_d_chorded(cycle_graph(4), 1).chorded
    with_chord = build_complex(["ab", "bc", "cd", "ad", "ac"])
    assert is_d_chorded(with_chord, 1).chorded
    assert is_d_chorded(path_graph(5), 1).chorded
    assert is_d_chorded(hexagon_with_long_chords(), 1).chorded
    assert not is_d_chorded(cycle_graph(5), 1).chorded


def test_is_d_chorded_counterexample7(counterexample7):
    result = is_d_chorded(counterexample7, 3)
    assert result.chorded
    assert result.non_complete_cycles > 0
    for record, cert in result.certificates:
        assert cert is not None
        assert verify_chord_set(cert.chords, record, counterexample7, cert.witnesses)


def test_is_d_chorded_octahedron():
    # the bare boundary has no candidate chord faces at all
    assert not is_d_chorded(octahedron_boundary(), 2).chorded
    # adding the four axis triangles realizes the size-4 chord set
    result = is_d_chorded(octahedron_with_axis_chords(), 2)
    assert result.chorded
    oct_cycle = next(
        (rec, cert) for rec, cert in result.certificates if len(rec.faces) == 8
    )
    assert len(oct_cycle[1].chords) == 4


def test_is_d_chorded_requires_purity():
    with pytest.raises(PurityError):
        is_d_chorded(build_complex(["abc", "de"]), 2)


def test_is_d_cycle_complete_cases(rp2, tetra):
    chordal = build_complex(["ab", "bc", "cd", "ad", "ac"])
    assert is_d_cycle_complete(chordal, 1, False)
    assert is_d_cycle_complete(chordal, 1, True)
    assert not is_d_cycle_complete(rp2, 2, False)
    assert is_d_cycle_complete(rp2, 2, True)
    assert is_d_cycle_complete(tetra, 2, False)
    assert is_d_cycle_complete(tetra, 2, True)


def test_sphere_with_tetra_separates_classes():
    ambient = sphere_with_inner_tetrahedron()
    assert is_d_cycle_complete(ambient, 2, False)
    assert is_d_cycle_complete(ambient, 2, True)
    assert not is_d_chorded(ambient, 2).chorded


def test_is_d_tree():
    assert is_d_tree(build_complex(["abc", "abd"]), 2)
    assert not is_d_tree(hollow_tetrahedron(), 2)
    assert is_d_tree(path_graph(6), 1)
    assert not is_d_tree(cycle_graph(6), 1)


def test_is_chorded_simplex_skeletons():
    for n, d in ((5, 1), (5, 2), (6, 2)):
        assert is_d_chorded(complete_skeleton(n, d), d).chorded
    assert is_chorded(build_complex(["abcde"]))


def test_is_chorded_fails_on_bad_skeleton():
    square = cycle_graph(4)
    assert not is_chorded(square)


def test_chordality_report_nesting(tetra, rp2):
    rep = chordality_report(tetra, 2)
    assert (rep.d_tree, rep.d_chorded, rep.d_cycle_complete, rep.orientably_d_cycle_complete) == (
        False, True, True, True,
    )
    rep2 = chordality_report(rp2, 2)
    assert (rep2.d_tree, rep2.d_chorded, rep2.d_cycle_complete, rep2.orientably_d_cycle_complete) == (
        False, False, False, True,
    )


def test_chorded_heredity_examples():
    from chorded import induced_subcomplex
    import itertools

    for ambient in (bipyramid_with_chord(), octahedron_with_axis_chords(), tetra_with_fin()):
        assert is_d_chorded(ambient, 2).chorded
        for size in range(1, ambient.vertex_count):
            for w in itertools.combinations(range(ambient.vertex_count), size):
                sub = pure_skeleton(induced_subcomplex(ambient, w), 2)
                assert is_d_chorded(sub, 2).chorded


def test_counterexample7_all_skeletons_chorded(counterexample7):
    # the top dimension and both lower skeletons pass, so the aggregate holds
    assert is_chorded(counterexample7)


def test_counterexample7_four_skeleton_has_no_chord_set(counterexample7):
    closure = d_closure(counterexample7, 3)
    sk4 = pure_skeleton(closure, 4)
    record = cycle_from_complex(sk4, 4)
    assert not record.is_complete()
    assert boundary_chord_test(record, sk4) is None


def test_per_cycle_routes_can_diverge_on_larger_ambients():
    # With two equator caps added to the octahedron, the boundary cycle owns
    # a genuine chord set whose witnesses are six-face cycles, yet the
    # induced closure has no top faces at all, so the boundary route reports
    # absent for that one cycle.  The complex-level verdicts still agree:
    # the witness cycles themselves are unchordable, so the ambient is not
    # 2-chorded either way.  This pins why the oracle-equivalence sweep is
    # restricted to small ambients where tetrahedral witnesses dominate.
    ambient_base = octahedron_boundary()
    pos = {lab: i for i, lab in enumerate(ambient_base.labels)}
    caps = [Face.of([pos["a"], pos["b"], pos["c"]]), Face.of([pos["a"], pos["c"], pos["d"]])]
    ambient = Complex(6, list(ambient_base.facets) + caps, ambient_base.labels)

    boundary_cycle = CycleRecord(2, frozenset(ambient_base.facets), face_minimal=True)
    assert boundary_chord_test(boundary_cycle, ambient) is None
    found = exhaustive_chord_set_search(boundary_cycle, ambient)
    assert found is not None
    assert {tuple(f.vertices) for f in found.chords} == {tuple(c.vertices) for c in caps}
    assert verify_chord_set(found.chords, boundary_cycle, ambient, found.witnesses)
    assert all(len(w.faces) == 6 for w in found.witnesses)

    assert not is_d_chorded(ambient, 2).chorded


def test_cycle_complete_vertex_sweep_cap(monkeypatch):
    from chorded import cycles as cycles_mod

    # the vertex count bounds nothing: a 17-vertex path has no cycles at all
    assert is_d_cycle_complete(path_graph(17), 1)
    calls = []
    for name in ("gf2_kernel_masks", "_cycles_avoiding"):
        original = getattr(cycles_mod, name)
        monkeypatch.setattr(cycles_mod, name, lambda *args, _fn=original, _name=name: calls.append(_name) or _fn(*args))
    # K5 sweeps its 5-vertex window, then the three 4-vertex windows left by
    # removing a vertex of its first triangle; the cap counts those windows
    # and refuses a size before computing any of its kernels
    with pytest.raises(CapExceeded) as err:
        is_d_cycle_complete(complete_graph(5), 1, cap=3)
    assert (err.value.needed, err.value.cap) == (4, 3)
    assert calls == ["gf2_kernel_masks"] + ["_cycles_avoiding"] * 3
    calls.clear()
    with pytest.raises(CapExceeded) as err:
        is_d_cycle_complete(complete_graph(5), 1, cap=0)
    assert (err.value.needed, err.value.cap) == (1, 0)
    assert calls == ["gf2_kernel_masks"]  # the cycle space whose window is the first one
    assert is_d_cycle_complete(complete_graph(5), 1, cap=4)


@pytest.mark.parametrize("n", [8, 9])
def test_plain_cycle_complete_decides_complete_skeletons(n):
    # kernels of 2^35 and 2^56 vectors, far over the default cap; few windows
    full = complete_skeleton(n, 2)
    assert is_d_cycle_complete(full, 2)
    assert is_d_cycle_complete(Complex(n, [f for f in full.faces(2) if f.vertices != (0, 1, 2)]), 2)


def test_plain_cycle_complete_long_cycle_graph():
    # an induced 24-cycle holds no triangle: its window is minimal at once
    assert not is_d_cycle_complete(cycle_graph(24), 1)


def test_exhaustive_search_candidate_cap():
    # a bipyramid inside the complete skeleton sees four candidate chords
    dense = complete_skeleton(6, 2)
    omega = cycle_from_complex(bipyramid(), 2)
    with pytest.raises(CapExceeded) as err:
        exhaustive_chord_set_search(omega, dense, cap=8)
    assert (err.value.needed, err.value.cap) == (16, 8)


def test_cycle_complete_hands_cap_to_every_orientability_search(monkeypatch):
    import inspect

    from chorded import chordality as chordality_mod
    from chorded import cycles as cycles_mod

    # the sign classes are the orientability stage that applies the cap
    cap = (1 << 6) - 3
    original = cycles_mod._sign_classes
    signature = inspect.signature(original)
    seen = []

    def spy(home):
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((home, bound.arguments["cap"]))
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(chordality_mod, "_sign_classes", spy("chordality"))
    monkeypatch.setattr(cycles_mod, "_sign_classes", spy("cycles"))
    cycles_mod._orientable_cycle_within.cache_clear()
    # 2^8 > cap, so the 8-face union cycle's own sign classes run first, and
    # its vertex-minimality sweep meets each tetrahedron
    assert is_d_cycle_complete(glued_tetrahedra(), 2, True, cap)
    assert {home for home, _ in seen} == {"chordality", "cycles"}
    assert all(got == cap for _, got in seen)
