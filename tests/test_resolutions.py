import random

import pytest

from chorded import (
    CapExceeded,
    Face,
    GF2,
    InputError,
    MonomialIdeal,
    PROBE_FIELDS,
    RATIONAL,
    complex_of_ideal,
    d_closure,
    d_complement,
    degree_component,
    facet_ideal_generators,
    gfp,
    has_t_linear_resolution,
    is_componentwise_linear,
    is_d_chorded,
    min_generation_degree,
    pure_skeleton,
    stanley_reisner_generators,
)
from chorded.corpus import (
    cycle_graph,
    named_corpus,
    path_graph,
    random_two_tree,
    tetra_with_fin,
)

from test_linres_oracle import random_ideal


def gen_names(ideal):
    return sorted(tuple(ideal.labels[v] for v in g.vertices) for g in ideal.generators)


def test_min_generation_degree_fig6_closure():
    ideal = stanley_reisner_generators(d_closure(tetra_with_fin(), 2))
    assert min_generation_degree(ideal) == 3


def test_min_generation_degree_c5():
    # the Stanley-Reisner ideal of the 5-cycle's clique closure: five non-edges
    ideal = stanley_reisner_generators(d_closure(cycle_graph(5), 1))
    assert min_generation_degree(ideal) == 2
    assert len(ideal.generators) == 5


def test_min_generation_degree_mixed_returns_none():
    ideal = MonomialIdeal(4, [Face.of([0, 1]), Face.of([0, 2, 3])])
    assert min_generation_degree(ideal) is None


def test_min_generation_degree_zero_ideal():
    with pytest.raises(InputError):
        min_generation_degree(MonomialIdeal(3))


def test_linres_complement_of_chordal_graph():
    # the complement of P4 is chordal, so the edge ideal of P4 is 2-linear
    p4 = path_graph(4)
    ideal = facet_ideal_generators(p4)
    for f in (GF2, RATIONAL, gfp(3)):
        assert has_t_linear_resolution(ideal, 2, f).linear


def test_linres_c5_fails_with_full_witness():
    ideal = facet_ideal_generators(cycle_graph(5))
    verdict = has_t_linear_resolution(ideal, 2, GF2)
    assert not verdict.linear
    w, degree, value = verdict.witness
    assert w == (0, 1, 2, 3, 4)
    assert degree == 1
    assert value == 1


def test_linres_counterexample7_char2(counterexample7):
    ideal = stanley_reisner_generators(d_closure(counterexample7, 3))
    assert min_generation_degree(ideal) == 4
    verdict = has_t_linear_resolution(ideal, 4, GF2)
    assert not verdict.linear
    assert verdict.witness[1] == 4  # homology appears one level above the base dimension


def test_linres_wrong_degree_rejected():
    ideal = facet_ideal_generators(path_graph(4))
    with pytest.raises(InputError, match="generated in degree 2, not 3$"):
        has_t_linear_resolution(ideal, 3, GF2)


def test_linres_mixed_degrees_are_named():
    ideal = stanley_reisner_generators(named_corpus()["bipyramid"])
    assert ideal.degrees() == {2, 3}
    with pytest.raises(InputError) as err:
        has_t_linear_resolution(ideal, 3, GF2)
    assert str(err.value) == "ideal is minimally generated in degrees 2, 3, not in degree 3 alone"


def test_linres_variable_cap():
    ideal = MonomialIdeal(21, [Face.of([0, 1])])
    with pytest.raises(CapExceeded):
        has_t_linear_resolution(ideal, 2, GF2)


def test_linres_many_variables_within_cap():
    # 254 vertex sets of 20 or more of the 22 variables: no limit on n itself
    ideal = MonomialIdeal(22, [Face.of(range(21))])
    assert has_t_linear_resolution(ideal, 21, GF2).linear
    assert is_componentwise_linear(ideal, GF2).componentwise_linear


def test_refused_sweep_never_builds_the_complex(monkeypatch):
    from chorded import resolutions

    built = []
    face_levels = resolutions._face_levels

    def recording(i, t):
        built.append(t)
        return face_levels(i, t)

    monkeypatch.setattr(resolutions, "_face_levels", recording)
    ideal = facet_ideal_generators(cycle_graph(5))
    with pytest.raises(CapExceeded):
        has_t_linear_resolution(ideal, 2, GF2, cap=30)
    with pytest.raises(CapExceeded):
        is_componentwise_linear(ideal, GF2, cap=30)
    assert built == []  # no face of the ideal's complex was built
    has_t_linear_resolution(ideal, 2, GF2)
    assert built == [2]  # an accepted sweep builds its faces here


def uniform_ideals():
    """(label, ideal, t): the ideals the linear-resolution oracle tests sweep."""
    for t in (1, 2, 3, 4):
        rng = random.Random(0x11_4E5 + t)
        for k in range(12):
            n = 10 if k == 0 else rng.randint(t + 1, 9)
            yield ("random", t, k), random_ideal(rng, n, t), t
    for name, c in sorted(named_corpus().items()):
        for d in range(1, c.dim + 1):
            ideal = stanley_reisner_generators(d_closure(pure_skeleton(c, d), d))
            if not ideal.is_zero:
                yield (name, "closure", d), ideal, d + 1
        ideal = facet_ideal_generators(c)
        if not ideal.is_zero:
            for d in range(min(ideal.degrees()), c.vertex_count + 1):
                yield (name, "component", d), degree_component(ideal, d), d


def test_face_levels_are_the_complex_of_the_ideal():
    from chorded.resolutions import _face_levels

    for label, ideal, t in uniform_ideals():
        c = complex_of_ideal(ideal)
        assert c == d_closure(pure_skeleton(c, t - 1), t - 1), label
        faces = [sorted(f.mask for f in c.faces(h)) for h in range(t - 2, c.dim + 1)]
        assert _face_levels(ideal, t) == faces, label


def test_degree_component_examples():
    c5_ideal = facet_ideal_generators(cycle_graph(5))
    assert degree_component(c5_ideal, 2) == c5_ideal

    single = MonomialIdeal(3, [Face.of([0])], ("x1", "x2", "x3"))
    comp = degree_component(single, 2)
    assert gen_names(comp) == [("x1", "x2"), ("x1", "x3")]

    cube = MonomialIdeal(3, [Face.of([0, 1, 2])], ("x1", "x2", "x3"))
    assert degree_component(cube, 2).is_zero


def test_componentwise_principal_ideal():
    ideal = MonomialIdeal(4, [Face.of([0, 1])])
    verdict = is_componentwise_linear(ideal, GF2)
    assert verdict.componentwise_linear


def test_componentwise_mixed_degrees():
    # components: (x1) in degree 1, all pairs in degree 2, everything above
    ideal = MonomialIdeal(3, [Face.of([0]), Face.of([1, 2])], ("x1", "x2", "x3"))
    for f in PROBE_FIELDS:
        verdict = is_componentwise_linear(ideal, f)
        assert verdict.componentwise_linear
        assert [d for d, _ in verdict.per_degree] == [1, 2, 3]


def test_componentwise_c5_fails():
    ideal = stanley_reisner_generators(d_closure(cycle_graph(5), 1))
    verdict = is_componentwise_linear(ideal, RATIONAL)
    assert not verdict.componentwise_linear
    failing = [d for d, v in verdict.per_degree if not v.linear]
    assert failing[0] == 2


def test_tree_closures_linear_over_char2():
    import random

    rng = random.Random(411)
    for _ in range(12):
        tree = random_two_tree(rng, max_vertices=7)
        ideal = stanley_reisner_generators(d_closure(tree, 2))
        assert has_t_linear_resolution(ideal, 3, GF2).linear


def test_main_theorem_on_small_corpus():
    # characteristic-2 linearity of the closure ideal forces d-chordedness
    for c in (tetra_with_fin(), cycle_graph(5), cycle_graph(4), path_graph(4)):
        d = c.dim
        ideal = stanley_reisner_generators(d_closure(c, d))
        if ideal.is_zero:
            continue
        if has_t_linear_resolution(ideal, d + 1, GF2).linear:
            assert is_d_chorded(c, d).chorded


def test_skeleton_identity_via_components(rp2, counterexample7):
    for c in (rp2, counterexample7, tetra_with_fin()):
        sr = stanley_reisner_generators(c)
        for d in range(1, c.dim + 2):
            left = pure_skeleton(c, d - 1)
            right = pure_skeleton(complex_of_ideal(degree_component(sr, d)), d - 1)
            assert left == right, (d,)


def test_orientable_completeness_does_not_force_linearity():
    # converse failure: orientably-2-cycle-complete, yet the closure ideal is
    # not 3-linear over any probe field (the inner sphere stays a hole)
    from chorded import is_d_cycle_complete
    from chorded.corpus import sphere_with_inner_tetrahedron

    st = sphere_with_inner_tetrahedron()
    assert is_d_cycle_complete(st, 2, orientable_mode=True)
    ideal = stanley_reisner_generators(d_closure(st, 2))
    for f in PROBE_FIELDS:
        verdict = has_t_linear_resolution(ideal, 3, f)
        assert not verdict.linear
        assert verdict.witness == (tuple(range(8)), 2, 1)


def test_complement_edge_ideal_equals_closure_sr(rp2):
    # the two ideal routes agree degreewise, so linres verdicts transfer
    left = facet_ideal_generators(d_complement(rp2, 2))
    right = stanley_reisner_generators(d_closure(rp2, 2))
    assert left.generators == frozenset(g for g in right.generators if len(g) == 3)
