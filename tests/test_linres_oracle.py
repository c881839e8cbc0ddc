"""The mask-native linear-resolution sweep against the per-window reference.

``oracle_sweep`` is the sweep as it stood before the mask-native engine: it
builds one ``Complex`` per vertex window and takes every degree but t-2
from ``reference_betti`` (boundary matrices and ``rank``), not from
``reduced_betti``, which shares its routine with the engine.  The engine
must return the same ``(linear, witness)`` on seeded random ideals, every
corpus closure and every facet-ideal degree component, over GF(2), GF(3)
and QQ.
"""

import itertools
import random

import pytest

from chorded import (
    CapExceeded,
    Face,
    GF2,
    MonomialIdeal,
    PROBE_FIELDS,
    RATIONAL,
    complex_of_ideal,
    d_closure,
    degree_component,
    facet_ideal_generators,
    has_t_linear_resolution,
    induced_subcomplex,
    is_componentwise_linear,
    pure_skeleton,
    stanley_reisner_generators,
)
from chorded import field_linalg
from chorded.corpus import named_corpus

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
