"""The corpus property runner behind ``chorded verify-corpus``.

Runs every cross-module property from the library's contracts against the
shipped corpus, seeded random complexes, and any extra facet files, and
reports per-property instance counts with the first counterexample
serialized verbatim.  Any violation makes the overall run fail (CLI exit
code 1).  Cap overruns surface as inconclusive, never as failures.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

from .complex_core import (
    Complex,
    Face,
    complex_of_ideal,
    d_closure,
    d_complement,
    facet_ideal_generators,
    induced_subcomplex,
    pure_skeleton,
    stanley_reisner_generators,
)
from .chordality import (
    boundary_chord_test,
    exhaustive_chord_set_search,
    is_d_chorded,
    is_d_cycle_complete,
    is_d_tree,
    is_chorded,
    verify_chord_set,
)
from .corpus import (
    hollow_tetrahedron,
    named_corpus,
    projective_plane,
    random_pure_two_complex,
    random_two_tree,
)
from .cycles import (
    CycleRecord,
    classify_minimality,
    d_path_components,
    decompose_cycle,
    enumerate_cycles_within,
    face_columns,
    faces_of,
    is_d_dimensional_cycle,
    is_orientable,
    minimal_kernel_supports,
)
from .errors import CapExceeded
from .field_linalg import (
    DEFAULT_KERNEL_CAP,
    GF2,
    RATIONAL,
    ChainVector,
    SparseMatrix,
    apply_matrix,
    enumerate_kernel_vectors,
    gfp,
    in_image,
    kernel_basis,
    rank,
)
from .homology import boundary_matrix, reduced_betti
from .resolutions import PROBE_FIELDS, has_t_linear_resolution, is_componentwise_linear

GF3 = gfp(3)
GF5 = gfp(5)


def _facet_lists(c: Complex) -> list[list[str]]:
    return sorted([c.labels[v] for v in f.vertices] for f in c.facets)


def _complex_json(c: Complex) -> dict:
    return {"vertices": list(c.labels), "facets": _facet_lists(c)}


class _Check:
    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.counterexample: dict | None = None
        self.inconclusive = 0

    def tick(self):
        self.instances += 1

    def fail(self, **detail):
        if self.counterexample is None:
            self.counterexample = detail

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def as_json(self) -> dict:
        out = {"property": self.name, "instances": self.instances, "passed": self.passed}
        if self.inconclusive:
            out["inconclusive_instances"] = self.inconclusive
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _pure_dims(c: Complex) -> list[int]:
    """Dimensions d for which the pure d-skeleton has any faces."""
    return [d for d in range(1, c.dim + 1) if c.faces(d)]


def verify_corpus(
    seed: int = 20240901,
    cap: int = DEFAULT_KERNEL_CAP,
    corpus_dir: str | None = None,
    random_instances: int = 200,
    oracle_instances: int = 120,
) -> dict:
    """Run every property suite; returns the full report body."""
    rng = random.Random(seed)
    corpus = dict(named_corpus())
    if corpus_dir:
        from .cli import parse_facet_file

        for path in sorted(Path(corpus_dir).glob("*.facets")):
            corpus[f"file:{path.name}"] = parse_facet_file(path.read_text(encoding="utf-8"))

    randoms = [random_pure_two_complex(rng) for _ in range(random_instances)]
    trees = [random_two_tree(rng) for _ in range(40)]
    checks: list[_Check] = []

    small_corpus = {k: v for k, v in corpus.items() if v.vertex_count <= 7}

    # --- complex_core ------------------------------------------------------
    chk = _Check("absorption_facets_maximal")
    checks.append(chk)
    for name, c in corpus.items():
        chk.tick()
        for f, g in itertools.permutations(c.facets, 2):
            if f.issubset(g):
                chk.fail(complex=name, contained=[c.labels[v] for v in f.vertices])
                break

    chk = _Check("skeleton_idempotent")
    checks.append(chk)
    for name, c in corpus.items():
        for d in _pure_dims(c):
            chk.tick()
            once = pure_skeleton(c, d)
            if pure_skeleton(once, d) != once:
                chk.fail(complex=name, d=d)

    chk = _Check("closure_commutes_with_induced")
    checks.append(chk)
    for name, c in list(small_corpus.items()) + [(f"random_{i}", r) for i, r in enumerate(randoms[:40])]:
        for d in _pure_dims(c):
            skel = pure_skeleton(c, d)
            closed = d_closure(skel, d)
            for size in range(1, c.vertex_count + 1):
                for w in itertools.combinations(range(c.vertex_count), size):
                    chk.tick()
                    left = induced_subcomplex(closed, w)
                    right = d_closure(pure_skeleton(induced_subcomplex(skel, w), d), d)
                    if left != right:
                        chk.fail(complex=name, d=d, w=[c.labels[v] for v in w],
                                 left=_complex_json(left), right=_complex_json(right))
                        break

    chk = _Check("closure_fixes_d_faces")
    checks.append(chk)
    for name, c in corpus.items():
        for d in _pure_dims(c):
            chk.tick()
            skel = pure_skeleton(c, d)
            if d_closure(skel, d).faces(d) != skel.faces(d):
                chk.fail(complex=name, d=d)

    chk = _Check("stanley_reisner_round_trip")
    checks.append(chk)
    for name, c in corpus.items():
        chk.tick()
        if complex_of_ideal(stanley_reisner_generators(c)) != c:
            chk.fail(complex=name)

    chk = _Check("complement_involution")
    checks.append(chk)
    for name, c in corpus.items():
        for d in _pure_dims(c):
            chk.tick()
            skel = pure_skeleton(c, d)
            if d_complement(d_complement(skel, d), d).facets != skel.facets:
                chk.fail(complex=name, d=d)

    chk = _Check("complement_ideal_matches_closure_ideal")
    checks.append(chk)
    for name, c in list(small_corpus.items())[:8] + [(f"random_{i}", r) for i, r in enumerate(randoms[:30])]:
        for d in _pure_dims(c):
            chk.tick()
            skel = pure_skeleton(c, d)
            left = facet_ideal_generators(d_complement(skel, d))
            sr = stanley_reisner_generators(d_closure(skel, d))
            right_gens = frozenset(g for g in sr.generators if len(g) == d + 1)
            if left.generators != right_gens:
                chk.fail(complex=name, d=d)

    # --- field_linalg ------------------------------------------------------
    fields = (GF2, GF3, RATIONAL)

    chk = _Check("rank_plus_nullity_is_cols")
    checks.append(chk)
    for name, c in small_corpus.items():
        for d in range(0, c.dim + 2):
            for f in fields:
                chk.tick()
                m = boundary_matrix(c, d, f)
                if rank(m, f) + len(kernel_basis(m, f)) != m.ncols:
                    chk.fail(complex=name, d=d, field=str(f))

    chk = _Check("kernel_vectors_annihilate")
    checks.append(chk)
    for name, c in small_corpus.items():
        for d in range(0, c.dim + 2):
            for f in fields:
                m = boundary_matrix(c, d, f)
                for v in kernel_basis(m, f):
                    chk.tick()
                    if not apply_matrix(m, v, f).is_zero:
                        chk.fail(complex=name, d=d, field=str(f))

    chk = _Check("gf2_nullity_at_least_rational")
    checks.append(chk)
    for _ in range(50):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        entries = [
            (r, co, 1) for r in range(nr) for co in range(nc) if rng.random() < 0.4
        ]
        chk.tick()
        m = SparseMatrix(nr, nc, entries)
        nullity_gf2 = len(kernel_basis(m, GF2))
        if nullity_gf2 < m.ncols - rank(m, RATIONAL):
            chk.fail(rows=nr, cols=nc, entries=len(entries))

    chk = _Check("kernel_order_deterministic")
    checks.append(chk)
    for name in ("hollow_tetrahedron", "projective_plane", "glued_tetrahedra"):
        c1 = named_corpus()[name]
        c2 = Complex(c1.vertex_count, sorted(c1.facets, reverse=True), c1.labels)
        for d in range(1, c1.dim + 1):
            chk.tick()
            m1 = boundary_matrix(c1, d, GF2)
            m2 = boundary_matrix(c2, d, GF2)
            k1 = list(enumerate_kernel_vectors(m1, cap))
            k2 = list(enumerate_kernel_vectors(m2, cap))
            if k1 != k2 or kernel_basis(m1, GF2) != kernel_basis(m2, GF2):
                chk.fail(complex=name, d=d)

    # --- homology ----------------------------------------------------------
    chk = _Check("boundary_composition_zero")
    checks.append(chk)
    for name, c in small_corpus.items():
        for d in range(1, c.dim + 2):
            for f in fields:
                chk.tick()
                outer = boundary_matrix(c, d, f)
                inner = boundary_matrix(c, d + 1, f)
                for vec in _columns_as_vectors(inner, f):
                    if not apply_matrix(outer, vec, f).is_zero:
                        chk.fail(complex=name, d=d, field=str(f))
                        break

    chk = _Check("odd_primes_agree_with_rationals")
    checks.append(chk)
    gf2_differs = False
    prime_targets = list(small_corpus.items())
    prime_targets += [(f"random_{i}", r) for i, r in enumerate(randoms[:20])]
    for name, c in prime_targets:
        for i in range(0, c.dim + 1):
            chk.tick()
            b3 = reduced_betti(c, i, GF3)
            b5 = reduced_betti(c, i, GF5)
            bq = reduced_betti(c, i, RATIONAL)
            if not (b3 == b5 == bq):
                chk.fail(complex=name, i=i, gf3=b3, gf5=b5, q=bq)
            if reduced_betti(c, i, GF2) != bq:
                gf2_differs = True
    if not gf2_differs:
        chk.fail(note="no corpus member distinguishes characteristic 2")

    chk = _Check("euler_characteristic_identity")
    checks.append(chk)
    for name, c in corpus.items():
        chk.tick()
        fvec = c.f_vector()
        alt_f = sum((-1) ** i * fi for i, fi in enumerate(fvec)) - 1
        alt_b = sum((-1) ** i * reduced_betti(c, i, RATIONAL) for i in range(c.dim + 1))
        if alt_f != alt_b:
            chk.fail(complex=name, f_side=alt_f, betti_side=alt_b)

    # --- cycles ------------------------------------------------------------
    chk = _Check("enumerated_cycles_are_cycles")
    checks.append(chk)
    for name, c in list(small_corpus.items()) + [(f"random_{i}", r) for i, r in enumerate(randoms[:60])]:
        for d in _pure_dims(c):
            try:
                records = enumerate_cycles_within(c, d, range(c.vertex_count), min(cap, 1 << 12))
            except CapExceeded:
                chk.inconclusive += 1
                continue
            for rec in records[:40]:
                chk.tick()
                probe = Complex(c.vertex_count, rec.faces)
                if not is_d_dimensional_cycle(probe, d):
                    chk.fail(complex=name, d=d, faces=_facet_lists(probe))

    chk = _Check("cycles_detect_gf2_homology")
    checks.append(chk)
    targets = list(small_corpus.items())
    targets += [(f"{k}_closure", d_closure(pure_skeleton(v, v.dim), v.dim))
                for k, v in small_corpus.items() if v.is_pure() and v.facets]
    for name, c in targets:
        for d in range(1, c.dim + 1):
            chk.tick()
            betti = reduced_betti(c, d, GF2)
            witness = _nonboundary_cycle(c, d, cap)
            if betti and witness is None:
                chk.fail(complex=name, d=d, betti=betti, note="no non-boundary cycle found")
            if not betti and witness is not None:
                chk.fail(complex=name, d=d, note="non-boundary cycle despite zero homology")

    chk = _Check("orientation_witness_exact")
    checks.append(chk)
    for name, c in list(small_corpus.items()) + [(f"random_{i}", r) for i, r in enumerate(randoms[:40])]:
        for d in _pure_dims(c):
            try:
                records = enumerate_cycles_within(c, d, range(c.vertex_count), min(cap, 1 << 14))
            except CapExceeded:
                chk.inconclusive += 1
                continue
            for rec in records[:20]:
                signs = is_orientable(rec)
                if signs is None:
                    continue
                chk.tick()
                m = boundary_matrix(Complex(c.vertex_count, rec.faces), d, RATIONAL)
                vec = ChainVector({f: Fraction(s) for f, s in signs.items()})
                if not apply_matrix(m, vec, RATIONAL).is_zero:
                    chk.fail(complex=name, d=d)

    chk = _Check("face_minimal_equals_minimal_supports")
    checks.append(chk)
    for i, c in enumerate(randoms[:50]):
        d = 2
        faces = face_columns(c.faces(d))
        if c.vertex_count > 6 or not faces or len(faces) > 10:
            continue
        chk.tick()
        minimal = {faces_of(s, faces) for s in minimal_kernel_supports([f.mask for f in faces], cap)}
        brute = _brute_force_face_minimal(c, d)
        if minimal != brute:
            chk.fail(random_index=i, complex=_complex_json(c))

    chk = _Check("orientable_nonboundary_forces_all_fields")
    checks.append(chk)
    for name, c in targets:
        for d in range(1, c.dim + 1):
            try:
                records = enumerate_cycles_within(c, d, range(c.vertex_count), min(cap, 1 << 12))
            except CapExceeded:
                chk.inconclusive += 1
                continue
            for rec in records[:12]:
                signs = is_orientable(rec)
                if signs is None:
                    continue
                for f in PROBE_FIELDS:
                    up = boundary_matrix(c, d + 1, f)
                    vec = ChainVector({face: f.normalize(s) for face, s in signs.items()})
                    if in_image(up, vec, f) is None:
                        chk.tick()
                        if reduced_betti(c, d, f) == 0:
                            chk.fail(complex=name, d=d, field=str(f))

    # --- chordality --------------------------------------------------------
    chk = _Check("boundary_test_matches_exhaustive_search")
    checks.append(chk)
    produced = 0
    attempts = 0
    while produced < oracle_instances and attempts < oracle_instances * 40:
        attempts += 1
        c = _oracle_instance(rng)
        d = 2
        face_list = tuple(face_columns(c.faces(d)))
        supports = minimal_kernel_supports([f.mask for f in face_list], cap)
        if not supports:
            continue
        produced += 1
        for s in supports:
            rec = CycleRecord.from_mask(d, face_list, s, face_minimal=True)
            if rec.is_complete():
                continue
            chk.tick()
            via_boundary = boundary_chord_test(rec, c)
            try:
                via_search = exhaustive_chord_set_search(rec, c, cap)
            except CapExceeded:
                chk.inconclusive += 1
                continue
            if (via_boundary is None) != (via_search is None):
                chk.fail(complex=_complex_json(c),
                         cycle=sorted(_facet_lists(Complex(6, rec.faces))),
                         boundary=via_boundary is not None,
                         exhaustive=via_search is not None)

    chk = _Check("nesting_chain")
    checks.append(chk)
    nesting_targets = [(k, v) for k, v in small_corpus.items() if v.is_pure() and v.facets]
    nesting_targets += [(f"random_{i}", r) for i, r in enumerate(randoms)]
    for name, c in nesting_targets:
        d = c.dim
        if d < 1:
            continue
        chk.tick()
        try:
            tree = is_d_tree(c, d)
            chorded = is_d_chorded(c, d, cap).chorded
            complete = is_d_cycle_complete(c, d, False, cap)
            ocomplete = is_d_cycle_complete(c, d, True, cap)
        except CapExceeded:
            chk.inconclusive += 1
            continue
        chain = (tree, chorded, complete, ocomplete)
        if any(a and not b for a, b in zip(chain, chain[1:])):
            chk.fail(complex=name, chain=list(chain))

    chk = _Check("nesting_chain_strict")
    checks.append(chk)
    chk.tick()
    lam = hollow_tetrahedron()
    if not (is_d_chorded(lam, 2, cap).chorded and not is_d_tree(lam, 2)):
        chk.fail(witness="hollow_tetrahedron", expected="chorded but not tree")
    chk.tick()
    rp2 = projective_plane()
    if not (is_d_cycle_complete(rp2, 2, True, cap) and not is_d_cycle_complete(rp2, 2, False, cap)):
        chk.fail(witness="projective_plane", expected="orientably complete but not complete")

    chk = _Check("chorded_hereditary_under_induced")
    checks.append(chk)
    for name, c in small_corpus.items():
        if not (c.is_pure() and c.facets):
            continue
        d = c.dim
        if d < 1 or not is_d_chorded(c, d, cap).chorded:
            continue
        for size in range(1, c.vertex_count):
            for w in itertools.combinations(range(c.vertex_count), size):
                chk.tick()
                sub = pure_skeleton(induced_subcomplex(c, w), d)
                if not is_d_chorded(sub, d, cap).chorded:
                    chk.fail(complex=name, w=[c.labels[v] for v in w])
                    break

    chk = _Check("chorded_closure_homology_vanishes")
    checks.append(chk)
    for name, c in small_corpus.items():
        if not (c.is_pure() and c.facets):
            continue
        d = c.dim
        if d < 1 or not is_d_chorded(c, d, cap).chorded:
            continue
        closed = d_closure(c, d)
        degrees = [i for i in range(0, d - 1)] + [d]
        for size in range(1, c.vertex_count + 1):
            for w in itertools.combinations(range(c.vertex_count), size):
                sub = induced_subcomplex(closed, w)
                for i in degrees:
                    chk.tick()
                    if reduced_betti(sub, i, GF2) != 0:
                        chk.fail(complex=name, w=[c.labels[v] for v in w], degree=i)
                        break

    chk = _Check("emitted_chord_sets_verify")
    checks.append(chk)
    for name, c in [(k, v) for k, v in small_corpus.items() if v.is_pure() and v.facets][:10]:
        d = c.dim
        if d < 1:
            continue
        result = is_d_chorded(c, d, cap)
        for record, cert in result.certificates:
            if cert is None:
                continue
            chk.tick()
            if not verify_chord_set(cert.chords, record, c, cert.witnesses):
                chk.fail(complex=name, cycle=sorted(_facet_lists(Complex(c.vertex_count, record.faces))))

    # --- resolutions -------------------------------------------------------
    chk = _Check("linear_resolution_forces_chordedness")
    checks.append(chk)
    for name, c in [(k, v) for k, v in small_corpus.items() if v.is_pure() and v.facets]:
        d = c.dim
        if d < 1 or c.vertex_count > 8:
            continue
        ideal = stanley_reisner_generators(d_closure(c, d))
        if ideal.is_zero:
            continue
        chk.tick()
        try:
            if has_t_linear_resolution(ideal, d + 1, GF2, cap).linear and not is_d_chorded(c, d, cap).chorded:
                chk.fail(complex=name, clause="characteristic-2 linearity without d-chorded")
            if any(has_t_linear_resolution(ideal, d + 1, f, cap).linear for f in PROBE_FIELDS):
                if not is_d_cycle_complete(c, d, True, cap):
                    chk.fail(complex=name, clause="linearity without orientable cycle completeness")
        except CapExceeded:
            chk.inconclusive += 1

    chk = _Check("trees_have_char2_linear_resolutions")
    checks.append(chk)
    for i, t in enumerate(trees):
        chk.tick()
        if not is_d_tree(t, 2):
            chk.fail(tree_index=i, note="generator produced a non-tree")
            continue
        ideal = stanley_reisner_generators(d_closure(t, 2))
        try:
            if not has_t_linear_resolution(ideal, 3, GF2, cap).linear:
                chk.fail(tree_index=i, complex=_complex_json(t))
        except CapExceeded:
            chk.inconclusive += 1

    chk = _Check("skeleton_identity_through_ideal_components")
    checks.append(chk)
    from .resolutions import degree_component

    for name, c in corpus.items():
        for d in range(1, c.dim + 2):
            chk.tick()
            left = pure_skeleton(c, d - 1)
            component = degree_component(stanley_reisner_generators(c), d)
            right = pure_skeleton(complex_of_ideal(component), d - 1)
            if left != right:
                chk.fail(complex=name, d=d,
                         left=_complex_json(left), right=_complex_json(right))

    chk = _Check("componentwise_linear_implies_chorded")
    checks.append(chk)
    cw_targets = [(k, v) for k, v in small_corpus.items() if v.vertex_count <= 6][:8]
    for name, c in cw_targets:
        ideal = stanley_reisner_generators(c)
        if ideal.is_zero:
            continue
        chk.tick()
        try:
            if all(is_componentwise_linear(ideal, f, cap).componentwise_linear for f in PROBE_FIELDS):
                if not is_chorded(complex_of_ideal(ideal), cap):
                    chk.fail(complex=name)
        except CapExceeded:
            chk.inconclusive += 1

    chk = _Check("cycle_decomposition_partitions")
    checks.append(chk)
    for name, c in list(small_corpus.items()) + [(f"random_{i}", r) for i, r in enumerate(randoms[:30])]:
        for d in _pure_dims(c):
            try:
                records = enumerate_cycles_within(c, d, range(c.vertex_count), min(cap, 1 << 12))
            except CapExceeded:
                chk.inconclusive += 1
                continue
            for rec in records[:8]:
                chk.tick()
                part = decompose_cycle(rec, cap)
                if part.covered() != rec.faces:
                    chk.fail(complex=name, d=d, note="partition does not cover the cycle")
                    continue
                for block in part.blocks:
                    sub = CycleRecord(d, block)
                    probe = Complex(c.vertex_count, block)
                    flagged = classify_minimality(sub, probe, cap)
                    if not (is_d_dimensional_cycle(probe, d) and flagged.face_minimal):
                        chk.fail(complex=name, d=d, note="non-face-minimal block")
                        break

    results = [chk.as_json() for chk in checks]
    return {
        "seed": seed,
        "cap": cap,
        "field_probes": [str(f) for f in PROBE_FIELDS],
        "corpus_members": sorted(corpus),
        "random_instances": random_instances,
        "properties": results,
        "all_passed": all(r["passed"] for r in results),
    }


def _oracle_instance(rng: random.Random) -> Complex:
    """A pure 2-complex on 6 labelled vertices with at most 8 facets.

    Half the draws embed a random bipyramid (a face-minimal non-complete
    cycle) plus a couple of extra faces so both chord-search routes get
    exercised; the rest are uniform facet samples.
    """
    triples = list(itertools.combinations(range(6), 3))
    if rng.random() < 0.5:
        verts = rng.sample(range(6), 5)
        equator = verts[:3]
        apex_a, apex_b = verts[3], verts[4]
        faces = {
            frozenset((equator[i], equator[(i + 1) % 3], apex))
            for i in range(3)
            for apex in (apex_a, apex_b)
        }
        budget = 8 - len(faces)
        extras = [t for t in triples if frozenset(t) not in faces]
        for t in rng.sample(extras, rng.randint(0, budget)):
            faces.add(frozenset(t))
        return Complex(6, [Face.of(f) for f in faces])
    k = rng.randint(4, 8)
    return Complex(6, [Face.of(t) for t in rng.sample(triples, k)])


def _columns_as_vectors(m: SparseMatrix, f) -> list[ChainVector]:
    out = []
    for j in range(m.ncols):
        out.append(ChainVector({m.row_labels[r]: v for r, v in m.columns[j]}))
    return out


def _nonboundary_cycle(c: Complex, d: int, cap: int) -> CycleRecord | None:
    """Find one d-dimensional cycle whose GF(2) face sum is not a boundary.

    Scans kernel basis vectors of the boundary map; for a non-boundary
    vector at least one of its d-path-connected components must itself be a
    non-boundary cycle.
    """
    m = boundary_matrix(c, d, GF2)
    up = boundary_matrix(c, d + 1, GF2)
    for vec in kernel_basis(m, GF2):
        if in_image(up, vec, GF2) is not None:
            continue
        for block in d_path_components(Complex(c.vertex_count, vec.support), d).blocks:
            if in_image(up, ChainVector({f: 1 for f in block}), GF2) is None:
                return CycleRecord(d, block)
        raise AssertionError("non-boundary kernel vector with only boundary components")
    return None


def _brute_force_face_minimal(c: Complex, d: int) -> set[frozenset[Face]]:
    """Independent oracle: scan all face subsets for minimal cycles."""
    faces = face_columns(c.faces(d))
    cycles: list[frozenset[Face]] = []
    for size in range(1, len(faces) + 1):
        for combo in itertools.combinations(faces, size):
            probe = Complex(c.vertex_count, combo)
            if is_d_dimensional_cycle(probe, d):
                cycles.append(frozenset(combo))
    return {
        cy for cy in cycles
        if not any(other < cy for other in cycles)
    }
