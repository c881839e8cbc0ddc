"""``is_d_chorded`` against the per-circuit, Face-level loop it replaced.

``circuit_loop_is_d_chorded`` is ``is_d_chorded`` as it stood before the
array pass and the mask-native window solver: for each circuit of the
sieve it takes the column tuple and the vertex window in Python, counts
the circuit as complete when it has C(window size, d+1) faces, and
otherwise runs ``window_boundary_preimage`` on it; then it sorts by
(size, column tuple), builds the records with ``faces_of`` and the chord
sets with ``face_boundary_chord_test``.  Those, with ``window_solver``
(``faces_within`` and ``_closure_level`` per window, ``Face`` tops),
``complete_cycle_on`` and ``face_verify_chord_set``, are the Face-level
solver and checker kept here as an oracle: they share no solver or
checker code with ``chordality``.  The array pass must return an equal
``DChordedResult`` (verdict, both counts, every certificate's cycle,
chords, witnesses and source, in the same order), or the same refusal, at
certificate limits None, 0, 3 and 128, on seeded random pure complexes at
d = 1, 2, 3 (some with more than 64 faces and more than 64 vertices), on a
long chorded cycle graph, on large sparse complexes with a few circuits
and on every corpus file at every dimension.  The derived window solvers
must equal the per-window ones, and both chord-set checks must reject a
break of each chord-set condition.
"""

import itertools
import math
import random
from functools import lru_cache
from pathlib import Path

import pytest

from chorded import CapExceeded, Complex, Face, InputError, build_complex, chordality, is_d_chorded, pure_skeleton
from chorded.chordality import ChordSetRecord, DChordedResult
from chorded.cli import parse_facet_file
from chorded.corpus import cycle_graph
from chorded.complex_core import _bits, _closure_level, _require_pure
from chorded.cycles import (
    CycleRecord,
    _is_cycle,
    face_columns,
    faces_of,
    faces_within,
    minimal_kernel_supports,
    nullity,
)
from chorded.field_linalg import DEFAULT_KERNEL_CAP

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.facets"))
LIMITS = (None, 0, 3, 128)


def face_verify_chord_set(chords, cycle: CycleRecord, ambient: Complex, witnesses) -> bool:
    """The chord-set conditions checked face by face."""
    chords = frozenset(chords)
    witnesses = tuple(witnesses)
    d = cycle.dim
    vmask = cycle.vertex_mask
    ambient_d = ambient.faces(d)
    if len(witnesses) < 2:
        return False
    for chord in chords:
        if chord in cycle.faces or chord not in ambient_d or chord.mask & ~vmask:
            return False
    union: set[Face] = set()
    target = cycle.faces | chords
    nverts = len(cycle.vertices)
    for w in witnesses:
        if w.dim != d or not w.faces <= target:
            return False
        if len(w.vertices) >= nverts:
            return False
        if not _is_cycle([f.mask for f in w.faces], d):
            return False
        union |= w.faces
    if union != target:
        return False
    for chord in chords:
        if sum(chord in w.faces for w in witnesses) % 2 != 0:
            return False
    for face in cycle.faces:
        if sum(face in w.faces for w in witnesses) % 2 != 1:
            return False
    return True


@lru_cache(maxsize=4096)
def window_solver(ambient: Complex, d: int, wmask: int):
    """One vertex window's GF(2) boundary solver, built on the window alone.

    Returns the closure's (d+1)-faces, the local column of each window
    d-face (keyed by face mask), and a map from pivot bit to
    ``(row_mask, tracking_mask)`` over the local columns and tops.
    """
    column = {f.mask: i for i, f in enumerate(faces_within(ambient, d, wmask))}
    tops = tuple(face_columns(Face(m) for m in _closure_level(column.keys(), ambient.vertex_count)))
    pivot_map: dict[int, tuple[int, int]] = {}
    for j, g in enumerate(tops):
        m = 0
        for v in g.vertices:
            m |= 1 << column[g.mask ^ (1 << v)]
        track = 1 << j
        while m:
            low = m & -m
            hit = pivot_map.get(low)
            if hit is None:
                pivot_map[low] = (m, track)
                break
            m ^= hit[0]
            track ^= hit[1]
    return tops, column, pivot_map


def window_boundary_preimage(ambient: Complex, d: int, wmask: int, face_masks):
    """``(tracking mask, tops)`` of the window tops whose boundaries sum to the faces, or None."""
    tops, column, pivot_map = window_solver(ambient, d, wmask)
    rhs = 0
    for m in face_masks:
        rhs |= 1 << column[m]
    acc = 0
    while rhs:
        low = rhs & -rhs
        hit = pivot_map.get(low)
        if hit is None:
            return None
        rhs ^= hit[0]
        acc ^= hit[1]
    return acc, tops


def complete_cycle_on(vertex_mask: int, d: int) -> CycleRecord:
    """The d-dimensional complete cycle on a (d+2)-vertex set."""
    verts = Face(vertex_mask).vertices
    return CycleRecord(d, frozenset(Face.of(combo) for combo in itertools.combinations(verts, d + 1)))


def face_boundary_chord_test(cycle: CycleRecord, ambient: Complex) -> ChordSetRecord | None:
    """The boundary certificate built face by face, verified face by face."""
    d = cycle.dim
    _require_pure(ambient, d, "boundary_chord_test")
    if cycle.is_complete():
        raise InputError("boundary_chord_test expects a non-d-complete cycle")
    if nullity([f.mask for f in cycle.faces]) != 1:
        raise InputError("boundary_chord_test expects a face-minimal cycle")
    solved = window_boundary_preimage(ambient, d, cycle.vertex_mask, [f.mask for f in cycle.faces])
    if solved is None:
        return None
    top_mask, tops = solved
    chosen = face_columns(faces_of(top_mask, tops))
    chord_faces: set[Face] = set()
    witnesses = []
    for g in chosen:
        witnesses.append(complete_cycle_on(g.mask, d))
        for v in g.vertices:
            sub = g.without(v)
            if sub not in cycle.faces:
                chord_faces.add(sub)
    record = ChordSetRecord(frozenset(chord_faces), tuple(witnesses), "boundary_certificate")
    if not face_verify_chord_set(record.chords, cycle, ambient, record.witnesses):
        raise AssertionError("boundary certificate failed chord-set verification")
    return record


def circuit_loop_is_d_chorded(c: Complex, d: int, cap: int = DEFAULT_KERNEL_CAP,
                              certificate_limit: int | None = 128) -> DChordedResult:
    """One Python pass per circuit: window, completeness, then the window solver."""
    _require_pure(c, d, "is_d_chorded")
    faces = face_columns(c.faces(d))
    masks = [f.mask for f in faces]
    complete_count = 0
    cycles = []  # (sort key, support, whether its face sum bounds)
    for support in minimal_kernel_supports(masks, cap):
        cols = tuple(_bits(support))
        vmask = 0
        for j in cols:
            vmask |= masks[j]
        if len(cols) == math.comb(vmask.bit_count(), d + 1):
            complete_count += 1
            continue
        bounds = window_boundary_preimage(c, d, vmask, [masks[j] for j in cols]) is not None
        cycles.append(((len(cols), cols), support, bounds))
    cycles.sort()
    failing = [entry for entry in cycles if not entry[2]]
    shown = [entry for entry in cycles if entry[2]][:certificate_limit] + failing
    certificates = []
    for _, support, bounds in sorted(shown):
        record = CycleRecord(d, faces_of(support, faces), face_minimal=True)
        certificates.append((record, face_boundary_chord_test(record, c) if bounds else None))
    return DChordedResult(d, not failing, tuple(certificates), complete_count, non_complete_cycles=len(cycles))


def summary(result: DChordedResult) -> tuple:
    """Every field of a result as plain masks, in certificate order."""
    def masks(faces):
        return sorted(f.mask for f in faces)

    return (
        result.d,
        result.chorded,
        result.complete_cycles,
        result.non_complete_cycles,
        [
            (masks(cycle.faces), cycle.face_minimal,
             None if chord_set is None else
             (masks(chord_set.chords), [masks(w.faces) for w in chord_set.witnesses], chord_set.source))
            for cycle, chord_set in result.certificates
        ],
    )


def outcome(fn, *args):
    """A result, or a refusal as (message, needed, cap)."""
    try:
        return fn(*args)
    except CapExceeded as exc:
        return str(exc), exc.needed, exc.cap


def mask_reads(result: DChordedResult) -> list:
    """What each certificate's cycle and witness records read off their masks, with every record's hash."""
    out = []
    for cycle, chord_set in result.certificates:
        records = [cycle] + ([] if chord_set is None else list(chord_set.witnesses))
        out.append(([(hash(r), r.sort_key(), r.vertex_mask, r.is_complete()) for r in records], hash(chord_set)))
    return out


def assert_same(c: Complex, d: int, limits=LIMITS, cap: int = DEFAULT_KERNEL_CAP) -> list:
    """Both routes at each limit; returns the summaries.

    The oracle builds its records from face sets and ``is_d_chorded`` from
    column masks, so equal records must also hash, sort and read their
    windows alike.
    """
    summaries = []
    for limit in limits:
        expected = outcome(circuit_loop_is_d_chorded, c, d, cap, limit)
        got = outcome(is_d_chorded, c, d, cap, limit)
        where = (limit, sorted(f.vertices for f in c.faces(d)))
        if isinstance(expected, DChordedResult) and isinstance(got, DChordedResult):
            assert mask_reads(got) == mask_reads(expected), where
            assert summary(got) == summary(expected), where
        assert got == expected, where  # the records themselves, flags included
        summaries.append(summary(expected) if isinstance(expected, DChordedResult) else expected)
    return summaries


def test_is_d_chorded_builds_face_sets_only_when_read():
    # the square abcd has the chord ac, the square defg has none
    c = build_complex(["ab", "bc", "cd", "ad", "ac", "de", "ef", "fg", "dg"])
    result = is_d_chorded(c, 1)
    assert [chord_set is None for _, chord_set in result.certificates] == [False, True]
    chord_set = result.certificates[0][1]
    lazy = [(cycle, "faces", cycle.support) for cycle, _ in result.certificates]
    lazy += [(chord_set, "chords", chord_set.chord_mask)] + [(w, "faces", w.support) for w in chord_set.witnesses]
    for cycle, _ in result.certificates:  # these read the masks
        hash(cycle), cycle.sort_key(), cycle.vertices, cycle.is_complete()
    hash(chord_set)
    assert not [name for record, name, _ in lazy if name in vars(record)]
    for record, name, mask in lazy:
        assert getattr(record, name) == faces_of(mask, record.columns)
        assert name in vars(record)


def glued_complex(rng: random.Random, d: int, nfaces: int) -> Complex:
    """About ``nfaces`` d-faces: a stacked d-tree with simplex boundaries, glued pairs and stray faces.

    The tree adds one face on a new vertex at a time, so it carries no
    cycle.  A (d+1)-simplex boundary is a complete cycle.  Two that share
    d+1 vertices sum to a non-complete cycle, which bounds in the closure
    when the shared face is kept and does not when it is left out.  A stray
    face among nearby vertices closes cycles that mostly do not bound.
    Vertex ids are shuffled so that windows and columns spread over the
    64-bit words.
    """
    faces = {(1 << (d + 1)) - 1}
    n = d + 1

    def grow(target):
        nonlocal n
        while len(faces) < target:
            f = rng.choice(sorted(faces))
            faces.add(f ^ (1 << rng.choice(list(_bits(f)))) | 1 << n)
            n += 1

    def near(k):
        lo = rng.randrange(max(1, n - 2 * d - 3))
        return sum(1 << v for v in rng.sample(range(lo, min(n, lo + 2 * d + 3)), k))

    grow(nfaces // 2)
    for _ in range(rng.randint(1, 3)):
        top = near(d + 2)
        boundary = {top ^ (1 << v) for v in _bits(top)}
        if rng.random() < 0.7:  # a second simplex on d+1 of these vertices and one more
            other = next(v for v in rng.sample(range(n), n) if not top >> v & 1)
            top ^= 1 << rng.choice(list(_bits(top))) | 1 << other
            second = {top ^ (1 << v) for v in _bits(top)}
            # with the shared face the sum bounds; without it, it does not
            boundary = boundary | second if rng.random() < 0.5 else boundary ^ second
        faces.update(boundary)
    for _ in range(rng.randint(0, 2)):
        faces.add(near(d + 1))
    grow(nfaces)
    relabel = list(range(n))
    rng.shuffle(relabel)
    return Complex(n, [Face.of(relabel[v] for v in _bits(m)) for m in faces])


def random_pure_complex(rng: random.Random, d: int, max_vertices: int) -> Complex:
    """Each d-face on up to ``max_vertices`` vertices kept with one seeded density."""
    n = rng.randint(d + 2, max_vertices)
    p = rng.choice((0.3, 0.5, 0.7, 0.85))
    faces = [Face.of(s) for s in itertools.combinations(range(n), d + 1) if rng.random() < p]
    return Complex(n, faces or [Face.of(range(d + 1))])


@pytest.mark.parametrize("d,max_vertices", [(1, 8), (2, 7), (3, 7)])
def test_array_pass_matches_circuit_loop_on_dense_complexes(d, max_vertices):
    rng = random.Random(8000 + d)
    verdicts = []
    for _ in range(40):
        c = random_pure_complex(rng, d, max_vertices)
        if nullity([f.mask for f in c.faces(d)]) > 12:
            continue  # keep the reference loop quick
        verdicts += [o[1] for o in assert_same(c, d)]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("nfaces", [20, 63, 64, 65, 129])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_pass_matches_circuit_loop_on_glued_complexes(d, nfaces):
    rng = random.Random(1000 * d + nfaces)
    kinds = set()
    for _ in range(6):
        c = glued_complex(rng, d, nfaces)
        assert len(c.faces(d)) >= nfaces
        if nullity([f.mask for f in c.faces(d)]) > 13:
            continue  # keep the reference loop quick
        for o in assert_same(c, d):
            kinds.add(o[1])
            kinds.update("pass" if cs else "fail" for *_, cs in o[4])
    assert {"pass", "fail"} <= kinds


def test_array_pass_matches_circuit_loop_past_64_vertices():
    ring = cycle_graph(70)
    # a long cycle with chords: some circuits bound (the triangulated
    # square on v65..v68), the long ones do not
    edges = [["v0", "v35"], ["v10", "v60"], ["v65", "v67"], ["v66", "v68"], ["v65", "v68"]]
    c = Complex(ring.vertex_count, list(ring.facets) + [Face.of(ring.labels.index(v) for v in e) for e in edges])
    assert c.vertex_count > 64 and len(c.faces(1)) > 64
    outcomes = assert_same(c, 1)
    assert outcomes[0][1] is False
    assert {cs is None for *_, cs in outcomes[0][4]} == {True, False}


def stacked_sphere_with_gadgets(rng: random.Random, nverts: int) -> Complex:
    """A stacked 2-sphere on ``nverts`` vertices with two small gadgets beside it.

    Each stacking step replaces a triangle by the three triangles on a new
    vertex, so the sphere is one non-complete circuit whose closure window
    has no tetrahedra: it does not bound.  The gadgets are two tetrahedron
    boundaries sharing a triangle (two complete circuits and a bipyramid
    that bounds) and a bipyramid alone (one that does not).  Vertex ids
    are shuffled, so the few circuits spread over many words of columns
    and vertices.
    """
    faces = [0b1110, 0b1101, 0b1011, 0b0111]
    for v in range(4, nverts):
        top = faces.pop(rng.randrange(len(faces)))
        faces += [top ^ (1 << u) | 1 << v for u in _bits(top)]
    a, b, c, x, y = range(nverts, nverts + 5)
    faces += [1 << a | 1 << b | 1 << c] + [1 << p | 1 << q | 1 << t for p, q in ((a, b), (b, c), (a, c)) for t in (x, y)]
    a, b, c, x, y = range(nverts + 5, nverts + 10)
    faces += [1 << p | 1 << q | 1 << t for p, q in ((a, b), (b, c), (a, c)) for t in (x, y)]
    relabel = list(range(nverts + 10))
    rng.shuffle(relabel)
    return Complex(nverts + 10, [Face.of(relabel[v] for v in _bits(m)) for m in faces])


def test_array_pass_matches_circuit_loop_on_large_sparse_complexes():
    rng = random.Random(4242)
    sphere = stacked_sphere_with_gadgets(rng, 300)
    assert len(sphere.faces(2)) > 600
    outcomes = assert_same(sphere, 2)
    # the sphere and the lone bipyramid fail, the glued bipyramid passes
    assert outcomes[0][1:4] == (False, 2, 3)
    assert sorted(cs is None for *_, cs in outcomes[0][4]) == [False, True, True]


def test_array_pass_matches_circuit_loop_on_corpus(monkeypatch):
    sieve = {}

    def memo_sieve(masks, cap):  # both routes share the unchanged sieve; run it once per input
        key = (tuple(masks), cap)
        if key not in sieve:
            sieve[key] = minimal_kernel_supports(masks, cap)
        return sieve[key]

    monkeypatch.setattr(chordality, "minimal_kernel_supports", memo_sieve)
    for path in CORPUS:
        c = parse_facet_file(path.read_text(encoding="utf-8"))
        for d in range(c.dim + 1):
            # 55,695 re-verified certificates at limit None take about a minute
            limits = (128,) if (path.stem, d) == ("seven_vertex_counterexample", 2) else LIMITS
            assert_same(pure_skeleton(c, d), d, limits)


def test_cap_refusal_point_matches_circuit_loop(counterexample7):
    c = pure_skeleton(counterexample7, 1)
    k = nullity([f.mask for f in c.faces(1)])
    for cap in ((1 << k) - 1, 1 << k):
        assert_same(c, 1, (3,), cap)
    with pytest.raises(CapExceeded) as err:
        is_d_chorded(c, 1, (1 << k) - 1)
    assert (err.value.needed, err.value.cap) == (1 << k, (1 << k) - 1)


def test_derived_window_solvers_match_per_window_solvers():
    """Every vertex window of every corpus skeleton: same columns, tops, pivots and preimages."""
    windows = 0
    for path in CORPUS:
        c = parse_facet_file(path.read_text(encoding="utf-8"))
        assert c.vertex_count <= 10
        for d in range(c.dim + 1):
            sk = pure_skeleton(c, d)
            solver = chordality._window_solver(sk, d)
            for wmask in range(1 << sk.vertex_count):
                tops_o, column_o, pivots_o = window_solver(sk, d, wmask)
                column, tops, pivots = chordality._window_basis(solver, wmask)
                assert list(column) == list(column_o)
                assert tops == tuple(g.mask for g in tops_o)
                glob = list(column.values())

                def to_global(m):
                    return sum(1 << glob[j] for j in _bits(m))

                assert pivots == {to_global(low): (to_global(row), track) for low, (row, track) in pivots_o.items()}
                windows += 1
            masks = solver[0]
            pivots = {w: chordality._window_basis(solver, w)[2] for w in range(1 << sk.vertex_count)}
            for support in minimal_kernel_supports(masks, DEFAULT_KERNEL_CAP):
                vmask = chordality._vertex_mask(_bits(support), masks)
                expected = window_boundary_preimage(sk, d, vmask, [masks[j] for j in _bits(support)])
                got = chordality._preimage(pivots[vmask], support)
                assert got == (None if expected is None else expected[0])
    assert windows > 1000


def edges(*pairs) -> frozenset:
    return frozenset(Face.of(p) for p in pairs)


def chord_set_cases() -> dict:
    """A valid chord set of a hexagon, then one break of each chord-set condition.

    Each entry is (chords, cycle, ambient, witnesses).  Where a condition
    can be broken alone, every other condition still holds.
    """
    hexagon = CycleRecord(1, edges((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    chords = edges((0, 2), (2, 4), (0, 4))
    triangles = [CycleRecord(1, edges(*t)) for t in (((0, 1), (1, 2), (0, 2)), ((2, 3), (3, 4), (2, 4)),
                                                     ((4, 5), (0, 5), (0, 4)), ((0, 2), (2, 4), (0, 4)))]
    ambient = Complex(6, hexagon.faces | chords)
    x = 6  # a vertex outside the hexagon
    return {
        "valid": (chords, hexagon, ambient, triangles),
        "chord_not_an_ambient_face": (chords, hexagon, Complex(6, hexagon.faces | edges((0, 2), (2, 4))), triangles),
        "chord_in_the_cycle": (chords | edges((0, 1)), hexagon, ambient, triangles),
        "chord_outside_the_window": (
            edges((0, x), (3, x)), hexagon, Complex(7, hexagon.faces | edges((0, x), (3, x))),
            [CycleRecord(1, edges((0, 1), (1, 2), (2, 3), (3, x), (0, x))),
             CycleRecord(1, edges((3, 4), (4, 5), (0, 5), (3, x), (0, x)))]),
        "one_witness": (frozenset(), hexagon, ambient, [hexagon]),
        "witness_on_as_many_vertices": (chords, hexagon, ambient, [hexagon, triangles[3], triangles[3]]),
        "witness_not_a_cycle": (chords, hexagon, ambient, triangles + [CycleRecord(1, edges((0, 2)))] * 2),
        "witness_outside_faces_and_chords": (edges((0, 2), (2, 4)), hexagon, ambient, triangles),
        "union_short_of_faces_and_chords": (
            chords | edges((1, 3)), hexagon, Complex(6, hexagon.faces | chords | edges((1, 3))), triangles),
        "odd_chord_parity": (chords, hexagon, ambient, triangles[:3]),
        "even_face_parity": (chords, hexagon, ambient, triangles * 2),
    }


@pytest.mark.parametrize("case", sorted(chord_set_cases()))
def test_both_chord_set_checks_reject_each_broken_condition(case):
    chords, cycle, ambient, witnesses = chord_set_cases()[case]
    holds = case == "valid"
    # verify_chord_set is the mask-level check over the faces' columns
    assert chordality.verify_chord_set(chords, cycle, ambient, witnesses) is holds
    assert face_verify_chord_set(chords, cycle, ambient, witnesses) is holds


def test_mask_level_check_rejects_a_chord_in_the_cycle_by_itself():
    """With a cycle face among the chords, the witness sum still equals the cycle; only the chord clause fails."""
    chords, cycle, ambient, witnesses = chord_set_cases()["chord_in_the_cycle"]
    columns = face_columns(ambient.faces(1))
    col = {f: j for j, f in enumerate(columns)}

    def mask(faces):
        return sum(1 << col[f] for f in faces)

    masks = [f.mask for f in columns]
    everything = (1 << len(masks)) - 1
    ws = [mask(w.faces) for w in witnesses]
    assert chordality._chord_set_holds(masks, everything, mask(cycle.faces), mask(chords - cycle.faces), ws, 1)
    assert not chordality._chord_set_holds(masks, everything, mask(cycle.faces), mask(chords), ws, 1)
