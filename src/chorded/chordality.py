"""Chord sets, the d-chorded decision, cycle-completeness and d-trees.

A chord set of a d-dimensional cycle breaks it into at least two strictly
smaller cycles with even covering parity on the chords and odd parity on the
cycle's own faces.  The primary d-chorded decision avoids the doubly
exponential direct search by testing, per face-minimal non-complete cycle,
whether the GF(2) sum of its faces is a (d+1)-boundary inside the d-closure
of the ambient complex restricted to the cycle's vertex set.  A successful
membership test converts its preimage into an explicit chord set
(complete-cycle witnesses, one per preimage face), re-verified against the
definition, so a fully passing complex really is d-chorded; conversely, in a
d-chorded complex every cycle's face sum bounds in the closure, so the
complex-level verdict is exact even though a single cycle can own a chord
set whose witnesses are not complete cycles.  The tiny exhaustive searcher
exists to cross-validate the two routes and is bounded by the caller's cap.

``is_d_chorded`` finds the face-minimal cycles by one rank pass over the
kernel coefficients (``cycles.minimal_kernel_supports``) and decides every
one of them in one numpy pass over the packed circuit words
(``packed.decide_circuits``): vertex windows, completeness, and membership
by sweeping the pivot columns of the per-window solver rows, so its numpy
work grows with the columns and vertices the circuits touch, not with the
circuits.  The solvers work on int masks only.  ``_window_solver`` caches,
per complex and d, the d-face masks in column order and the closure's
(d+1)-sets from one ``_closure_level``; ``_window_basis`` filters both for
a window (``m & ~wmask == 0``) into the solver triple (window columns,
window tops, pivot rows over the global columns), built once per window
within a call.  A passing cycle's chord set comes from its preimage: each
chosen top's boundary columns are a witness, and the witness columns
outside the cycle are the chords.  ``_chord_set_holds`` checks it over
column masks; it is the one chord-set check, and ``verify_chord_set`` and
``boundary_chord_test`` are thin wrappers over it.  Python runs once per
window and once per returned certificate.

Cap overruns always surface as ``CapExceeded`` (inconclusive), never as a
negative verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .complex_core import Complex, Face, _bits, _closure_level, _require_pure
from .cycles import (
    CycleRecord,
    FaceSets,
    _is_cycle,
    _orientation,
    _sign_classes,
    cycle_supports,
    face_columns,
    faces_of,
    faces_within,
    is_vertex_minimal,
    iter_cycle_supports,
    minimal_kernel_supports,
    minimal_windows_complete,
    nullity,
)
from .errors import CapExceeded, InputError
from .field_linalg import DEFAULT_KERNEL_CAP, gf2_reduce

__all__ = [
    "ChordSetRecord",
    "ChordalityReport",
    "DChordedResult",
    "verify_chord_set",
    "boundary_chord_test",
    "exhaustive_chord_set_search",
    "is_d_chorded",
    "is_d_cycle_complete",
    "is_d_tree",
    "is_chorded",
    "chordality_report",
]


@dataclass(frozen=True)
class ChordSetRecord:
    """A verified chord set: the chords, the witness cycles, and how it was found."""

    chords: frozenset[Face]
    witnesses: tuple[CycleRecord, ...]
    source: str  # "exhaustive" or "boundary_certificate"

    def sort_key(self) -> tuple:
        return tuple(sorted(f.vertices for f in self.chords))


@dataclass(frozen=True)
class DChordedResult:
    """Outcome of the d-chorded decision with per-cycle certificates.

    ``certificates`` pairs face-minimal non-complete cycles with their chord
    sets (or ``None`` for the cycles without one, which make the verdict
    false); when a certificate limit was in force it holds a prefix of the
    passing cycles in canonical order plus all failing ones.
    ``complete_cycles`` counts the face-minimal cycles that needed no chord
    set; ``non_complete_cycles`` counts all cycles the verdict covers.
    """

    d: int
    chorded: bool
    certificates: tuple[tuple[CycleRecord, ChordSetRecord | None], ...]
    complete_cycles: int
    non_complete_cycles: int = 0


@dataclass(frozen=True)
class ChordalityReport:
    """The four verdicts for one pure d-dimensional complex.

    The nesting chain (tree => chorded => cycle-complete =>
    orientably-cycle-complete) is asserted on construction.
    """

    d: int
    d_tree: bool
    d_chorded: bool
    d_cycle_complete: bool
    orientably_d_cycle_complete: bool
    chorded_detail: DChordedResult

    def __post_init__(self):
        chain = (self.d_tree, self.d_chorded, self.d_cycle_complete, self.orientably_d_cycle_complete)
        for earlier, later in zip(chain, chain[1:]):
            if earlier and not later:
                raise AssertionError(f"nesting chain violated: {chain}")


def verify_chord_set(
    chords,
    cycle: CycleRecord,
    ambient: Complex,
    witnesses,
) -> bool:
    """Check the chord-set conditions directly against the definition.

    True iff: the chords are d-faces of the ambient complex, not faces of
    the cycle, with vertices inside the cycle's vertex set; there are at
    least two witnesses, each a d-dimensional cycle on strictly fewer
    vertices than the input cycle; the witness faces cover exactly the
    cycle's faces plus the chords; every chord lies in an even number of
    witnesses and every cycle face in an odd number.  The faces become
    columns of their union in ``face_columns`` order, and
    ``_chord_set_holds`` decides.
    """
    chords = frozenset(chords)
    witnesses = tuple(witnesses)
    d = cycle.dim
    if any(w.dim != d for w in witnesses):
        return False
    columns = face_columns(cycle.faces.union(chords, *(w.faces for w in witnesses)))
    bit = {f: 1 << j for j, f in enumerate(columns)}

    def mask(faces) -> int:
        return sum(map(bit.__getitem__, faces))

    ambient_d = ambient.faces(d)
    return _chord_set_holds([f.mask for f in columns], mask(f for f in columns if f in ambient_d),
                            mask(cycle.faces), mask(chords), [mask(w.faces) for w in witnesses], d)


def _chord_set_holds(masks: list[int], ambient: int, cycle: int, chords: int, witnesses: list[int], d: int) -> bool:
    """The chord-set conditions over column masks: the one chord-set check.

    ``masks`` are the columns' vertex masks, ``ambient`` marks the columns
    that are d-faces of the ambient complex, and the cycle, the chords and
    each witness are column masks.  Once every witness lies inside the
    cycle plus the chords, a witness sum equal to the cycle puts each
    chord in an even number of witnesses and each cycle face in an odd one.
    """
    vmask = _vertex_mask(_bits(cycle), masks)
    if len(witnesses) < 2 or chords & (cycle | ~ambient) or _vertex_mask(_bits(chords), masks) & ~vmask:
        return False
    target = cycle | chords
    union = total = 0
    for w in witnesses:
        if w & ~target or _vertex_mask(_bits(w), masks).bit_count() >= vmask.bit_count():
            return False
        if not _is_cycle([masks[j] for j in _bits(w)], d):
            return False
        union |= w
        total ^= w
    return union == target and total == cycle


@lru_cache(maxsize=256)
def _window_solver(ambient: Complex, d: int) -> tuple[list[int], list[int]]:
    """The whole complex's share of every window solver, built once per (complex, d).

    Returns the d-face masks in ``face_columns`` order and the (d+1)-sets
    of the d-closure (those whose (d+1)-subsets are all d-faces) in the
    same vertex-tuple order.  ``_window_basis`` filters both for a window.
    """
    masks = [f.mask for f in face_columns(ambient.faces(d))]
    tops = sorted(_closure_level(masks, ambient.vertex_count), key=lambda m: tuple(_bits(m)))
    return masks, tops


def _top_row(top: int, column: dict[int, int]) -> int:
    """The boundary of a (d+1)-set as a mask over the global d-face columns."""
    row = 0
    for v in _bits(top):
        row |= 1 << column[top ^ (1 << v)]
    return row


def _window_basis(
    solver: tuple[list[int], list[int]], wmask: int
) -> tuple[dict[int, int], tuple[int, ...], dict[int, tuple[int, int]]]:
    """Reusable GF(2) boundary-membership solver for one vertex window.

    Filters a ``_window_solver`` entry to the window's d-faces and closure
    (d+1)-sets (``m & ~wmask == 0``), keeping their order.  Returns the
    global column of each window d-face (keyed by face mask), the window's
    (d+1)-sets, and a reduced row basis of the boundary image: a map from
    pivot bit to ``(row_mask, tracking_mask)``, where ``row_mask`` is a
    combination of boundary columns over the global d-face columns and
    ``tracking_mask`` records which of the window's (d+1)-sets were
    combined into it.  The column map preserves order, so the pivots and
    tracking masks are those of a solver built on the window alone.
    """
    masks, tops = solver
    column = {m: j for j, m in enumerate(masks) if not m & ~wmask}
    tops = tuple(t for t in tops if not t & ~wmask)
    pivots: dict[int, tuple[int, int]] = {}
    for j, top in enumerate(tops):
        m, track = gf2_reduce(pivots, _top_row(top, column), 1 << j)
        if m:
            pivots[m & -m] = (m, track)
    return column, tops, pivots


def _preimage(pivots: dict[int, tuple[int, int]], rhs: int) -> int | None:
    """The tracking mask of window (d+1)-sets whose boundaries sum to the columns ``rhs``, or None."""
    rest, chosen = gf2_reduce(pivots, rhs)
    return None if rest else chosen


def _vertex_mask(cols, masks: list[int]) -> int:
    """The vertex set of the faces at the given columns."""
    vmask = 0
    for j in cols:
        vmask |= masks[j]
    return vmask


def _chord_set(basis, support: int, masks: list[int], faces_at: FaceSets, d: int) -> ChordSetRecord | None:
    """The verified boundary certificate of a cycle (a column mask) from its window's basis, or None.

    Witness i is the boundary of the i-th chosen (d+1)-set, and the chords
    are the witness columns outside the cycle.
    """
    column, tops, pivots = basis
    chosen = _preimage(pivots, support)
    if chosen is None:
        return None
    witnesses = [_top_row(tops[j], column) for j in _bits(chosen)]
    chords = 0
    for w in witnesses:
        chords |= w
    chords &= ~support
    if not _chord_set_holds(masks, (1 << len(masks)) - 1, support, chords, witnesses, d):
        raise AssertionError("boundary certificate failed chord-set verification")
    witness_records = tuple(CycleRecord(d, faces_at(w)) for w in witnesses)
    return ChordSetRecord(faces_at(chords), witness_records, "boundary_certificate")


def boundary_chord_test(cycle: CycleRecord, ambient: Complex) -> ChordSetRecord | None:
    """Decide chord-set existence through GF(2) boundary membership.

    Requires a face-minimal, non-d-complete cycle inside a pure
    d-dimensional ambient complex.  Tests whether the sum of the cycle's
    faces is a (d+1)-boundary of the induced d-closure; on success the
    preimage faces yield the chord set and its complete-cycle witnesses,
    which are verified before being returned.  Returns ``None`` when the
    sum is not a boundary.  It takes no cap: the membership test is one
    polynomial elimination over the window, with no exponential work for a
    cap to refuse.
    """
    d = cycle.dim
    _require_pure(ambient, d, "boundary_chord_test")
    if cycle.is_complete():
        raise InputError("boundary_chord_test expects a non-d-complete cycle")
    if nullity([f.mask for f in cycle.faces]) != 1:
        raise InputError("boundary_chord_test expects a face-minimal cycle")
    solver = _window_solver(ambient, d)
    faces = face_columns(ambient.faces(d))
    column = {f: j for j, f in enumerate(faces)}
    support = sum(1 << column[f] for f in cycle.faces)
    return _chord_set(_window_basis(solver, cycle.vertex_mask), support, solver[0], FaceSets(faces), d)


def exhaustive_chord_set_search(
    cycle: CycleRecord,
    ambient: Complex,
    cap: int = DEFAULT_KERNEL_CAP,
) -> ChordSetRecord | None:
    """Directly search chord subsets and witness covers; tiny instances only.

    This is the oracle that validates ``boundary_chord_test``.  It scans
    candidate chord sets in ascending (size, lex) order; for each it
    enumerates every cycle supported on the cycle's faces plus the chords,
    keeps those on strictly fewer vertices, and looks for a sub-collection
    whose GF(2) face sum matches the cycle with all chords covered.
    Refuses with ``CapExceeded`` before any search when the 2^k subsets of
    the k candidate chords exceed ``cap``.
    """
    d = cycle.dim
    _require_pure(ambient, d, "exhaustive_chord_set_search")
    if cycle.is_complete():
        raise InputError("exhaustive_chord_set_search expects a non-d-complete cycle")
    wmask = cycle.vertex_mask
    candidates = [f for f in faces_within(ambient, d, wmask) if f not in cycle.faces]
    k = len(candidates)
    if 1 << k > cap:
        raise CapExceeded(f"exhaustive chord search over 2^{k} chord sets", 1 << k, cap)

    nverts = len(cycle.vertices)

    for size in range(1, len(candidates) + 1):
        for chord_combo in itertools.combinations(candidates, size):
            universe = face_columns(cycle.faces | set(chord_combo))
            target = chord_cover = 0
            for j, f in enumerate(universe):
                if f in cycle.faces:
                    target |= 1 << j
                else:
                    chord_cover |= 1 << j
            pool = {comp: CycleRecord(d, faces_of(comp, universe))
                    for comp in cycle_supports([f.mask for f in universe], cap)}
            usable = [comp for comp, rec in pool.items() if len(rec.vertices) < nverts]
            found = _cover_search(usable, target, chord_cover, cap)
            if found is not None and len(found) >= 2:
                witnesses = tuple(pool[comp] for comp in found)
                record = ChordSetRecord(frozenset(chord_combo), witnesses, "exhaustive")
                if verify_chord_set(record.chords, cycle, ambient, record.witnesses):
                    return record
    return None


def _cover_search(pool: list[int], target: int, must_cover: int, cap: int) -> list[int] | None:
    """Find a pool subset whose XOR equals target and whose union covers must_cover."""
    n = len(pool)
    if n == 0:
        return None
    if 1 << n > cap:
        raise CapExceeded(f"witness cover search over 2^{n} subsets", 1 << n, cap)
    suffix_or = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | pool[i]

    # depth first, taking pool[i] before leaving it out; an explicit stack,
    # so that no nested function refers to itself and leaves a reference cycle
    stack = [(0, (), 0, 0)]  # (next index, chosen, their XOR, their union)
    while stack:
        i, chosen, acc_xor, acc_or = stack.pop()
        if acc_xor == target and acc_or & must_cover == must_cover and len(chosen) >= 2:
            return list(chosen)
        # any bit with wrong parity or missing coverage must occur in the tail
        if i == n or ((target ^ acc_xor) | (must_cover & ~acc_or)) & ~suffix_or[i]:
            continue
        stack.append((i + 1, chosen, acc_xor, acc_or))
        stack.append((i + 1, chosen + (pool[i],), acc_xor ^ pool[i], acc_or | pool[i]))
    return None


def is_d_chorded(
    c: Complex,
    d: int,
    cap: int = DEFAULT_KERNEL_CAP,
    certificate_limit: int | None = 128,
) -> DChordedResult:
    """Whether every face-minimal non-d-complete cycle has a chord set.

    Face-minimal cycles are the inclusion-minimal nonzero GF(2) kernel
    supports of the d-th boundary map (``minimal_kernel_supports``).  All of
    them are decided together as packed arrays (``packed.decide_circuits``):
    a circuit is complete when it has C(window size, d+1) faces, and every
    other one is decided by the boundary-membership test of its vertex
    window.  Explicit verified chord-set records are materialized for the
    first ``certificate_limit`` passing cycles in canonical order (pass
    None for all of them) and always for every failing cycle, in
    ``CycleRecord.sort_key`` order.  The verdict itself covers every cycle
    regardless of the limit.
    """
    _require_pure(c, d, "is_d_chorded")
    faces = face_columns(c.faces(d))
    masks = [f.mask for f in faces]
    supports = minimal_kernel_supports(masks, cap)
    if not supports:
        return DChordedResult(d, True, (), 0)
    from . import packed  # numpy code, compiled on first use like numpy itself

    solver = _window_solver(c, d)
    bases: dict[int, tuple] = {}  # vertex window -> its _window_basis, within this call

    def basis(wmask: int) -> tuple:
        if wmask not in bases:
            bases[wmask] = _window_basis(solver, wmask)
        return bases[wmask]

    complete, non_complete, shown = packed.decide_circuits(
        supports, masks, c.vertex_count, d, basis, certificate_limit)
    certificates: list[tuple[CycleRecord, ChordSetRecord | None]] = []
    faces_at = FaceSets(faces)
    for support, passes in shown:
        record = CycleRecord(d, faces_at(support), face_minimal=True)
        chord_set = _chord_set(basis(record.vertex_mask), support, masks, faces_at, d) if passes else None
        certificates.append((record, chord_set))
    return DChordedResult(
        d,
        all(passes for _, passes in shown),
        tuple(certificates),
        complete,
        non_complete_cycles=non_complete,
    )


def is_d_cycle_complete(
    c: Complex, d: int, orientable_mode: bool = False, cap: int = DEFAULT_KERNEL_CAP
) -> bool:
    """Whether all (orientably-)vertex-minimal cycles are d-complete.

    The plain predicate sweeps vertex windows (``minimal_windows_complete``):
    it holds exactly when every inclusion-minimal window with a nonzero GF(2)
    d-cycle space has d+2 vertices, and ``cap`` bounds the windows swept.

    The orientable one walks the cycles in (size, mask) order and returns
    the event of the first cycle that has one: a refusal from its sign
    classes, a refusal from the orientable vertex-minimality test of its
    vertex window (which counts only for an orientable cycle), or False for
    an orientable, orientably vertex-minimal cycle that is not d-complete.
    The walk reads (support, window) pairs from ``iter_cycle_supports``,
    which finds the connected kernel vectors and their windows in numpy, a
    sorted chunk at a time; a cycle's size is its popcount, and its face
    masks are listed only for a sign test.  A cycle of more faces than
    log2(cap) runs its sign classes first, since only such a cycle's can
    refuse; the window test is memoised per window within the call; and
    the sign search runs only when its answer settles the event.  ``cap``
    bounds the 2^nullity kernel vectors before the walk, the 2^classes sign
    choices of every orientability search, and the kernels of the window
    tests.
    """
    _require_pure(c, d, "is_d_cycle_complete")
    masks = [f.mask for f in face_columns(c.faces(d))]
    if not orientable_mode:
        return minimal_windows_complete(masks, d, cap)
    windows: dict[int, bool | CapExceeded] = {}  # vertex window -> orientably vertex-minimal, or its refusal
    for support, vmask in iter_cycle_supports(masks, cap):
        size = support.bit_count()
        # the sign classes can refuse only when 2^faces > cap; otherwise they wait until the signs matter
        if 1 << size > cap and _sign_classes([masks[j] for j in _bits(support)], cap) is None:
            continue
        if vmask not in windows:
            try:
                windows[vmask] = is_vertex_minimal(c, d, vmask, True, cap)
            except CapExceeded as exc:
                windows[vmask] = exc
        minimal = windows[vmask]
        if minimal is False or (minimal is True and size == math.comb(vmask.bit_count(), d + 1)):
            continue  # no event, whatever the signs
        if _orientation([masks[j] for j in _bits(support)], cap) is None:
            continue
        if minimal is True:
            return False
        raise minimal
    return True


def is_d_tree(c: Complex, d: int) -> bool:
    """Pure d-dimensional with no d-dimensional cycles (zero GF(2) cycle space)."""
    _require_pure(c, d, "is_d_tree")
    return nullity([f.mask for f in c.faces(d)]) == 0


def is_chorded(c: Complex, cap: int = DEFAULT_KERNEL_CAP) -> bool:
    """Whether every pure skeleton in dimensions 1..dim is d-chorded.

    Dimension 0 is chorded by convention, making the predicate total.
    """
    from .complex_core import pure_skeleton

    for d in range(1, c.dim + 1):
        if not is_d_chorded(pure_skeleton(c, d), d, cap).chorded:
            return False
    return True


def chordality_report(c: Complex, d: int, cap: int = DEFAULT_KERNEL_CAP) -> ChordalityReport:
    """Run all four predicates and package them with certificates."""
    detail = is_d_chorded(c, d, cap)
    return ChordalityReport(
        d=d,
        d_tree=is_d_tree(c, d),
        d_chorded=detail.chorded,
        d_cycle_complete=is_d_cycle_complete(c, d, False, cap),
        orientably_d_cycle_complete=is_d_cycle_complete(c, d, True, cap),
        chorded_detail=detail,
    )
