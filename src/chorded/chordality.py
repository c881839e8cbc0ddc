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
kernel coefficients (``cycles.minimal_kernel_supports``) and decides them
all in one numpy pass over the packed circuit words
(``packed.decide_circuits``): vertex windows, completeness, and membership
by sweeping the pivot columns of the per-window solver rows.  The solvers
work on int masks: ``_window_solver`` caches, per complex and d, the d-face
masks in column order and the closure's (d+1)-sets, and ``_window_basis``
filters both for a window into the solver triple (window columns, window
tops, pivot rows over the global columns), once per window within a call.
A passing cycle's chord set comes from its preimage: each chosen top's
boundary columns are a witness, and the witness columns outside the cycle
are the chords.  ``_chord_set_holds`` is the one chord-set check, over
column masks; ``verify_chord_set`` and ``boundary_chord_test`` wrap it.
The certificates are mask records over the complex's d-face tuple, with
no ``Face`` set: their ``faces`` and ``chords`` are built on first read,
and the CLI's JSON reads its label lists off the masks.

Cap overruns always surface as ``CapExceeded`` (inconclusive), never as a
negative verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .complex_core import Complex, Face, _bits, _closure_level, _require_pure, _union
from .cycles import (
    CycleRecord,
    _is_cycle,
    _Record,
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


class ChordSetRecord(_Record):
    """A verified chord set: the chords, the witness cycles, and how it was found.

    The chords are a column mask ``chord_mask`` over ``columns``, as in
    ``CycleRecord``; ``source`` is "exhaustive" or "boundary_certificate".
    """

    def __init__(self, chords, witnesses, source: str):
        columns = tuple(face_columns(frozenset(chords)))
        vars(self).update(columns=columns, chord_mask=(1 << len(columns)) - 1, witnesses=tuple(witnesses),
                          source=source)

    @classmethod
    def from_masks(cls, d: int, columns: tuple[Face, ...], chords: int, witnesses: list[int],
                   source: str) -> ChordSetRecord:
        """The chords and the witness d-cycles at the set bits of column masks over ``columns``."""
        record = cls.__new__(cls)
        vars(record).update(columns=columns, chord_mask=chords, source=source,
                            witnesses=tuple(CycleRecord.from_mask(d, columns, w) for w in witnesses))
        return record

    @cached_property
    def chords(self) -> frozenset[Face]:
        return faces_of(self.chord_mask, self.columns)

    def _key(self) -> tuple:
        return tuple(self.columns[j].mask for j in _bits(self.chord_mask)), self.witnesses, self.source


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
    total = 0
    for w in witnesses:
        if w & ~target or _vertex_mask(_bits(w), masks).bit_count() >= vmask.bit_count():
            return False
        if not _is_cycle([masks[j] for j in _bits(w)], d):
            return False
        total ^= w
    return _union(witnesses) == target and total == cycle


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
    return _union(masks[j] for j in cols)


def _chord_set(basis, support: int, columns: tuple[Face, ...], masks: list[int], d: int) -> ChordSetRecord | None:
    """The verified boundary certificate of a cycle (a column mask) from its window's basis, or None.

    Witness i is the boundary of the i-th chosen (d+1)-set, and the chords
    are the witness columns outside the cycle.
    """
    column, tops, pivots = basis
    chosen = _preimage(pivots, support)
    if chosen is None:
        return None
    witnesses = [_top_row(tops[j], column) for j in _bits(chosen)]
    chords = _union(witnesses) & ~support
    if not _chord_set_holds(masks, (1 << len(masks)) - 1, support, chords, witnesses, d):
        raise AssertionError("boundary certificate failed chord-set verification")
    return ChordSetRecord.from_masks(d, columns, chords, witnesses, "boundary_certificate")


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
    d = _check_chord_input(cycle, ambient, "boundary_chord_test")
    if nullity([f.mask for f in cycle.face_list()]) != 1:
        raise InputError("boundary_chord_test expects a face-minimal cycle")
    solver = _window_solver(ambient, d)
    columns = tuple(face_columns(ambient.faces(d)))
    column = {f: j for j, f in enumerate(columns)}
    support = sum(1 << column[f] for f in cycle.face_list())
    return _chord_set(_window_basis(solver, cycle.vertex_mask), support, columns, solver[0], d)


def _check_chord_input(cycle: CycleRecord, ambient: Complex, name: str) -> int:
    """The cycle's dimension, once the ambient is pure of it and the cycle lies inside it and is not complete."""
    _require_pure(ambient, cycle.dim, name)
    if not cycle.faces <= ambient.faces(cycle.dim):
        raise InputError(f"{name} expects a cycle inside the ambient complex")
    if cycle.is_complete():
        raise InputError(f"{name} expects a non-d-complete cycle")
    return cycle.dim


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
    d = _check_chord_input(cycle, ambient, "exhaustive_chord_set_search")
    wmask = cycle.vertex_mask
    candidates = [f for f in faces_within(ambient, d, wmask) if f not in cycle.faces]
    k = len(candidates)
    if 1 << k > cap:
        raise CapExceeded(f"exhaustive chord search over 2^{k} chord sets", 1 << k, cap)
    for size in range(1, len(candidates) + 1):
        for chord_combo in itertools.combinations(candidates, size):
            universe = tuple(face_columns(cycle.faces | set(chord_combo)))
            masks = [f.mask for f in universe]
            target = sum(1 << j for j, f in enumerate(universe) if f in cycle.faces)
            chord_cover = (1 << len(universe)) - 1 ^ target
            usable = [w for w in cycle_supports(masks, cap) if _vertex_mask(_bits(w), masks) != wmask]
            found = _cover_search(usable, target, chord_cover, cap)
            if found is not None and _chord_set_holds(masks, (1 << len(masks)) - 1, target, chord_cover, found, d):
                return ChordSetRecord.from_masks(d, universe, chord_cover, found, "exhaustive")
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
    window.  Verified chord-set records, column masks over the d-face
    tuple with no ``Face`` set built, are made for the first
    ``certificate_limit`` passing cycles in canonical order (pass None for
    all) and for every failing cycle, in ``CycleRecord.sort_key`` order.
    The verdict itself covers every cycle regardless of the limit.
    """
    _require_pure(c, d, "is_d_chorded")
    faces = tuple(face_columns(c.faces(d)))
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
    for support, passes in shown:
        record = CycleRecord.from_mask(d, faces, support, face_minimal=True)
        chord_set = _chord_set(basis(record.vertex_mask), support, faces, masks, d) if passes else None
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
