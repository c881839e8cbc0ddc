"""Linear-resolution and componentwise-linearity decisions for square-free ideals.

The t-linear-resolution test is the homological vanishing criterion: an
ideal minimally generated in degree t has a t-linear resolution over a field
exactly when every induced subcomplex of its associated complex has zero
reduced homology away from degree t-2.  The sweep walks the vertex subsets
in (size, lex) order and reports the first failure as a witness, so
negative verdicts are small and reproducible.  The empty subset and
homological degree -1 are excluded.

The sweep works on int face masks, built level by level straight from the
generator masks: no ``Complex`` is built, neither for the ideal nor per
window.  Two exact skip rules leave out what cannot fail:

- Degrees h < t-2 vanish on every window W: every set of at most t-1
  vertices is a face, so the window holds the full (t-2)-skeleton of the
  simplex on W.
- Windows with |W| <= t+1 vanish away from t-2: a set is a face exactly when
  all its t-subsets are, so such a window is a simplex, or the boundary of
  one, or (|W| = t+1) holds a (t-1)-cycle only when W itself is a face.

The ranks come from ``homology.first_nonvanishing``, the routine behind
every reduced Betti number, which extends each window's echelon form from
its lex-prefix parent; ``homology`` says how, and how QQ is certified.

"Over every field" is operationalized as the probe set {GF(2), GF(3), QQ};
reports carry that list rather than claiming the full quantifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .complex_core import (
    Face,
    MonomialIdeal,
    _closure_level,
    _mask_of,
    complex_of_ideal,
    d_closure,
    pure_skeleton,
)
from .errors import CapExceeded, InputError
from .field_linalg import DEFAULT_KERNEL_CAP, FieldSpec, GF2, RATIONAL, gfp
from .homology import first_nonvanishing

__all__ = [
    "ResolutionVerdict",
    "ComponentVerdict",
    "min_generation_degree",
    "has_t_linear_resolution",
    "degree_component",
    "is_componentwise_linear",
    "PROBE_FIELDS",
]

PROBE_FIELDS: tuple[FieldSpec, ...] = (GF2, gfp(3), RATIONAL)


@dataclass(frozen=True)
class ResolutionVerdict:
    """Outcome of the t-linear test, with the failing subset when negative.

    ``witness`` is ``(vertex_ids, homological_degree, betti_value)`` for the
    first subset in sweep order whose reduced homology is nonzero away from
    t-2.
    """

    t: int
    field: FieldSpec
    linear: bool
    witness: tuple[tuple[int, ...], int, int] | None = None


@dataclass(frozen=True)
class ComponentVerdict:
    """Per-degree linear-resolution verdicts for one ideal over one field."""

    field: FieldSpec
    per_degree: tuple[tuple[int, ResolutionVerdict], ...]

    @property
    def componentwise_linear(self) -> bool:
        return all(v.linear for _, v in self.per_degree)


def min_generation_degree(i: MonomialIdeal) -> int | None:
    """The common degree of the minimal generators, or None when mixed.

    When the ideal is uniform of degree d+1 its complex must equal the
    d-closure of that complex's pure d-skeleton; this identity is asserted.
    The zero ideal is rejected.
    """
    t = _generation_degree(i)
    if t is not None:
        c = complex_of_ideal(i)
        if c != d_closure(pure_skeleton(c, t - 1), t - 1):
            raise AssertionError("uniform-degree ideal whose complex is not the closure of its skeleton")
    return t


def _generation_degree(i: MonomialIdeal) -> int | None:
    if i.is_zero:
        raise InputError("the zero ideal has no generation degree")
    degrees = i.degrees()
    return next(iter(degrees)) if len(degrees) == 1 else None


def _check_sweep_cap(n: int, t: int, cap: int) -> None:
    """Refuse a degree-t sweep on n variables when more than ``cap`` vertex sets have t-1 or more elements.

    Every face the sweep indexes is such a set, and so is every window.  The
    walk of each of the n-t-1 window sizes visits each such set at most once,
    as a window or as a prefix of one, so it makes at most (n-t-1) times
    ``needed`` such visits, plus visits to prefixes of fewer than t-1
    vertices, which are not counted.  The check bounds the sweep's time and
    memory this way before any face level is built.
    """
    needed = sum(math.comb(n, k) for k in range(max(t - 1, 0), n + 1))
    if needed > cap:
        raise CapExceeded(
            f"linear-resolution sweep needs {needed} vertex sets, above cap {cap}",
            needed=needed,
            cap=cap,
        )


def _face_levels(i: MonomialIdeal, t: int) -> list[list[int]]:
    """The faces of the complex of an ideal generated in degree t, by size from t-1, as sorted masks.

    Every (t-1)-set is a face; the t-faces are the t-sets that are not
    generators; and a larger set is a face exactly when all its one-smaller
    subsets are, so each further level is the closure of the one below.
    The list ends at the last nonempty level.
    """
    n = i.variable_count
    gens = {g.mask for g in i.generators}
    levels = [sorted(map(_mask_of, itertools.combinations(range(n), t - 1)))]
    level = sorted(m for m in map(_mask_of, itertools.combinations(range(n), t)) if m not in gens)
    while level:
        levels.append(level)
        level = sorted(_closure_level(level, n))
    return levels


def has_t_linear_resolution(
    i: MonomialIdeal, t: int, f: FieldSpec, cap: int = DEFAULT_KERNEL_CAP
) -> ResolutionVerdict:
    """Homological vanishing sweep over the variable subsets.

    Linear iff every induced subcomplex of the ideal's complex has zero
    reduced homology in all degrees other than t-2.  Subsets are visited by
    increasing size then lexicographically; the first failure becomes the
    witness.  ``CapExceeded`` is raised before any face level is built
    when more than ``cap`` vertex sets have t-1 or more elements: the faces
    the sweep indexes and the windows are all among them, and the sweep
    visits at most n-t-1 times that many of them, one walk per window size,
    besides the prefixes of fewer than t-1 vertices on the way.
    """
    got = _generation_degree(i)
    if got is None:
        degrees = ", ".join(map(str, sorted(i.degrees())))
        raise InputError(f"ideal is minimally generated in degrees {degrees}, not in degree {t} alone")
    if got != t:
        raise InputError(f"ideal is minimally generated in degree {got}, not {t}")
    _check_sweep_cap(i.variable_count, t, cap)
    n, levels = i.variable_count, _face_levels(i, t)
    found = first_nonvanishing(n, f, levels, range(t + 2, n + 1), len(levels) - 1)
    witness = None if found is None else (found[0], t - 1 + found[1], found[2])
    return ResolutionVerdict(t, f, witness is None, witness)


def degree_component(i: MonomialIdeal, d: int) -> MonomialIdeal:
    """The ideal generated by the square-free degree-d monomials inside ``i``.

    These are the d-subsets of variables containing some generator; they
    already form the minimal generating set.
    """
    if d < 0:
        raise InputError("degree must be non-negative")
    gens = []
    for m in map(_mask_of, itertools.combinations(range(i.variable_count), d)):
        if any(g.mask & ~m == 0 for g in i.generators):
            gens.append(Face(m))
    return MonomialIdeal(i.variable_count, gens, i.labels)


def is_componentwise_linear(i: MonomialIdeal, f: FieldSpec, cap: int = DEFAULT_KERNEL_CAP) -> ComponentVerdict:
    """Test every nonzero square-free degree component for a linear resolution.

    ``cap`` bounds each component's sweep as in ``has_t_linear_resolution``;
    it is checked for the largest sweep, of the lowest degree, before any
    component is built.
    """
    if i.is_zero:
        raise InputError("the zero ideal has no components to test")
    start = min(i.degrees())
    _check_sweep_cap(i.variable_count, start, cap)
    per_degree = []
    for d in range(start, i.variable_count + 1):
        component = degree_component(i, d)
        if component.is_zero:
            continue
        per_degree.append((d, has_t_linear_resolution(component, d, f, cap)))
    return ComponentVerdict(f, tuple(per_degree))
