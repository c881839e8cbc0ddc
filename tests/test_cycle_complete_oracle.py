"""The window sweep for plain d-cycle-completeness against the kernel walk.

``kernel_walk_cycle_complete`` is the plain ``is_d_cycle_complete`` as it
stood before the window sweep: it walks all 2^nullity GF(2) kernel vectors,
splits each into d-path components, and looks for a vertex-minimal one that
is not d-complete.  The sweep must give the same verdict on seeded random
pure complexes and on every corpus file at every dimension.
"""

import itertools
import math
import random
from pathlib import Path

import pytest

from chorded import CapExceeded, Complex, Face, is_d_cycle_complete, pure_skeleton
from chorded.cli import parse_facet_file
from chorded.complex_core import _bits
from chorded.cycles import cycle_supports, face_columns, is_vertex_minimal
from chorded.field_linalg import DEFAULT_KERNEL_CAP


def kernel_walk_cycle_complete(c: Complex, d: int, cap: int = DEFAULT_KERNEL_CAP) -> bool:
    """Whether every vertex-minimal cycle is d-complete, by walking every kernel vector."""
    masks = [f.mask for f in face_columns(c.faces(d))]
    for comp in cycle_supports(masks, cap):
        vmask = 0
        for j in _bits(comp):
            vmask |= masks[j]
        complete = comp.bit_count() == math.comb(vmask.bit_count(), d + 1)
        if is_vertex_minimal(c, d, vmask, False, cap) and not complete:
            return False
    return True


def random_pure_complex(rng: random.Random, d: int, max_vertices: int) -> Complex:
    """Each d-face on up to ``max_vertices`` vertices kept with one seeded density."""
    n = rng.randint(d + 2, max_vertices)
    p = rng.choice((0.3, 0.5, 0.7, 0.85, 0.95))
    faces = [Face.of(s) for s in itertools.combinations(range(n), d + 1) if rng.random() < p]
    return Complex(n, faces or [Face.of(range(d + 1))])


@pytest.mark.parametrize("d,max_vertices", [(1, 9), (2, 8), (3, 7)])
def test_window_sweep_matches_kernel_walk_on_random_complexes(d, max_vertices):
    rng = random.Random(6000 + d)
    verdicts = []
    for _ in range(130):
        c = random_pure_complex(rng, d, max_vertices)
        try:
            expected = kernel_walk_cycle_complete(c, d, 1 << 12)
        except CapExceeded:
            continue  # the walk's kernel is too large to take as a reference here
        assert is_d_cycle_complete(c, d) == expected, sorted(f.vertices for f in c.faces(d))
        verdicts.append(expected)
    # 107, 109 and 122 decided at d = 1, 2, 3, with 35, 20 and 12 negatives
    assert len(verdicts) >= 100 and verdicts.count(False) >= 10


def test_window_sweep_matches_kernel_walk_on_corpus():
    for path in sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.facets")):
        c = parse_facet_file(path.read_text(encoding="utf-8"))
        for d in range(c.dim + 1):
            skeleton = pure_skeleton(c, d)
            assert is_d_cycle_complete(skeleton, d) == kernel_walk_cycle_complete(skeleton, d), (path.name, d)
