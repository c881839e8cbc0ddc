"""Seeded benchmark inputs, generated without importing the package under test.

Every input is a plain facet list: a list of vertex-label lists plus the full
label list, so isolated vertices survive.  The package only ever sees these
lists.  GF(2) nullities used to select instances are computed here with an
independent incremental elimination, which also serves as an oracle for
``is_d_tree``.

The complexes themselves are fixed: the random ones are drawn once from
``CLASS_SEED``.  The run's seed gives every vertex a fresh name, in the same
order as the vertex numbers, and keeps the facet order.  The package numbers
vertices by first appearance, so it does the same work and returns the same
verdicts at every seed.  Relabeling vertices or drawing fresh complexes
changed the cost of single calls by up to 2x, which swamped what a change to
the package would move.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

# minimal_kernel_supports uses its word-packed numpy sieve only up to this
# many faces; cycle_space instances sit on both sides of it.
SIEVE_WORD_FACES = 62
NULLITIES = (11, 12, 13, 14)
WIDE_MAX_FACES = 69
CLASS_SEED = 1
TREE_SIZES = (10, 11)
BASELINE_TREE_SIZE = 12
NEGATIVE_SIZES = (10, 11, 12)
NEGATIVES_PER_SIZE = 3  # sweeps of one size cost alike, so the call-time quantiles sit in a cluster
NEGATIVE_DENSITY = 0.55
# The boundary of a triangular bipyramid on v0..v4 (apexes v0, v1), planted
# unfilled, so the first 5-vertex window in (size, lex) order has H~_2 = 1.
BIPYRAMID = ((0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4))
NEGATIVE_WITNESS = ((0, 1, 2, 3, 4), 2, 1)
# The two CLI commands of over a second (6 s and 2 s here), both on the
# 7-vertex 3-complex.  They are timed once, as baselines in the traced run,
# so that a run fits several cli_corpus passes.
CLI_BASELINE_COMMANDS = (("seven_vertex_counterexample", ("chorded",)),
                         ("seven_vertex_counterexample", ("cycles", "-d", "3")))


def vertex_names(rng: random.Random, n: int) -> list[str]:
    """n distinct seeded names whose sort order is their index order."""
    return [f"v{k:05d}" for k in sorted(rng.sample(range(100000), n))]


def _instance(name: str, labels: list[str], facets, d: int, **meta) -> dict:
    """Facets keep their order: the package numbers vertices by first appearance."""
    return {
        "name": name,
        "d": d,
        "labels": labels,
        "facets": [[labels[v] for v in f] for f in facets],
        "faces": len(facets),
        "nullity": nullity_prefix(facets)[-1],  # of the top boundary map, over GF(2)
        **meta,
    }


def nullity_prefix(facets) -> list[int]:
    """GF(2) nullity of the boundary map restricted to each facet prefix."""
    subface_bit: dict[tuple, int] = {}
    pivots: dict[int, int] = {}
    out = []
    for m, facet in enumerate(facets, start=1):
        col = 0
        for sub in itertools.combinations(facet, len(facet) - 1):
            col ^= 1 << subface_bit.setdefault(sub, len(subface_bit))
        while col:
            low = col & -col
            if low not in pivots:
                pivots[low] = col
                break
            col ^= pivots[low]
        out.append(m - len(pivots))
    return out


def complete_facets(n: int, d: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), d + 1))


def _random_at_nullity(rng: random.Random, n: int, k: int, lo: int, hi: int):
    """Largest prefix of a random triangle order with nullity k and lo..hi faces."""
    triangles = complete_facets(n, 2)
    for _ in range(1000):
        rng.shuffle(triangles)
        prefix = nullity_prefix(triangles[:hi])
        sizes = [m for m in range(lo, min(hi, len(prefix)) + 1) if prefix[m - 1] == k]
        if sizes:
            return sorted(triangles[: sizes[-1]])
    raise RuntimeError(f"no {n}-vertex complex with nullity {k} and {lo}..{hi} faces")


def _random_classes() -> list[tuple[str, int, list]]:
    rng = random.Random(CLASS_SEED)
    out = []
    for k in NULLITIES:
        n = rng.randint(9, 12)
        out.append((f"rand_n{k}_narrow", n, _random_at_nullity(rng, n, k, 1, SIEVE_WORD_FACES)))
        out.append((f"rand_n{k}_wide", 12, _random_at_nullity(rng, 12, k, SIEVE_WORD_FACES + 1, WIDE_MAX_FACES)))
    return out


def _seven_vertex_counterexample() -> list[tuple[int, ...]]:
    return [
        f for f in complete_facets(7, 3)
        if set(f) not in ({0, 1, 5, 6}, {0, 2, 5, 6}, {0, 3, 5, 6}, {0, 4, 5, 6}, {1, 2, 3, 4})
    ]


def cycle_space_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    k6 = complete_facets(6, 2)
    out = [
        _instance("K5", vertex_names(rng, 5), complete_facets(5, 2), 2, theory_chorded=True),
        _instance("K6", vertex_names(rng, 6), k6, 2, theory_chorded=True),
        _instance("K6_minus_face", vertex_names(rng, 6), k6[1:], 2),
        _instance("seven_vertex_counterexample", vertex_names(rng, 7), _seven_vertex_counterexample(), 3),
    ]
    for name, n, facets in _random_classes():
        out.append(_instance(name, vertex_names(rng, n), facets, 2))
    return out


def cycle_space_baselines(seed: int) -> list[dict]:
    """K7, the ROADMAP's is_d_chorded figure: one call of about 13 s, timed once in the traced run."""
    rng = random.Random(seed)
    return [_instance("K7", vertex_names(rng, 7), complete_facets(7, 2), 2, theory_chorded=True, chorded_only=True)]


def leaf_attached_two_tree(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Start from one triangle; each new vertex cones off an existing edge."""
    facets = [(0, 1, 2)]
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        a, b = rng.choice(edges)
        facets.append((a, b, v))
        edges.extend([(a, v), (b, v)])
    return facets


def _tree(rng: random.Random, n: int) -> dict:
    facets = leaf_attached_two_tree(random.Random(CLASS_SEED * 1000 + n), n)
    return _instance(f"tree_{n}", vertex_names(rng, n), facets, 2, kind="linres", theory_linear=True)


def linres_inputs(seed: int, corpus: list[dict]) -> list[dict]:
    rng = random.Random(seed)
    classes = random.Random(CLASS_SEED)
    out = [_tree(rng, n) for n in TREE_SIZES]
    for n, i in itertools.product(NEGATIVE_SIZES, range(NEGATIVES_PER_SIZE)):
        # no triangle inside v0..v4 besides the bipyramid, so nothing fills it
        rest = [t for t in complete_facets(n, 2) if t[2] > 4]
        triangles = list(BIPYRAMID) + sorted(classes.sample(rest, round(NEGATIVE_DENSITY * len(rest))))
        labels = vertex_names(rng, n)
        vertices, h, b = NEGATIVE_WITNESS
        out.append(_instance(f"dense_{n}_{i}", labels, triangles, 2, kind="linres",
                             theory_witness=([labels[v] for v in vertices], h, b)))
    for entry in corpus:
        out.append({**entry, "kind": "componentwise"})
    return out


def linres_baselines(seed: int) -> list[dict]:
    """The 12-vertex tree closure, the ROADMAP's linres figure: about 5 s over three fields."""
    return [_tree(random.Random(seed), BASELINE_TREE_SIZE)]


def read_facet_file(path: Path) -> dict:
    """The facet-file grammar, read independently: comments, header, facets."""
    header = None
    facets = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "vertices:":
            header = tokens[1:]
        else:
            facets.append(tokens)
    labels = list(header) if header else list(dict.fromkeys(t for f in facets for t in f))
    dim = max(len(f) for f in facets) - 1
    return {"name": path.stem, "path": path.as_posix(), "labels": labels, "facets": facets, "d": dim}


def corpus_inputs(root: Path) -> list[dict]:
    files = sorted((root / "corpus").glob("*.facets"))
    if not files:
        raise FileNotFoundError(f"no corpus/*.facets under {root}")
    out = []
    for path in files:
        entry = read_facet_file(path)
        entry["path"] = path.relative_to(root).as_posix()
        out.append(entry)
    return out


def cli_commands(corpus: list[dict], seed: int) -> list[list[str]]:
    """Every file command at each file's own dimension, plus the -d 1 chordality trio, in seeded order.

    Each command runs as a fresh invocation, so the order changes what is
    computed in no way; the seed reaches nothing else here.
    """
    out = []
    for entry in corpus:
        d = str(entry["d"])
        n = len(entry["labels"])
        d_complete = len(entry["facets"]) == len(complete_facets(n, entry["d"]))
        cmds = [["info"], ["skeleton", "-d", d], ["closure", "-d", d], ["complement", "-d", d]]
        cmds += [["homology", "--field", f] for f in ("gf2", "gf3", "q")]
        cmds += [["cycles", "-d", d], ["orientable", "-d", d], ["chorded"], ["chorded", "-d", d],
                 ["cycle-complete", "-d", d], ["cycle-complete", "-d", d, "--orientable"],
                 ["tree", "-d", d], ["sr-ideal"]]
        if not d_complete:  # the closure of a d-complete complex is a simplex: zero ideal
            cmds += [["linres", "-t", str(entry["d"] + 1), "--closure", "-d", d, "--field", f]
                     for f in ("gf2", "gf3", "q")]
        cmds += [["componentwise", "--field", f] for f in ("gf2", "gf3", "q")]
        if entry["d"] != 1:
            cmds += [["chorded", "-d", "1"], ["cycle-complete", "-d", "1"],
                     ["cycle-complete", "-d", "1", "--orientable"]]
        out += [cmd + [entry["path"]] for cmd in cmds if (entry["name"], tuple(cmd)) not in CLI_BASELINE_COMMANDS]
    random.Random(seed).shuffle(out)
    return out


def cli_baselines(corpus: list[dict], seed: int) -> list[list[str]]:
    """The slowest file commands, then verify-corpus at the seed (the ROADMAP's whole-suite figure)."""
    paths = {entry["name"]: entry["path"] for entry in corpus}
    return [list(cmd) + [paths[name]] for name, cmd in CLI_BASELINE_COMMANDS] + [["verify-corpus", "--seed", str(seed)]]


def digest(obj) -> str:
    """sha256 of the canonical JSON form of an input."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
