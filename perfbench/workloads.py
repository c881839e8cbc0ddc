"""The three workloads: timed passes, per-call outcomes and verdict checks.

A pass starts with the package's process-global caches empty, builds every
``Complex`` from plain facet lists, and times each verdict-producing call.
Nothing in a pass checks results; ``Checker`` does that after each pass.
Functions are looked up on their module at call time, so a traced pass runs
the wrapped versions.  The same pass functions run the baseline instances.
"""

from __future__ import annotations

import hashlib
import json
import resource
import traceback
from dataclasses import dataclass

from calibrate import Clock

CACHES = (
    ("betti", "homology", "_betti"),
    ("window", "chordality", "_window_solver"),
    ("nullity", "cycles", "_nullity_within"),
    ("orientable", "cycles", "_orientable_cycle_within"),
)
PREDICATES = ("is_d_tree", "is_d_chorded", "is_d_cycle_complete", "is_d_cycle_complete_orientable")
FIELDS = ("gf2", "gf3", "q")
CAP = "cap_exceeded"


@dataclass
class Failure:
    """An exception the workload did not expect, kept with its traceback."""

    text: str


@dataclass
class Record:
    """One timed call.  ``Checker.check`` replaces the result by its outcome string."""

    key: str
    seconds: float  # raw, probe time left out
    scaled_s: float  # at the reference host speed, see calibrate.py
    result: object
    context: dict | None
    decided: bool


@dataclass
class Pass:
    wall_s: float
    scaled_wall_s: float
    records: list[Record]
    cache_stats: dict
    peak_rss_mb: float  # of the process so far, read before any check runs


class Caches:
    """Empties the package's lru caches and sums their hit/miss counts."""

    def __init__(self, pkg):
        self.fns = {name: getattr(getattr(pkg, mod), attr) for name, mod, attr in CACHES}
        self.totals = {name: [0, 0] for name in self.fns}

    def drain(self):
        for name, fn in self.fns.items():
            info = fn.cache_info()
            self.totals[name][0] += info.hits
            self.totals[name][1] += info.misses
            fn.cache_clear()


class Recorder:
    def __init__(self, pkg, clock: Clock):
        self.cap_exceeded = pkg.errors.CapExceeded
        self.clock = clock
        self.records: list[Record] = []

    def call(self, key: str, context: dict, fn, *args):
        raw, scaled = self.clock.read(probe_now=False)
        try:
            result = fn(*args)
        except self.cap_exceeded:
            result = CAP
        except Exception:  # recorded as a failed call, never fatal to the pass
            result = Failure(traceback.format_exc())
        raw_end, scaled_end = self.clock.read()
        decided = result[0] != 3 if isinstance(result, tuple) else result != CAP
        self.records.append(Record(key, raw_end - raw, scaled_end - scaled, result, context, decided))
        return result


def _cycle_space(pkg, inputs, rec, caches, seed):
    chordality = pkg.chordality
    for inst in inputs:
        c = pkg.complex_core.build_complex(inst["facets"], inst["labels"])
        d = inst["d"]
        ctx = {"inst": inst, "complex": c}
        names = ("is_d_chorded",) if inst.get("chorded_only") else PREDICATES
        for name in names:
            key = f"{inst['name']}/{name}"
            if name == "is_d_cycle_complete_orientable":
                rec.call(key, ctx, lambda: chordality.is_d_cycle_complete(c, d, True))
            else:
                rec.call(key, ctx, lambda: getattr(chordality, name)(c, d))


def _linres_sweep(pkg, inputs, rec, caches, seed):
    core, res, fl = pkg.complex_core, pkg.resolutions, pkg.field_linalg
    fields = {name: fl.parse_field(name) for name in FIELDS}
    for inst in inputs:
        c = core.build_complex(inst["facets"], inst["labels"])
        if inst["kind"] == "linres":
            ideal = core.stanley_reisner_generators(core.d_closure(c, inst["d"]))
            t = inst["d"] + 1
            for fname, f in fields.items():
                rec.call(f"{inst['name']}/linres_{fname}", {"inst": inst, "ideal": ideal, "t": t, "field": f},
                         lambda: res.has_t_linear_resolution(ideal, t, f))
        else:
            ideal = core.facet_ideal_generators(c)
            rec.call(f"{inst['name']}/componentwise_gf2", {"inst": inst, "ideal": ideal, "field": fields["gf2"]},
                     lambda: res.is_componentwise_linear(ideal, fields["gf2"]))


def _cli_corpus(pkg, inputs, rec, caches, seed):
    cli = pkg.cli

    def invoke(argv):
        report, code = cli.run_command(argv)
        return code, cli.serialize_report(report) if report else ""

    for argv in inputs:
        caches.drain()  # each command is a fresh invocation, as from the shell
        rec.call(" ".join(argv), {"argv": argv}, invoke, argv)


PASSES = {"cycle_space": _cycle_space, "linres_sweep": _linres_sweep, "cli_corpus": _cli_corpus}


def run_pass(workload: str, pkg, inputs, seed: int, clock: Clock) -> Pass:
    caches = Caches(pkg)
    caches.drain()
    caches.totals = {name: [0, 0] for name in caches.fns}
    rec = Recorder(pkg, clock)
    raw, scaled = clock.read()
    PASSES[workload](pkg, inputs, rec, caches, seed)
    raw_end, scaled_end = clock.read()
    caches.drain()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Pass(raw_end - raw, scaled_end - scaled, rec.records, {k: tuple(v) for k, v in caches.totals.items()}, peak)


# ---------------------------------------------------------------------------
# Outcomes: a canonical string per call, compared across passes and seeds.

def _faces(faces) -> list:
    return sorted(list(f.vertices) for f in faces)


def _masks(faces) -> list[int]:
    return sorted(f.mask for f in faces)


def _witness(verdict):
    return None if verdict.witness is None else [list(verdict.witness[0]), verdict.witness[1], verdict.witness[2]]


def outcome(result) -> str:
    if isinstance(result, Failure):
        return "error"
    if result == CAP or isinstance(result, bool):
        return json.dumps(result)
    if isinstance(result, tuple):  # (exit code, report text) from the CLI
        return f"exit={result[0]} sha256={hashlib.sha256(result[1].encode()).hexdigest()}"
    kind = type(result).__name__
    if kind == "DChordedResult":
        certs = [[_masks(cyc.faces), None if cs is None else [_masks(cs.chords), [_masks(w.faces) for w in cs.witnesses]]]
                 for cyc, cs in result.certificates]
        body = [result.chorded, result.complete_cycles, result.non_complete_cycles,
                hashlib.sha256(json.dumps(certs).encode()).hexdigest()]
    elif kind == "ResolutionVerdict":
        body = [result.linear, _witness(result)]
    elif kind == "ComponentVerdict":
        body = [result.componentwise_linear, [[d, v.linear, _witness(v)] for d, v in result.per_degree]]
    else:
        raise TypeError(f"no outcome form for {kind}")
    return json.dumps([kind, body])


def verdict_of(result):
    """The yes/no answer of a call, or None when it has none."""
    if isinstance(result, bool):
        return result
    return getattr(result, "chorded", None)


# ---------------------------------------------------------------------------
# Checks, run outside every timed region.

class Checker:
    """Checks each pass of one run as soon as it ends, outside its timed region.

    The first pass gets the theory and relation checks; later passes must
    repeat its outcomes and cache counts exactly.  ``expected`` holds the
    outcomes recorded at the default seed, which every seed must repeat:
    the seed only renames vertices, and outcomes name vertices by number.
    Checked passes keep only outcome strings, so earlier passes hold no
    memory during later ones.
    """

    def __init__(self, workload: str, pkg, expected: dict):
        self.workload, self.pkg, self.expected = workload, pkg, expected
        self.failed: list[str] = []
        self.problems: list[str] = []
        self.reference: Pass | None = None

    def check(self, p: Pass) -> None:
        ref = {r.key: r.result for r in self.reference.records} if self.reference else None
        outcomes = [outcome(r.result) for r in p.records]
        for r, got in zip(p.records, outcomes):
            reasons = []
            if isinstance(r.result, Failure):
                reasons.append("unexpected exception:\n" + r.result.text)
            want = self.expected.get(r.key)
            if want is not None and got != want:
                reasons.append(f"outcome {got} differs from recorded {want}")
            if ref is not None:
                if ref.get(r.key) != got:
                    reasons.append("outcome differs from the run's first pass")
            elif not reasons:
                reasons += CHECKS[self.workload](self.pkg, r)
            if reasons:
                self.failed.append(f"{r.key}: " + "; ".join(reasons))
        if self.reference is None:
            self.failed += _chain_failures(self.workload, p)
            self.reference = p
        elif p.cache_stats != self.reference.cache_stats:
            self.problems.append(
                f"cache hits/misses {p.cache_stats} differ from the first pass {self.reference.cache_stats}")
        for r, got in zip(p.records, outcomes):
            r.result, r.context = got, None


def _check_cycle_space(pkg, r: Record) -> list[str]:
    inst, c = r.context["inst"], r.context["complex"]
    name = r.key.split("/", 1)[1]
    v = verdict_of(r.result)
    out = []
    if name == "is_d_tree" and v is not None and v != (inst["nullity"] == 0):
        out.append(f"is_d_tree={v} but the GF(2) nullity is {inst['nullity']}")
    if inst.get("theory_chorded") and name != "is_d_tree" and v is not True:
        out.append(f"complete 2-skeletons are 2-chorded, got {v}")
    if name == "is_d_chorded" and r.result != CAP:
        out += _chord_certificate_failures(pkg, c, inst["d"], r.result)
    return out


def _chord_certificate_failures(pkg, c, d, result) -> list[str]:
    """Re-verify chord sets, and re-check each failure by GF(2) image membership.

    A failing cycle must not be a (d+1)-boundary in the closure window on its
    vertices.  The first failure of each window goes through ``in_image``;
    every failure is also reduced against an echelon basis of the window's
    boundary columns, which costs far less than one ``in_image`` per cycle.
    """
    core, hom, fl = pkg.complex_core, pkg.homology, pkg.field_linalg
    out = []
    closure = None
    windows: dict[int, tuple] = {}
    for cycle, chord_set in result.certificates:
        if chord_set is not None:
            if not pkg.chordality.verify_chord_set(chord_set.chords, cycle, c, chord_set.witnesses):
                out.append(f"chord set of {_faces(cycle.faces)} fails verification")
            continue
        if closure is None:
            closure = core.d_closure(c, d)
        first = cycle.vertex_mask not in windows
        if first:
            window = core.induced_subcomplex(closure, cycle.vertices)
            m = hom.boundary_matrix(window, d + 1, fl.GF2)
            ids = window.source_ids
            rows = {sum(1 << ids[v] for v in f.vertices): i for f, i in m.row_index().items()}  # by global mask
            basis = _gf2_echelon(sum(1 << r for r, _ in col) for col in m.columns)
            windows[cycle.vertex_mask] = (m, ids, rows, basis)
        m, ids, rows, basis = windows[cycle.vertex_mask]
        bounds = not _gf2_residue(basis, sum(1 << rows[f.mask] for f in cycle.faces))
        if first:
            local = {v: i for i, v in enumerate(ids)}
            faces = [core.Face.of(local[v] for v in f.vertices) for f in cycle.faces]
            if (fl.in_image(m, fl.ChainVector({f: 1 for f in faces}), fl.GF2) is not None) != bounds:
                out.append(f"in_image and the echelon reduction disagree on {_faces(cycle.faces)}")
        if bounds:
            out.append(f"cycle {_faces(cycle.faces)} reported without chord set bounds in its closure window")
    if result.chorded == any(cs is None for _, cs in result.certificates):
        out.append("d_chorded disagrees with its certificates")
    return out


def _gf2_echelon(vectors) -> dict[int, int]:
    """GF(2) basis of the span of bitmask vectors, keyed by each one's lowest set bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        if v := _gf2_residue(basis, v):
            basis[v & -v] = v
    return basis


def _gf2_residue(basis: dict[int, int], v: int) -> int:
    while v and (v & -v) in basis:
        v ^= basis[v & -v]
    return v


def _check_linres(pkg, r: Record) -> list[str]:
    inst, ideal, f = r.context["inst"], r.context["ideal"], r.context["field"]
    if r.result == CAP:
        return []
    if inst["kind"] == "linres":
        if inst.get("theory_linear") and not r.result.linear:
            return ["closures of 2-trees have linear resolutions"]
        planted, got = inst.get("theory_witness"), r.result.witness
        if planted is not None and (got is None or list(got[1:]) != list(planted[1:])
                                    or sorted(ideal.labels[v] for v in got[0]) != sorted(planted[0])):
            return [f"witness {got} is not the planted bipyramid {planted}"]
        return _witness_failures(pkg, ideal, r.context["t"], f, r.result)
    out = []
    for d, verdict in r.result.per_degree:
        out += _witness_failures(pkg, pkg.resolutions.degree_component(ideal, d), d, f, verdict)
    return out


def _witness_failures(pkg, ideal, t, f, verdict) -> list[str]:
    if verdict.witness is None:
        return []
    w, h, b = verdict.witness
    core = pkg.complex_core
    window = core.induced_subcomplex(core.complex_of_ideal(ideal), w)
    again = pkg.homology.reduced_betti(window, h, f)
    if h == t - 2 or b == 0 or again != b:
        return [f"witness {verdict.witness} re-checks as betti {again}"]
    return []


def _check_cli(pkg, r: Record) -> list[str]:
    argv = r.context["argv"]
    code, text = r.result
    if argv[0] == "verify-corpus":
        if code != 0 or not text or not json.loads(text)["result"]["all_passed"]:
            return [f"verify-corpus exit {code}, all_passed false"]
    return []


CHECKS = {"cycle_space": _check_cycle_space, "linres_sweep": _check_linres, "cli_corpus": _check_cli}


def _chain_failures(workload: str, p: Pass) -> list[str]:
    """tree => chorded => cycle-complete => orientably cycle-complete, per instance."""
    if workload != "cycle_space":
        return []
    by_inst: dict[str, dict] = {}
    for r in p.records:
        inst, name = r.key.split("/", 1)
        by_inst.setdefault(inst, {})[name] = verdict_of(r.result)
    out = []
    for inst, v in by_inst.items():
        chain = [v.get(name) for name in PREDICATES]
        if any(a is True and b is False for i, a in enumerate(chain) for b in chain[i + 1:]):
            out.append(f"{inst}: nesting chain violated {dict(zip(PREDICATES, chain))}")
    return out
