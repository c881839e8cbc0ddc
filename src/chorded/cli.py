"""Command-line interface: facet-file ingestion and deterministic JSON reports.

Facet file grammar: ``#`` starts a comment running to end of line; an
optional first line ``vertices: a b c ...`` declares the full vertex set
(isolated vertices become legal); every other nonblank line is one facet as
whitespace-separated labels.

Every command emits a single JSON document with a ``schema_version`` field,
sorted keys, and certificates embedding faces as sorted label lists.  Two
runs on identical inputs and flags produce byte-identical reports; wall
clock timing is therefore serialized as null unless ``--timing`` opts in.

Exit codes: 0 command completed (the verdict itself may be negative),
1 verify-corpus found a property violation, 2 input error, 3 a cap was
exceeded so the result is inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .complex_core import (
    Complex,
    _bits,
    build_complex,
    d_closure,
    d_complement,
    facet_ideal_generators,
    pure_skeleton,
    stanley_reisner_generators,
)
from .chordality import (
    ChordSetRecord,
    is_chorded,
    is_d_chorded,
    is_d_cycle_complete,
    is_d_tree,
)
from .cycles import CycleRecord, classify_minimality, cycle_from_complex, enumerate_cycles_within, is_d_dimensional_cycle, is_orientable
from .errors import CapExceeded, InputError, ParseError, PurityError, ShapeError
from .field_linalg import DEFAULT_KERNEL_CAP, parse_field
from .homology import betti_profile
from .resolutions import has_t_linear_resolution, is_componentwise_linear, min_generation_degree

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def parse_facet_file(text: str) -> Complex:
    """Parse the facet-file grammar into a complex.

    Raises ``ParseError`` with a 1-based line number for duplicate labels in
    one facet, an empty facet, an empty or repeated header, or a facet label
    missing from a declared header.
    """
    header: list[str] | None = None
    facets: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            if line.strip():
                raise ParseError(line_no, "empty facet line")
            continue
        if tokens[0] == "vertices:":
            if header is not None:
                raise ParseError(line_no, "repeated vertices: header")
            if facets:
                raise ParseError(line_no, "vertices: header must precede facets")
            if len(tokens) == 1:
                raise ParseError(line_no, "vertices: header declares no labels")
            if len(set(tokens[1:])) != len(tokens) - 1:
                raise ParseError(line_no, "duplicate label in vertices: header")
            header = tokens[1:]
            continue
        if len(set(tokens)) != len(tokens):
            raise ParseError(line_no, f"duplicate label in facet {tokens}")
        facets.append((line_no, tokens))
    if header is not None:
        from .complex_core import Face

        pos = {lab: i for i, lab in enumerate(header)}
        masks = []
        for line_no, tokens in facets:
            for tok in tokens:
                if tok not in pos:
                    raise ParseError(line_no, f"label {tok!r} not in vertices: header")
            masks.append(Face.of(pos[tok] for tok in tokens))
        return Complex(len(header), masks, tuple(header))
    return build_complex([tokens for _, tokens in facets])


# ---------------------------------------------------------------------------
# Report serialization helpers.

def _face_labels(c: Complex, face) -> list[str]:
    return [c.labels[v] for v in face.vertices]


def _cycle_json(c: Complex, record: CycleRecord) -> dict:
    out: dict = {
        "dim": record.dim,
        "faces": sorted(_face_labels(c, f) for f in record.face_list()),
        "vertices": [c.labels[v] for v in record.vertices],
        "complete": record.is_complete(),
    }
    for flag in ("face_minimal", "vertex_minimal", "orientable",
                 "orientably_face_minimal", "orientably_vertex_minimal"):
        value = getattr(record, flag)
        if value is not None:
            out[flag] = value
    if record.orientation is not None:
        out["orientation"] = [[_face_labels(c, f), s] for f, s in record.orientation]
    return out


def _chord_set_json(c: Complex, record: ChordSetRecord) -> dict:
    return {
        "chords": sorted(_face_labels(c, record.columns[j]) for j in _bits(record.chord_mask)),
        "witnesses": [sorted(_face_labels(c, f) for f in w.face_list()) for w in record.witnesses],
        "source": record.source,
    }


def make_report(command: list[str], input_digest: str | None, settings: dict, body: dict,
                elapsed_ms: float | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "input_digest": input_digest,
        "settings": settings,
        "result": body,
        "timing_ms": elapsed_ms,
    }


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Command implementations.  Each returns a result body dict.

def _cmd_info(c: Complex, args) -> dict:
    return {
        "vertices": list(c.labels),
        "vertex_count": c.vertex_count,
        "facet_count": len(c.facets),
        "facets": sorted(_face_labels(c, f) for f in c.facets),
        "dimension": c.dim,
        "pure": c.is_pure(),
        "f_vector": list(c.f_vector()),
    }


def _facets_body(c: Complex) -> dict:
    return {
        "vertices": list(c.labels),
        "facets": sorted(_face_labels(c, f) for f in c.facets),
    }


def _cmd_skeleton(c: Complex, args) -> dict:
    return _facets_body(pure_skeleton(c, args.dim))


def _cmd_closure(c: Complex, args) -> dict:
    return _facets_body(d_closure(c, args.dim))


def _cmd_complement(c: Complex, args) -> dict:
    return _facets_body(d_complement(c, args.dim))


def _cmd_homology(c: Complex, args) -> dict:
    profile = betti_profile(c, args.field_spec)
    return {
        "field": str(args.field_spec),
        "reduced_betti": {str(i): b for i, b in profile.as_dict().items()},
    }


def _cmd_cycles(c: Complex, args) -> dict:
    records = enumerate_cycles_within(c, args.dim, range(c.vertex_count), args.cap)
    classified = [classify_minimality(r, c, args.cap) for r in records]
    return {
        "dim": args.dim,
        "count": len(classified),
        "cycles": [_cycle_json(c, r) for r in classified],
    }


def _cmd_orientable(c: Complex, args) -> dict:
    if not is_d_dimensional_cycle(c, args.dim):
        return {"dim": args.dim, "is_cycle": False, "orientable": None}
    record = cycle_from_complex(c, args.dim)
    orientation = is_orientable(record, args.cap)
    body: dict = {"dim": args.dim, "is_cycle": True, "orientable": orientation is not None}
    if orientation:
        body["orientation"] = [[_face_labels(c, f), s] for f, s in sorted(orientation.items())]
    return body


def _cmd_chorded(c: Complex, args) -> dict:
    if args.dim is not None:
        result = is_d_chorded(pure_skeleton(c, args.dim), args.dim, args.cap)
        return {
            "dim": args.dim,
            "d_chorded": result.chorded,
            "complete_cycles": result.complete_cycles,
            "non_complete_cycles": result.non_complete_cycles,
            "certificates": [
                {
                    "cycle": _cycle_json(c, record),
                    "chord_set": _chord_set_json(c, cert) if cert else None,
                }
                for record, cert in result.certificates
            ],
        }
    return {"chorded": is_chorded(c, args.cap)}


def _cmd_cycle_complete(c: Complex, args) -> dict:
    value = is_d_cycle_complete(pure_skeleton(c, args.dim), args.dim, args.orientable, args.cap)
    key = "orientably_d_cycle_complete" if args.orientable else "d_cycle_complete"
    return {"dim": args.dim, key: value}


def _cmd_tree(c: Complex, args) -> dict:
    return {"dim": args.dim, "d_tree": is_d_tree(pure_skeleton(c, args.dim), args.dim)}


def _cmd_sr_ideal(c: Complex, args) -> dict:
    ideal = stanley_reisner_generators(c)
    return {
        "variables": list(ideal.labels),
        "generators": sorted(sorted(ideal.labels[v] for v in g.vertices) for g in ideal.generators),
        "zero": ideal.is_zero,
    }


def _witness_json(ideal, witness) -> dict | None:
    if witness is None:
        return None
    subset, degree, betti = witness
    return {"subset": [ideal.labels[v] for v in subset], "homological_degree": degree, "betti": betti}


def _cmd_linres(c: Complex, args) -> dict:
    if args.closure:
        if args.dim is None:
            raise InputError("--closure requires -d")
        c = d_closure(c, args.dim)
    ideal = stanley_reisner_generators(c)
    verdict = has_t_linear_resolution(ideal, args.t, args.field_spec, args.cap)
    body: dict = {
        "t": args.t,
        "field": str(args.field_spec),
        "linear": verdict.linear,
        "ideal_generators": sorted(sorted(ideal.labels[v] for v in g.vertices) for g in ideal.generators),
    }
    if verdict.witness is not None:
        body["witness"] = _witness_json(ideal, verdict.witness)
    return body


def _cmd_componentwise(c: Complex, args) -> dict:
    ideal = facet_ideal_generators(c)
    verdict = is_componentwise_linear(ideal, args.field_spec, args.cap)
    return {
        "field": str(args.field_spec),
        "componentwise_linear": verdict.componentwise_linear,
        "per_degree": {
            str(d): {
                "linear": v.linear,
                "witness": _witness_json(ideal, v.witness),
            }
            for d, v in verdict.per_degree
        },
        "generator_degrees": sorted(ideal.degrees()),
        "min_generation_degree": min_generation_degree(ideal),
    }


def _cmd_verify_corpus(args) -> tuple[dict, int]:
    from .verify import verify_corpus

    body = verify_corpus(seed=args.seed, cap=args.cap, corpus_dir=args.corpus)
    code = EXIT_OK if body["all_passed"] else EXIT_VIOLATION
    return body, code


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.

_FILE_COMMANDS = {
    "info": (_cmd_info, ()),
    "skeleton": (_cmd_skeleton, ("dim",)),
    "closure": (_cmd_closure, ("dim",)),
    "complement": (_cmd_complement, ("dim",)),
    "homology": (_cmd_homology, ("field",)),
    "cycles": (_cmd_cycles, ("dim", "cap")),
    "orientable": (_cmd_orientable, ("dim", "cap")),
    "chorded": (_cmd_chorded, ("optdim", "cap")),
    "cycle-complete": (_cmd_cycle_complete, ("dim", "cap", "orientable-flag")),
    "tree": (_cmd_tree, ("dim",)),
    "sr-ideal": (_cmd_sr_ideal, ()),
    "linres": (_cmd_linres, ("t", "field", "closure-flag", "optdim", "cap")),
    "componentwise": (_cmd_componentwise, ("field", "cap")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorded",
        description="Chordality and linear-resolution analysis of simplicial complexes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs):
        if "dim" in needs:
            p.add_argument("-d", "--dim", type=int, required=True, help="dimension d")
        if "optdim" in needs:
            p.add_argument("-d", "--dim", type=int, default=None, help="dimension d")
        if "field" in needs:
            p.add_argument("--field", default="gf2", help="gf2, gf<p> or q")
        if "cap" in needs:
            p.add_argument("--cap", type=int, default=DEFAULT_KERNEL_CAP,
                           help="the one work cap, checked before an enumeration starts: kernel vectors, "
                                "sign choices, chord subsets, or for linres and componentwise the vertex sets "
                                "of at least t-1 elements (default 2^20)")
        if "t" in needs:
            p.add_argument("-t", type=int, required=True, dest="t",
                           help="target linearity degree")
        if "closure-flag" in needs:
            p.add_argument("--closure", action="store_true",
                           help="replace the input by its d-closure first")
        if "orientable-flag" in needs:
            p.add_argument("--orientable", action="store_true",
                           help="test the orientably-d-cycle-complete variant")
        p.add_argument("--json", default=None, metavar="PATH",
                       help="also write the JSON report to PATH")
        p.add_argument("--timing", action="store_true",
                       help="serialize wall-clock timing (breaks byte stability)")

    for name, (_, needs) in _FILE_COMMANDS.items():
        p = sub.add_parser(name)
        add_common(p, needs)
        p.add_argument("file", help="facet file")

    vp = sub.add_parser("verify-corpus")
    vp.add_argument("--corpus", default=None, metavar="DIR",
                    help="directory of extra .facets files to include")
    vp.add_argument("--seed", type=lambda s: int(s, 0), default=20240901,
                    help="64-bit seed for the random suites")
    vp.add_argument("--cap", type=int, default=DEFAULT_KERNEL_CAP)
    vp.add_argument("--json", default=None, metavar="PATH")
    vp.add_argument("--timing", action="store_true")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use rather than at import."""
    return build_parser()


def run_command(argv: list[str]) -> tuple[dict, int]:
    """Dispatch one CLI invocation, returning (report, exit_code)."""
    report, code, _ = _run(argv)
    return report, code


def _run(argv: list[str]) -> tuple[dict, int, argparse.Namespace | None]:
    """``run_command``, plus the parsed arguments (None when parsing failed)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return {}, EXIT_INPUT if exc.code not in (0, None) else EXIT_OK, None
    started = time.perf_counter()
    settings: dict = {}
    digest = None
    try:
        if args.command == "verify-corpus":
            settings = {"seed": args.seed, "cap": args.cap}
            body, code = _cmd_verify_corpus(args)
        else:
            handler, needs = _FILE_COMMANDS[args.command]
            with open(args.file, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            c = parse_facet_file(raw.decode("utf-8"))
            if "field" in needs:
                args.field_spec = parse_field(args.field)
                settings["field"] = str(args.field_spec)
            if "cap" in needs:
                settings["cap"] = args.cap
            if getattr(args, "dim", None) is not None:
                settings["dim"] = args.dim
            if getattr(args, "t", None) is not None:
                settings["t"] = args.t
            if getattr(args, "closure", False):
                settings["closure"] = True
            if getattr(args, "orientable", False):
                settings["orientable"] = True
            body = handler(c, args)
            code = EXIT_OK
    except (ParseError, InputError, PurityError, ShapeError, OSError, UnicodeDecodeError) as exc:
        body = {"error": str(exc), "kind": type(exc).__name__}
        code = EXIT_INPUT
    except CapExceeded as exc:
        body = {"error": str(exc), "kind": "CapExceeded", "inconclusive": True}
        code = EXIT_INCONCLUSIVE
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = make_report(
        ["chorded", *argv],
        digest,
        settings,
        body,
        elapsed_ms if getattr(args, "timing", False) else None,
    )
    return report, code, args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    report, code, args = _run(argv)
    if report:
        text = serialize_report(report)
        sys.stdout.write(text)
        if args.json is not None:
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                sys.stderr.write(f"chorded: cannot write --json report: {exc}\n")
                return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
