"""Seeded offline benchmark for the chorded package.

Usage, from the repository root:

    python3 perfbench/run.py --workload cycle_space --seed 20240901 --seconds 36 --trace 0

Workloads: ``cycle_space`` (the cycle-space predicates on complete and
random 2-skeletons), ``linres_sweep`` (linear-resolution sweeps over three
fields, plus componentwise linearity of the corpus facet ideals) and
``cli_corpus`` (every file command on every ``corpus/*.facets`` file).  One
process, one thread.

``--trace 0`` runs cold passes (caches emptied, complexes rebuilt from facet
lists) until the next one would overrun ``--seconds``, then prints the
end-to-end metrics.  Times are scaled to a reference host speed by a probe
timed all through the run (``calibrate.py``): the host this was built on
changed speed by up to 1.8x from one second to the next.  Each call's time
is its median over the passes, and ``wall_s`` is the median pass.
``--trace 1`` runs one untraced and one traced pass, whatever
``--seconds`` says, then times the workload's baseline instances (K7, the
12-vertex tree closure, ``verify-corpus``) once, untraced, and prints the
per-layer metrics; spans are written to
``perfbench/out/spans-<workload>.tsv``.  Every call is checked after its
pass: against outcomes recorded in ``perfbench/expected.json``, against
known theory, and by re-checking witnesses.  ``--record`` rewrites the
recorded outcomes of one workload at the default seed, after those checks
pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
import workloads
from calibrate import Clock
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 20240901
SETUP_REPEATS = 11
MODULES = ("complex_core", "chordality", "cycles", "errors", "field_linalg", "homology", "resolutions", "cli", "verify")
TAIL_BEYOND = 10
# Baseline instances, timed once in the traced run, next to the figures ROADMAP.md
# gives for them (seconds; None where it gives none).
BASELINES = (
    ("k7_is_d_chorded_s", "K7/is_d_chorded", 13.4),
    ("linres_tree12_gf2_s", "tree_12/linres_gf2", 2.9),
    ("linres_tree12_gf3_s", "tree_12/linres_gf3", 3.8),
    ("linres_tree12_q_s", "tree_12/linres_q", 6.1),
    ("verify_corpus_s", "verify-corpus --seed {seed}", 19.0),
    ("cli_chorded_seven_vertex_s", "chorded corpus/seven_vertex_counterexample.facets", None),
    ("cli_cycles_d3_seven_vertex_s", "cycles -d 3 corpus/seven_vertex_counterexample.facets", None),
)


def import_package():
    """A fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "chorded" or m.startswith("chorded.")]:
        del sys.modules[name]
    import numpy  # noqa: F401  the package's runtime dependency, loaded lazily by its sieve

    pkg = SimpleNamespace(**{m: importlib.import_module(f"chorded.{m}") for m in MODULES})
    if Path(pkg.cli.__file__).resolve().parent != ROOT / "src" / "chorded":
        raise ImportError(f"imported chorded from {pkg.cli.__file__}, not from {ROOT / 'src'}")
    return pkg


def make_inputs(workload: str, seed: int):
    if workload == "cycle_space":
        return inputs.cycle_space_inputs(seed)
    corpus = inputs.corpus_inputs(ROOT)
    if workload == "linres_sweep":
        return inputs.linres_inputs(seed, corpus)
    return inputs.cli_commands(corpus, seed)


def make_baselines(workload: str, seed: int):
    if workload == "cycle_space":
        return inputs.cycle_space_baselines(seed)
    if workload == "linres_sweep":
        return inputs.linres_baselines(seed)
    return inputs.cli_baselines(inputs.corpus_inputs(ROOT), seed)


def provenance(workload: str, seed: int, data) -> dict:
    out = {"workload": workload, "seed": seed, "inputs_sha256": inputs.digest(data)}
    if workload == "cycle_space":
        out["instances"] = [{k: inst[k] for k in ("name", "faces", "nullity")} for inst in data]
    elif workload == "cli_corpus":
        out["corpus_sha256"] = inputs.digest([(p.name, p.read_text(encoding="utf-8"))
                                               for p in sorted((ROOT / "corpus").glob("*.facets"))])
    return out


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q``: order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass.

    It averages the calls near the quantile's rank instead of picking one,
    so one call's noise moves it less than it moves the nearest-rank value.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    at = cdf[np.round(np.arange(n + 1) / n * (len(cdf) - 1)).astype(int)]
    return float(np.diff(at) @ x)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest (nearest-rank) percentile with at least TAIL_BEYOND values above it, and its Harrell-Davis value."""
    q = max(1, len(values) - TAIL_BEYOND) / len(values)
    return harrell_davis(values, q), 100.0 * q


def metric(value, unit):
    return {"value": value, "unit": unit}


def call_ms(passes, attr: str) -> list[float]:
    """Each call's median time over the passes, in ms."""
    return [1000.0 * statistics.median(getattr(p.records[i], attr) for p in passes) for i in range(len(passes[0].records))]


def end_to_end(passes, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Times are scaled to the reference host speed (calibrate.py), then the median over passes is taken."""
    scaled, raw = call_ms(passes, "scaled_s"), call_ms(passes, "seconds")
    tail_ms, pct = tail(scaled)
    records = passes[0].records
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "wall_s": metric(statistics.median(p.scaled_wall_s for p in passes), "s"),
        "call_p50_ms": metric(statistics.median(scaled), "ms"),
        "call_tail_ms": metric(tail_ms, "ms"),
        "decided_ratio": metric(sum(r.decided for r in records) / len(records), "ratio"),
        "peak_rss_mb": metric(passes[0].peak_rss_mb, "MB"),
    }
    detail = {"passes": len(passes), "calls_per_pass": len(records), "tail_percentile": pct,
              "pass_wall_s": [p.scaled_wall_s for p in passes],
              "unscaled": {"setup_s": statistics.median(r for r, _ in setups),
                           "wall_s": statistics.median(p.wall_s for p in passes),
                           "call_p50_ms": statistics.median(raw), "call_tail_ms": tail(raw)[0]}}
    return metrics, detail


def per_layer(tracer: Tracer, untraced, traced, baseline, seed: int) -> tuple[dict, dict]:
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    cache = traced.cache_stats
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    def span(metric_name, span_name, with_calls=True):
        if with_calls:
            put(f"{metric_name}.calls", calls.get(span_name, 0), "count")
        put(f"{metric_name}.self_s", self_s.get(span_name, 0.0), "s")

    def ratio(a, b):
        return a / b if b else 0.0

    span("complex_core.faces", "complex_core.faces")
    put("complex_core.face_objects", counts["face_objects"], "count")
    span("complex_core.induced_subcomplex", "complex_core.induced_subcomplex")
    for name in ("d_closure", "stanley_reisner_generators", "complex_of_ideal"):
        span(f"complex_core.{name}", f"complex_core.{name}", with_calls=False)
    for f in ("gf2", "gfp", "q"):
        put(f"field_linalg.rank.calls.{f}", calls.get(f"field_linalg.rank.{f}", 0), "count")
        put(f"field_linalg.rank.self_s.{f}", self_s.get(f"field_linalg.rank.{f}", 0.0), "s")
        put(f"field_linalg.rank.entries.{f}", counts[f"rank.entries.{f}"], "count")
    span("field_linalg.gf2_rref", "field_linalg.gf2_rref")
    span("field_linalg.gf2_kernel_masks", "field_linalg.gf2_kernel_masks", with_calls=False)
    span("homology.boundary_matrix", "homology.boundary_matrix")
    span("homology.reduced_betti", "homology.reduced_betti")
    put("homology.reduced_betti.nonzero", counts["reduced_betti.nonzero"], "count")
    hits, misses = cache["betti"]
    put("homology.betti_cache.hits", hits, "count")
    put("homology.betti_cache.misses", misses, "count")
    put("homology.betti_cache.hit_ratio", ratio(hits, hits + misses), "ratio")

    swept, circuits = counts["kernel_vectors_swept"], counts["minimal_kernel_supports.circuits"]
    put("cycles.kernel_vectors_swept", swept, "count")
    span("cycles.minimal_kernel_supports", "cycles.minimal_kernel_supports")
    put("cycles.minimal_kernel_supports.circuits", circuits, "count")
    put("cycles.minimal_kernel_supports.wide_calls", counts["minimal_kernel_supports.wide_calls"], "count")
    put("cycles.circuit_yield", ratio(circuits, swept), "ratio")
    span("cycles.enumerate_cycles_within", "cycles.enumerate_cycles_within", with_calls=False)
    span("cycles.classify_minimality", "cycles.classify_minimality", with_calls=False)
    span("cycles.is_orientable", "cycles.is_orientable")
    put("cycles.is_orientable.orientable_ratio",
        ratio(counts["is_orientable.orientable"], calls.get("cycles.is_orientable", 0)), "ratio")
    for name in ("nullity", "orientable"):
        put(f"cycles.{name}_cache.hits", cache[name][0], "count")
        put(f"cycles.{name}_cache.misses", cache[name][1], "count")
    put("cycles.cap_exceeded", tracer.cap_count("cycles"), "count")

    span("chordality.is_d_chorded", "chordality.is_d_chorded")
    put("chordality.is_d_chorded.circuits", counts["is_d_chorded.circuits"], "count")
    span("chordality.boundary_chord_test", "chordality.boundary_chord_test")
    span("chordality.verify_chord_set", "chordality.verify_chord_set", with_calls=False)
    span("chordality.is_d_cycle_complete", "chordality.is_d_cycle_complete")
    span("chordality.is_d_tree", "chordality.is_d_tree", with_calls=False)
    put("chordality.window_cache.hits", cache["window"][0], "count")
    put("chordality.window_cache.misses", cache["window"][1], "count")
    put("chordality.cap_exceeded", tracer.cap_count("chordality"), "count")

    span("resolutions.has_t_linear_resolution", "resolutions.has_t_linear_resolution")
    put("resolutions.windows", counts["resolutions.windows"], "count")
    span("resolutions.min_generation_degree", "resolutions.min_generation_degree", with_calls=False)
    span("resolutions.is_componentwise_linear", "resolutions.is_componentwise_linear", with_calls=False)

    for name in ("run_command", "parse_facet_file", "serialize_report"):
        span(f"cli.{name}", f"cli.{name}", with_calls=False)
    put("cli.report_bytes", counts["report_bytes"], "count")
    span("verify.verify_corpus", "verify.verify_corpus", with_calls=False)
    # scaled by the probes at call boundaries: the two passes may run at different host speeds
    put("tracing_overhead_s", traced.scaled_wall_s - untraced.scaled_wall_s, "s")

    times = {r.key: r.seconds for r in baseline.records}
    rows = []
    for name, key, roadmap in BASELINES:
        measured = times.get(key.format(seed=seed))
        put(f"baseline.{name}", measured or 0.0, "s")
        if measured is not None:
            rows.append({"instance": key.format(seed=seed), "measured_s": measured, "roadmap_s": roadmap})
    detail = {"traced_wall_s": traced.wall_s, "untraced_wall_s": untraced.wall_s,
              "self_s_sum": sum(self_s.values()), "spans": len(tracer.start), "baselines": rows}
    return out, detail


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}


def record_expected(workload: str, data, p) -> None:
    """Store the checked outcomes of pass ``p`` at the default seed."""
    table = load_expected()
    table[workload] = {
        "seed": DEFAULT_SEED,
        "inputs_sha256": inputs.digest(data),
        "calls": {r.key: r.result for r in p.records},
    }
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite this workload's recorded outcomes (default seed only)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chorded" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'chorded'}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"perfbench: --record needs the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # reports echo argv, so corpus paths stay repo-relative
    sys.path.insert(0, str(ROOT / "src"))

    clock = Clock()
    if not args.trace:
        clock.start_sampling()
    try:
        return measure(args, clock)
    finally:
        clock.stop_sampling()


def measure(args, clock: Clock) -> int:
    setups = []  # (raw, scaled) seconds
    for _ in range(SETUP_REPEATS):
        raw, scaled = clock.read()
        pkg = import_package()
        data = make_inputs(args.workload, args.seed)
        raw_end, scaled_end = clock.read()
        setups.append((raw_end - raw, scaled_end - scaled))
    print(json.dumps({"provenance": provenance(args.workload, args.seed, data)}))

    recorded = {} if args.record else load_expected().get(args.workload, {})
    checker = workloads.Checker(args.workload, pkg, recorded.get("calls", {}))
    if args.seed == DEFAULT_SEED and recorded and recorded["inputs_sha256"] != inputs.digest(data):
        checker.problems.append("inputs at the default seed differ from the recorded ones; re-record")

    def one_pass():
        return workloads.run_pass(args.workload, pkg, data, args.seed, clock)

    passes = []
    tracer = baseline = None
    if args.trace:
        passes.append(one_pass())
        checker.check(passes[-1])
        tracer = Tracer(pkg)
        tracer.install()
        try:
            passes.append(one_pass())
        finally:
            tracer.uninstall()
        checker.check(passes[-1])
        baseline = workloads.run_pass(args.workload, pkg, make_baselines(args.workload, args.seed), args.seed, clock)
        baseline_checker = workloads.Checker(args.workload, pkg, {})
        baseline_checker.check(baseline)
        checker.failed += baseline_checker.failed
    else:  # passes until the next one, if it took as long as the last, would overrun
        spent = last = 0.0  # real seconds of passes, probes included, checks not
        while not passes or spent + last <= args.seconds:
            started = time.perf_counter()
            passes.append(one_pass())
            last = time.perf_counter() - started
            spent += last
            checker.check(passes[-1])
        clock.stop_sampling()
    attempted = sum(len(p.records) for p in passes) + (len(baseline.records) if baseline else 0)
    problems = checker.problems

    if tracer is not None:
        metrics, detail = per_layer(tracer, passes[0], passes[1], baseline, args.seed)
        if detail["self_s_sum"] > passes[1].wall_s:
            problems.append(f"layer self times sum to {detail['self_s_sum']} s, above the traced wall")
        tracer.write(HERE / "out" / f"spans-{args.workload}.tsv")
    else:
        metrics, detail = end_to_end(passes, setups)
    print(json.dumps({"detail": detail}))
    failed = checker.failed
    for reason in failed + problems:
        print(f"perfbench: {reason}", file=sys.stderr)
    correct = not failed and not problems
    if args.record and correct:
        record_expected(args.workload, data, passes[0])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
