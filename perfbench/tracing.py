"""Span recording around the package's public functions, for the traced run only.

``Tracer.install`` replaces each listed function with a wrapper in every
``chorded`` module namespace that binds it (modules import by name, so the
caller's namespace is the one that matters) and restores them on
``uninstall``.  A span is (name, parent span, start, end); spans stay in
memory in flat arrays and are written out after the pass.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (module, function): the span is named "<module>.<function>" and the module is its layer.
FUNCTIONS = (
    ("complex_core", "induced_subcomplex"),
    ("complex_core", "d_closure"),
    ("complex_core", "stanley_reisner_generators"),
    ("complex_core", "complex_of_ideal"),
    ("field_linalg", "rank"),
    ("field_linalg", "gf2_rref"),
    ("field_linalg", "gf2_kernel_masks"),
    ("homology", "boundary_matrix"),
    ("homology", "reduced_betti"),
    ("cycles", "minimal_kernel_supports"),
    ("cycles", "enumerate_cycles_within"),
    ("cycles", "classify_minimality"),
    ("cycles", "is_orientable"),
    ("chordality", "is_d_chorded"),
    ("chordality", "boundary_chord_test"),
    ("chordality", "verify_chord_set"),
    ("chordality", "is_d_cycle_complete"),
    ("chordality", "is_d_tree"),
    ("resolutions", "has_t_linear_resolution"),
    ("resolutions", "min_generation_degree"),
    ("resolutions", "is_componentwise_linear"),
    ("cli", "run_command"),
    ("cli", "parse_facet_file"),
    ("cli", "serialize_report"),
    ("verify", "verify_corpus"),
)
RANK_FIELD = {"gf2": "gf2", "gfp": "gfp", "rational": "q"}
SIEVE_WORD_FACES = 62


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.cap_exceeded = pkg.errors.CapExceeded
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.caps: dict[str, set] = {}  # distinct CapExceeded raised out of each layer
        self.patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name, observe=None, suffix=None):
        """``suffix(args)``, when given, splits the span name by argument (rank by field)."""
        fixed = self._name_id(name)
        layer = name.split(".", 1)[0]
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(fixed if suffix is None else self._name_id(f"{name}.{suffix(args)}"))
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except self.cap_exceeded as exc:
                self.caps.setdefault(layer, set()).add(exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, wrappers):
        """Bind the wrapper wherever ``original`` is bound; ``wrappers`` maps module name to override."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chorded" or mod_name.startswith("chorded.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patched.append((mod, attr, original))
                    setattr(mod, attr, wrappers.get(mod_name.rpartition(".")[2], wrappers[None]))

    def install(self):
        pkg, counts = self.pkg, self.counts

        def count(key, amount=1):
            counts[key] += amount

        observers = {
            "field_linalg.rank": lambda a, r: count(f"rank.entries.{RANK_FIELD[a[1].kind]}", a[0].nrows * a[0].ncols),
            "homology.reduced_betti": lambda a, r: count("reduced_betti.nonzero", r != 0),
            "cycles.minimal_kernel_supports": lambda a, r: (
                count("minimal_kernel_supports.circuits", len(r)),
                count("minimal_kernel_supports.wide_calls", len(a[0]) > SIEVE_WORD_FACES)),
            "cycles.is_orientable": lambda a, r: count("is_orientable.orientable", r is not None),
            "chordality.is_d_chorded": lambda a, r: count("is_d_chorded.circuits", r.complete_cycles + r.non_complete_cycles),
            "cli.serialize_report": lambda a, r: count("report_bytes", len(r.encode())),
        }
        for home, attr in FUNCTIONS:
            name = f"{home}.{attr}"
            original = getattr(getattr(pkg, home), attr)
            by_field = (lambda a: RANK_FIELD[a[1].kind]) if attr == "rank" else None
            wrappers = {None: self._wrap(original, name, observers.get(name), by_field)}
            if attr == "induced_subcomplex":  # the windows a linear-resolution sweep builds
                wrappers["resolutions"] = self._wrap(original, name, lambda a, r: count("resolutions.windows"))
            if attr == "gf2_kernel_masks":  # kernel bases the cycle code sweeps in full
                wrappers["cycles"] = self._wrap(original, name, lambda a, r: count("kernel_vectors_swept", 1 << len(r)))
            self._patch_everywhere(original, wrappers)

        faces = pkg.complex_core.Complex.faces
        self.patched.append((pkg.complex_core.Complex, "faces", faces))
        pkg.complex_core.Complex.faces = self._wrap(faces, "complex_core.faces")
        face_init = pkg.complex_core.Face.__init__
        self.patched.append((pkg.complex_core.Face, "__init__", face_init))

        def counted_init(face, mask):
            counts["face_objects"] += 1
            face_init(face, mask)

        pkg.complex_core.Face.__init__ = counted_init

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time in seconds, and call count."""
        n = len(self.start)
        child = [0] * n
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        names, span_name, parent, start, end = self.names, self.span_name, self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):  # children are recorded after their parents
            dur = end[i] - start[i]
            if parent[i] >= 0:
                child[parent[i]] += dur
            nm = names[span_name[i]]
            self_ns[nm] += dur - child[i]
            calls[nm] += 1
        return {k: v / 1e9 for k, v in self_ns.items()}, calls

    def cap_count(self, layer: str) -> int:
        return len(self.caps.get(layer, ()))

    def write(self, path):
        """Spans as tab-separated name, parent index, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t{self.start[i]}\t{self.end[i]}\n")
