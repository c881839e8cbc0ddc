"""Golden CLI reports: the cycle-space commands on every corpus file.

Each report's sha256 is pinned in ``golden_reports.json`` so that a refactor
of the cycle and chordality code cannot change a single report byte.  Files
are passed as ``corpus/<name>.facets`` from the repository root, so the
``command`` field of every report is the same on every machine.

Re-record (only when a report is meant to change) from the repository root:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from chorded.cli import parse_facet_file, run_command, serialize_report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"


def golden_commands() -> list[list[str]]:
    """Every cycle-space command at the file's own dimension and at d = 1."""
    out = []
    for path in sorted((ROOT / "corpus").glob("*.facets")):
        rel = f"corpus/{path.name}"
        own = parse_facet_file(path.read_text(encoding="utf-8")).dim
        out.append(["chorded", rel])
        for d in sorted({own, 1}):
            dim = ["-d", str(d)]
            out += [
                ["cycles", *dim, rel],
                ["orientable", *dim, rel],
                ["chorded", *dim, rel],
                ["cycle-complete", *dim, rel],
                ["cycle-complete", *dim, "--orientable", rel],
                ["tree", *dim, rel],
            ]
    return out


def report_digest(argv: list[str]) -> str:
    report, _ = run_command(argv)
    return hashlib.sha256(serialize_report(report).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_report_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report_digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    digests = {" ".join(argv): report_digest(argv) for argv in golden_commands()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(digests)} reports in {GOLDEN}\n")
