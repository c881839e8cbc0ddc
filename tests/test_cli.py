import json
from pathlib import Path

import pytest

from chorded import ParseError
from chorded.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    main,
    parse_facet_file,
    run_command,
    serialize_report,
)
from chorded.corpus import named_corpus
from chorded.cycles import is_d_dimensional_cycle

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_parse_two_facets():
    c = parse_facet_file("a b c\na b d\n")
    assert c.vertex_count == 4
    assert len(c.facets) == 2


def test_parse_header_isolated_vertex():
    c = parse_facet_file("vertices: a b c d\na b c\n")
    assert c.vertex_count == 4
    assert len(c.facets) == 1
    assert c.labels == ("a", "b", "c", "d")


def test_parse_comments_and_blanks():
    text = "# leading comment\n\n a b c  # trailing\n\n# done\n"
    c = parse_facet_file(text)
    assert len(c.facets) == 1


def test_parse_duplicate_label_reports_line():
    with pytest.raises(ParseError) as err:
        parse_facet_file("a b c\na a d\n")
    assert err.value.line_no == 2


def test_parse_undeclared_label():
    with pytest.raises(ParseError):
        parse_facet_file("vertices: a b\na b c\n")


def test_parse_repeated_header():
    with pytest.raises(ParseError):
        parse_facet_file("vertices: a b\nvertices: c d\n")


def test_parse_empty_header():
    with pytest.raises(ParseError):
        parse_facet_file("vertices:\n")


def test_shipped_corpus_files_match_builders():
    built = named_corpus()
    for path in sorted(CORPUS.glob("*.facets")):
        c = parse_facet_file(path.read_text())
        assert c == built[path.stem], path.name


def test_corpus_counterexample_file(counterexample7):
    c = parse_facet_file((CORPUS / "seven_vertex_counterexample.facets").read_text())
    assert c.vertex_count == 7
    assert len(c.facets) == 30
    assert c == counterexample7


def test_homology_command_rp2():
    report, code = run_command(["homology", "--field", "gf2", str(CORPUS / "projective_plane.facets")])
    assert code == EXIT_OK
    assert report["result"]["reduced_betti"] == {"0": 0, "1": 1, "2": 1}
    assert report["settings"]["field"] == "gf2"
    assert report["timing_ms"] is None


def test_chorded_command_counterexample():
    report, code = run_command(["chorded", "-d", "3", str(CORPUS / "seven_vertex_counterexample.facets")])
    assert code == EXIT_OK
    assert report["result"]["d_chorded"] is True


def test_linres_command_rp2_both_fields():
    path = str(CORPUS / "projective_plane.facets")
    gf2_report, code = run_command(["linres", "-t", "3", "--field", "gf2", "--closure", "-d", "2", path])
    assert code == EXIT_OK
    assert gf2_report["result"]["linear"] is False
    assert gf2_report["result"]["witness"]["subset"] == ["1", "2", "3", "4", "5", "6"]
    q_report, _ = run_command(["linres", "-t", "3", "--field", "q", "--closure", "-d", "2", path])
    assert q_report["result"]["linear"] is True


def test_exit_code_negative_verdict_is_zero():
    _, code = run_command(["tree", "-d", "2", str(CORPUS / "hollow_tetrahedron.facets")])
    assert code == EXIT_OK


def test_exit_code_input_error(tmp_path):
    bad = tmp_path / "bad.facets"
    bad.write_text("a a b\n")
    report, code = run_command(["info", str(bad)])
    assert code == EXIT_INPUT
    assert "line 1" in report["result"]["error"]
    for unreadable in (tmp_path / "missing.facets", tmp_path):  # a directory too
        _, code = run_command(["info", str(unreadable)])
        assert code == EXIT_INPUT
    for d in ("-1", "-2"):
        report, code = run_command(["cycles", "-d", d, str(CORPUS / "bipyramid.facets")])
        assert code == EXIT_INPUT
        assert report["result"]["error"] == "dimension must be non-negative"
    report, code = run_command(["linres", "-t", "3", str(CORPUS / "bipyramid.facets")])
    assert code == EXIT_INPUT
    assert report["result"]["error"] == "ideal is minimally generated in degrees 2, 3, not in degree 3 alone"


def test_unwritable_json_path_is_an_input_error(tmp_path, capsys):
    path = str(CORPUS / "hollow_tetrahedron.facets")
    assert main(["info", "--json", str(tmp_path / "missing" / "report.json"), path]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert json.loads(out)["result"]["f_vector"] == [4, 6, 4]
    assert "cannot write --json report" in err


def test_exit_code_cap_exceeded():
    report, code = run_command(["cycles", "-d", "3", "--cap", "2",
                                str(CORPUS / "seven_vertex_counterexample.facets")])
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["inconclusive"] is True


def test_unknown_command_usage(capsys):
    _, code = run_command(["frobnicate"])
    assert code == EXIT_INPUT


def test_report_byte_stability():
    argv = ["homology", "--field", "q", str(CORPUS / "projective_plane.facets")]
    first, _ = run_command(argv)
    second, _ = run_command(argv)
    assert serialize_report(first) == serialize_report(second)


def test_json_flag_writes_identical_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["info", "--json", str(out), str(CORPUS / "bipyramid.facets")])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert out.read_text() == captured.out
    parsed = json.loads(out.read_text())
    assert parsed["schema_version"] == 1
    assert parsed["result"]["facet_count"] == 6


def test_json_equals_flag_writes_identical_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["sr-ideal", f"--json={out}", str(CORPUS / "bipyramid.facets")])
    assert code == EXIT_OK
    assert out.read_text() == capsys.readouterr().out


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    from chorded import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        bipyramid = str(CORPUS / "bipyramid.facets")
        out = tmp_path / "report.json"
        assert run_command(["info", bipyramid])[1] == EXIT_OK
        assert run_command(["frobnicate"])[1] == EXIT_INPUT
        assert main(["frobnicate"]) == EXIT_INPUT
        assert main(["tree", "-d", "2", f"--json={out}", bipyramid]) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out
        assert run_command(["chorded", "-d", "1", bipyramid])[1] == EXIT_OK
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("argv", [
    ["linres", "-t", "3", "--closure", "-d", "2", "--cap", "1"],
    ["componentwise", "--cap", "1"],
])
def test_linres_cap_is_enforced(argv):
    report, code = run_command([*argv, str(CORPUS / "projective_plane.facets")])
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["inconclusive"] is True
    assert report["settings"]["cap"] == 1


def test_cycles_command_flags():
    report, code = run_command(["cycles", "-d", "2", str(CORPUS / "glued_tetrahedra.facets")])
    assert code == EXIT_OK
    sizes = sorted(len(c["faces"]) for c in report["result"]["cycles"])
    assert sizes == [4, 4, 8]
    union = next(c for c in report["result"]["cycles"] if len(c["faces"]) == 8)
    assert union["face_minimal"] is False


def test_orientable_command(tmp_path):
    report, code = run_command(["orientable", "-d", "2", str(CORPUS / "projective_plane.facets")])
    assert code == EXIT_OK
    assert report["result"] == {"dim": 2, "is_cycle": True, "orientable": False}
    report2, _ = run_command(["orientable", "-d", "2", str(CORPUS / "hollow_tetrahedron.facets")])
    assert report2["result"]["orientable"] is True
    not_cycle = tmp_path / "chain.facets"
    not_cycle.write_text("a b c\na b d\n")
    report3, _ = run_command(["orientable", "-d", "2", str(not_cycle)])
    assert report3["result"]["is_cycle"] is False


def test_sr_ideal_command():
    report, code = run_command(["sr-ideal", str(CORPUS / "projective_plane.facets")])
    assert code == EXIT_OK
    gens = report["result"]["generators"]
    assert len(gens) == 10
    assert all(len(g) == 3 for g in gens)


def test_componentwise_command():
    report, code = run_command(["componentwise", "--field", "q", str(CORPUS / "path_graph_4.facets")])
    assert code == EXIT_OK
    assert report["result"]["componentwise_linear"] is True


def test_chorded_command_all_skeletons():
    report, code = run_command(["chorded", str(CORPUS / "hollow_tetrahedron.facets")])
    assert code == EXIT_OK
    assert report["result"] == {"chorded": True}


def test_cycle_complete_and_tree_commands():
    rp2 = str(CORPUS / "projective_plane.facets")
    plain, _ = run_command(["cycle-complete", "-d", "2", rp2])
    assert plain["result"]["d_cycle_complete"] is False
    orient, _ = run_command(["cycle-complete", "-d", "2", "--orientable", rp2])
    assert orient["result"]["orientably_d_cycle_complete"] is True
    tree, _ = run_command(["tree", "-d", "1", str(CORPUS / "path_graph_4.facets")])
    assert tree["result"]["d_tree"] is True


def test_corrupted_rp2_parses_but_is_not_a_cycle(tmp_path):
    lines = (CORPUS / "projective_plane.facets").read_text().strip().splitlines()
    corrupted = tmp_path / "rp2_broken.facets"
    corrupted.write_text("\n".join([lines[0]] + lines[2:]) + "\n")  # drop one facet
    c = parse_facet_file(corrupted.read_text())
    assert len(c.facets) == 9
    assert not is_d_dimensional_cycle(c, 2)
    report, code = run_command(["orientable", "-d", "2", str(corrupted)])
    assert code == EXIT_OK
    assert report["result"]["is_cycle"] is False


def test_cli_runs_as_module_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "chorded.cli", "info", str(CORPUS / "hollow_tetrahedron.facets")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["facet_count"] == 4


def test_verify_corpus_with_extra_dir_and_corrupted_member(tmp_path):
    from chorded.verify import verify_corpus

    lines = (CORPUS / "projective_plane.facets").read_text().strip().splitlines()
    (tmp_path / "rp2_broken.facets").write_text("\n".join([lines[0]] + lines[2:]) + "\n")
    body = verify_corpus(seed=7, random_instances=8, oracle_instances=4, corpus_dir=str(tmp_path))
    assert body["all_passed"] is True  # a non-cycle member is skipped, not a failure
    assert "file:rp2_broken.facets" in body["corpus_members"]


def test_verify_corpus_violation_exit_code(monkeypatch):
    import chorded.verify as verify_mod

    def fake_verify_corpus(seed, cap, corpus_dir):
        return {"all_passed": False, "properties": [
            {"property": "synthetic", "instances": 1, "passed": False,
             "counterexample": {"complex": {"facets": [["a", "b"]]}}},
        ]}

    monkeypatch.setattr(verify_mod, "verify_corpus", fake_verify_corpus)
    report, code = run_command(["verify-corpus"])
    assert code == 1
    assert report["result"]["all_passed"] is False


def test_verify_corpus_hands_cap_to_linear_resolution_checks(monkeypatch):
    import inspect

    import chorded.verify as verify_mod

    cap = (1 << 20) - 7
    seen = []

    def spy(fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((fn.__name__, bound.arguments["cap"]))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("has_t_linear_resolution", "is_componentwise_linear"):
        monkeypatch.setattr(verify_mod, name, spy(getattr(verify_mod, name)))
    body = verify_mod.verify_corpus(seed=7, cap=cap, random_instances=8, oracle_instances=4)
    assert body["cap"] == cap
    assert {name for name, _ in seen} == {"has_t_linear_resolution", "is_componentwise_linear"}
    assert all(got == cap for _, got in seen)
