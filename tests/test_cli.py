import io
import json

import pytest

from geothue import builders
from geothue.cli import main
from geothue.confluence import check_geodesically_perfect
from tests.conftest import fixture_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_reduce(capsys):
    code, out, _ = run_json(capsys, "reduce", fixture_path("geoper_S.rws"),
                            "a d d")
    assert code == 0
    assert out["reduced"] == "a b"


def test_reduce_empty_result(capsys):
    code, out, _ = run(capsys, "reduce", fixture_path("z2z2.rws"), "a a")
    assert code == 0
    assert "reduced: ." in out


def test_reduce_random_follows_its_seed(capsys):
    # the leftmost reduction of d d d d d is f f d
    for seed, reduced in ((0, "d f f"), (2, "f f d"), (0, "d f f")):
        code, out, _ = run_json(capsys, "reduce", fixture_path("gpex.rws"),
                                "d d d d d", "--random", "--seed", seed)
        assert code == 0
        assert out["reduced"] == reduced


def test_successors(capsys):
    code, out, _ = run_json(capsys, "successors", fixture_path("tits_d3.rws"),
                            "a b a b")
    assert code == 0
    assert out["successors"] == ["b a b b", "a a b a"]


@pytest.mark.parametrize("flags, arrow", [((), "<->"), (("--directed",), "->")])
def test_resolve(capsys, flags, arrow):
    code, out, _ = run(capsys, "resolve", fixture_path("z2_convergent.rules"),
                       *flags)
    assert code == 0
    assert "rule x X -> .\n" in out
    assert f"rule y x {arrow} x y\n" in out


def test_check_gp_positive_example(capsys):
    code, out, _ = run_json(capsys, "check-gp", fixture_path("geoper_T.rws"))
    assert code == 0
    assert out["holds"] is True


def test_check_gp_negative_example(capsys):
    code, out, _ = run_json(capsys, "check-gp", fixture_path("z2_graph.rws"))
    assert code == 0
    assert out["holds"] is False
    assert out["witness"]["pair"]["z"] == "a A b"


def test_wp_tits(capsys):
    code, out, _ = run_json(capsys, "wp", fixture_path("tits_d3.rws"),
                            "a b a", "b a b")
    assert code == 0
    assert out["equal"] is True


def test_complete_phase_limit_exit_code(capsys):
    code, out, _ = run_json(capsys, "complete", fixture_path("z2_graph.rws"),
                            "--max-phases", "6")
    assert code == 2
    assert out["status"] == "phase-limit"
    counts = [p["total_rules"] for p in out["phases"]]
    assert counts == sorted(counts)


def test_complete_honours_the_node_cap(capsys):
    # sp_equivalent needs more than one node on z2_graph's second phase
    code, out, err = run(capsys, "complete", fixture_path("z2_graph.rws"),
                         "--max-phases", "2", "--caps", "nodes=1")
    assert code == 2
    assert "capped" in err
    assert out == ""


def test_complete_success_with_system(capsys):
    code, out, _ = run_json(capsys, "complete", fixture_path("z2z2_group.rws"),
                            "--emit-system")
    assert code == 0
    assert out["status"] == "completed"
    assert "rule A <-> a" in out["system"] or "rule a <-> A" in out["system"]


def test_weights_undecided_exit(capsys):
    path = fixture_path("geoper_S.rws")
    code, out, _ = run_json(capsys, "weights", path)
    assert code == 0 and out["status"] == "feasible"


def test_dehn_wp(capsys):
    code, out, _ = run_json(capsys, "dehn-wp", fixture_path("z2z2.rws"),
                            "a b b a")
    assert code == 0
    assert out["trivial"] is True


def test_critical_pairs_limit(capsys):
    code, out, _ = run_json(capsys, "critical-pairs",
                            fixture_path("tits_d3.rws"), "--limit", "2")
    assert code == 0
    assert out["count"] == 4 and len(out["pairs"]) == 2


def test_geodesics(capsys):
    code, out, _ = run_json(capsys, "geodesics", fixture_path("tits_d3.rws"),
                            "a b a b")
    assert code == 0
    assert out["geodesics"] == ["b a"]


def test_geodesic_check_undecided_exit(capsys):
    code, out, _ = run_json(capsys, "geodesic-check",
                            fixture_path("z2_graph.rws"),
                            "--max-len", "3", "--caps", "nodes=3")
    assert code == 2
    assert out["status"] == "undecided"


def test_pregroup_check(capsys):
    code, out, _ = run_json(capsys, "pregroup", "check",
                            fixture_path("amalgam_z4z6.pg"))
    assert code == 0
    assert out["ok"] is True


def test_pregroup_to_system(capsys):
    code, out, _ = run(capsys, "pregroup", "to-system",
                       fixture_path("amalgam_z4z6.pg"))
    assert code == 0
    assert out.startswith("alphabet 1 r r2 r3 s s2 s4 s5\nrule 1 -> .\n")


def test_pregroup_to_system_and_back(capsys, tmp_path):
    out_path = tmp_path / "sprime.rws"
    code, _, _ = run(capsys, "pregroup", "to-system-prime",
                     fixture_path("amalgam_z4z6.pg"), "-o", out_path)
    assert code == 0 and out_path.exists()
    code, out, _ = run(capsys, "system", "to-pregroup", out_path,
                       "--reducing-part")
    assert code == 0
    assert "elements 1 r r2 r3 s s2 s4 s5" in out


def test_build_graph(capsys):
    code, out, _ = run(capsys, "build", "graph", "--vertices", "a", "b",
                       "--edges", "a-b")
    assert code == 0
    assert "rule a b <-> b a" in out


def test_build_coxeter(capsys):
    code, out, _ = run(capsys, "build", "coxeter", "--matrix", "1,3;3,1")
    assert code == 0
    assert "rule a b a <-> b a b" in out


@pytest.mark.parametrize("names", [["a", "b", "c"], ["a"]])
def test_build_coxeter_refuses_a_wrong_number_of_names(capsys, names):
    code, out, err = run(capsys, "build", "coxeter", "--matrix", "1,3;3,1",
                         "--names", *names)
    assert code == 1
    assert out == ""
    assert f"rank 2 needs 2 names, got {len(names)}" in err


@pytest.mark.parametrize("name, argv", [
    ("a#", ("coxeter", "--matrix", "1,3;3,1", "--names", "a#", "b")),
    ("x#", ("graph", "--vertices", "x#", "y", "--edges", "x#-y")),
])
def test_build_refuses_a_name_that_starts_a_comment(capsys, name, argv):
    # the written system would read back without the rest of the line
    code, out, err = run(capsys, "build", *argv)
    assert code == 1
    assert out == ""
    assert err == f"geothue: error: bad letter name '{name}'\n"


def test_build_amalgam_from_files(capsys):
    code, out, _ = run(capsys, "build", "amalgam",
                       "--group-a", fixture_path("z4.grp"),
                       "--group-b", fixture_path("z6.grp"),
                       "--subgroup", fixture_path("z2h.grp"),
                       "--map-a", fixture_path("amalgam_a.map"),
                       "--map-b", fixture_path("amalgam_b.map"))
    assert code == 0
    assert "rule s4 r3 <-> s r" in out


def test_a_directed_system_file_reads_back_undirected(capsys, tmp_path):
    # a system file gives every preserving rule both ways, so the file of
    # a directed system is checked as its undirected twin, not with the
    # 384 pairs of the library's directed system
    reports = []
    for flags in ((), ("--directed",)):
        path = tmp_path / f"amalgam{''.join(flags)}.rws"
        code, _, _ = run(capsys, "build", "amalgam", "--example", *flags,
                         "--out", path)
        assert code == 0
        reports.append(run(capsys, "check-gp", path))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and "pairs_checked: 448" in reports[0][1]
    data = builders.example_amalgam()
    directed = builders.build_amalgam_system(data.A, data.B, data.embA,
                                             data.embB, symmetrize=False)
    assert check_geodesically_perfect(directed).pairs_checked == 384


def test_build_hnn_example(capsys):
    code, out, _ = run(capsys, "build", "hnn", "--example")
    assert code == 0
    assert "rule t 123 -> 12 t 23" in out


def test_build_hnn_from_files(capsys):
    code, out, _ = run(capsys, "build", "hnn",
                       "--group", fixture_path("s3.grp"),
                       "--subgroup-a", fixture_path("z2h.grp"),
                       "--subgroup-b", fixture_path("z2h.grp"),
                       "--map-a", fixture_path("hnn_emb.map"),
                       "--map-b", fixture_path("hnn_emb.map"),
                       "--iso", fixture_path("hnn_phi.map"))
    assert code == 0
    assert out.startswith("alphabet t T 12 13 23 123 132\nrule t T -> .\n")


def test_build_britton_example(capsys):
    code, out, _ = run(capsys, "build", "britton", "--example")
    assert code == 0
    assert "rule T 12 t -> 12" in out


def test_build_hnn_pregroup_example(capsys):
    code, out, _ = run(capsys, "build", "hnn-pregroup", "--example")
    assert code == 0
    assert "1.t.1" in out


def test_oracle_wp_unknown_exit(capsys):
    # distinct words, but the budget cannot finish either closure
    code, out, _ = run_json(capsys, "oracle", "wp",
                            fixture_path("z2_graph.rws"), "a", "b",
                            "--caps", "nodes=3")
    assert code == 2
    assert out["verdict"] == "unknown"


def test_oracle_geodesics(capsys):
    path = fixture_path("tits_d3.rws")
    code, out, _ = run_json(capsys, "oracle", "geodesics", path, "a b a b")
    assert code == 0
    assert out["geodesics"] == ["b a"] and out["certified"] is True
    code, out, _ = run_json(capsys, "oracle", "geodesics", path, "a b a b",
                            "--caps", "nodes=2")
    assert code == 2
    assert out["certified"] is False


def test_oracle_count(capsys):
    code, out, _ = run_json(capsys, "oracle", "count",
                            fixture_path("tits_d3.rws"),
                            "--max-word-length", "5")
    assert code == 0
    assert out["count"] == 6


def test_a_file_is_read_from_stdin(capsys, monkeypatch):
    text = fixture_path("geoper_T.rws").read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_json(capsys, "check-gp", "-")
    assert code == 0
    assert out["holds"] is True


def test_human_format_shows_booleans_none_and_nested_lists(capsys):
    gpex = fixture_path("gpex.rws")
    code, out, _ = run(capsys, "check-gp", gpex)
    assert (code, out) == (0, "holds: true\npairs_checked: 0\nwitness: -\n")
    code, out, _ = run(capsys, "check-gp", gpex, "--same-rule-overlaps")
    assert code == 0
    assert out == """\
holds: false
pairs_checked: 1
witness:
  pair:
    z: d d d
    x: f d
    y: d f
    rule1:
      - d d
      - f
    rule2:
      - d d
      - f
    pos1: 0
    pos2: 1
    kind: left-overlap
  descendants_x:
    - f d
  descendants_y:
    - d f
"""
    code, out, _ = run(capsys, "critical-pairs", fixture_path("tits_d3.rws"),
                       "--limit", "1")
    assert code == 0
    assert out.startswith("count: 4\npairs:\n  -\n    z: a a b a\n")


def test_unknown_letter_is_data_error(capsys):
    code, _, err = run(capsys, "reduce", fixture_path("z2z2.rws"), "a q")
    assert code == 1
    assert "error" in err


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "reduce", fixture_path("nope.rws"), "a")
    assert code == 1


def test_bad_caps_string(capsys):
    code, _, err = run(capsys, "reduce", fixture_path("z2z2.rws"), "a",
                       "--caps", "bogus=3")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("check-gp", fixture_path("free_ab.rws"), "--caps", "nodes=0"),
    ("wp", fixture_path("free_ab.rws"), "a", "a", "--caps", "nodes=-3"),
    ("oracle", "class", fixture_path("free_ab.rws"), "a", "--caps", "len=-1"),
])
def test_caps_must_be_usable_budgets(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "geothue: error: cap" in err


@pytest.mark.parametrize("argv, option, minimum", [
    (("weights", fixture_path("z2_convergent.rules"), "--bound", "0"), "--bound", 1),
    (("critical-pairs", fixture_path("tits_d3.rws"), "--limit", "-1"), "--limit", 0),
    (("geodesic-check", fixture_path("tits_d3.rws"), "--max-len", "-2"),
     "--max-len", 0),
    (("geodesic-check", fixture_path("tits_d3.rws"), "--max-len", "2",
      "--slack", "-1"), "--slack", 0),
    (("complete", fixture_path("z2_graph.rws"), "--max-phases", "0"),
     "--max-phases", 1),
    (("complete", fixture_path("z2_graph.rws"), "--max-rules", "0"),
     "--max-rules", 1),
    (("complete", fixture_path("z2_graph.rws"), "--max-rules", "-5"),
     "--max-rules", 1),
    (("oracle", "count", fixture_path("tits_d3.rws"), "--max-word-length", "-1"),
     "--max-word-length", 0),
    (("oracle", "geodesics", fixture_path("tits_d3.rws"), "a", "--slack", "-1"),
     "--slack", 0),
], ids=["bound", "limit", "max-len", "slack", "max-phases", "max-rules-0",
        "max-rules-negative", "max-word-length", "oracle-slack"])
def test_integer_options_must_be_in_range(capsys, argv, option, minimum):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"geothue: error: {option} must be at least {minimum}\n"


def test_integer_options_at_their_minimum_are_answered(capsys):
    code, out, _ = run_json(capsys, "critical-pairs",
                            fixture_path("tits_d3.rws"), "--limit", "0")
    assert code == 0
    assert out["count"] == 4 and out["pairs"] == []
    code, out, _ = run_json(capsys, "geodesic-check", fixture_path("tits_d3.rws"),
                            "--max-len", "0", "--slack", "0")
    assert code == 0
    assert out["status"] == "consistent-up-to"


@pytest.mark.parametrize("command, words", [
    (("wp",), ("a b", "a b")), (("reduce",), ("a",)), (("geodesics",), ("a",)),
    (("check-gp",), ()), (("complete",), ()), (("oracle", "geodesics"), ("a",)),
], ids=["wp", "reduce", "geodesics", "check-gp", "complete", "oracle-geodesics"])
def test_len_cap_is_refused_where_it_is_not_read(capsys, command, words):
    code, out, err = run(capsys, *command, fixture_path("free_ab.rws"), *words,
                         "--caps", "len=0")
    assert code == 1
    assert out == ""
    assert "cap 'len' is not read" in err


def test_len_cap_bounds_the_oracle_closure(capsys):
    code, out, _ = run_json(capsys, "oracle", "class",
                            fixture_path("z2z2.rws"), "a b", "--caps", "len=3")
    assert code == 0
    assert out["max_length"] == 3
    assert all(len(m.split()) <= 3 for m in out["members"])


@pytest.mark.parametrize("name", ["amalgam", "amalgam-pregroup", "hnn",
                                  "britton", "hnn-pregroup"])
def test_example_conflicts_with_file_options(capsys, name):
    if name.startswith("amalgam"):
        option = ("--group-a", fixture_path("z4.grp"))
    else:
        option = ("--iso", fixture_path("hnn_phi.map"))
    code, out, err = run(capsys, "build", name, "--example", *option)
    assert code == 1
    assert out == ""
    assert err == f"geothue: error: --example conflicts with {option[0]}\n"


MALFORMED = "# second line is bad\nbogus directive\n"
# a file holds MALFORMED unless its text is given here
MALFORMED_TEXT = {"repeated_letter.rws": "alphabet a\nalphabet a\nrule a a -> .\n",
                  "equal_sides.rws": "alphabet a b\nrule a b <-> a b\n",
                  "equal_sides_directed.rws": "alphabet a b\nrule a b -> a b\n",
                  "arrow.pg": "pregroup\nelements 1 -> b\neps 1\ninv -> ->\n",
                  "arrow.grp": fixture_path("z6.grp").read_text(
                      encoding="utf-8").replace(" s5", " ->")}


@pytest.mark.parametrize("argv, bad", [
    (("pregroup", "check", "{bad}"), "bad.pg"),
    (("build", "amalgam", "--group-a", fixture_path("z4.grp"),
      "--group-b", "{bad}", "--subgroup", fixture_path("z2h.grp"),
      "--map-a", fixture_path("amalgam_a.map"),
      "--map-b", fixture_path("amalgam_b.map")), "bad.grp"),
    (("build", "amalgam", "--group-a", fixture_path("z4.grp"),
      "--group-b", fixture_path("z6.grp"), "--subgroup", fixture_path("z2h.grp"),
      "--map-a", fixture_path("amalgam_a.map"), "--map-b", "{bad}"), "bad.map"),
    (("weights", "{bad}"), "bad.rules"),
    (("resolve", "{bad}"), "bad.rules"),
    (("check-gp", "{bad}"), "repeated_letter.rws"),
    (("check-gp", "{bad}"), "equal_sides.rws"),
    (("check-gp", "{bad}"), "equal_sides_directed.rws"),
    (("pregroup", "to-system", "{bad}"), "arrow.pg"),
    (("build", "amalgam", "--group-a", fixture_path("z4.grp"),
      "--group-b", "{bad}", "--subgroup", fixture_path("z2h.grp"),
      "--map-a", fixture_path("amalgam_a.map"),
      "--map-b", fixture_path("amalgam_b.map")), "arrow.grp"),
])
def test_format_errors_name_the_file(capsys, tmp_path, argv, bad):
    path = tmp_path / bad
    path.write_text(MALFORMED_TEXT.get(bad, MALFORMED), encoding="utf-8")
    code, out, err = run(capsys, *(str(a).format(bad=path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith(f"geothue: error: {path}: line 2")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main(["critical-pairs", str(fixture_path("z2_graph.rws")),
                 "--format", "json"])
    assert code == 1
    assert capsys.readouterr().err == "geothue: error: [Errno 32] Broken pipe\n"


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
