"""CLI contract: exit codes, JSON shapes, determinism."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from lpalab import ModeUnavailableError, cross_validate, field_from_spec, graph_from_lists
from lpalab.cli import build_parser, main
from helpers import e1_graph, e3_graph, e4_graph, f1_path_graph, f3_graph


def write_graph(tmp_path, name, graph):
    p = tmp_path / name
    p.write_text(json.dumps(graph.to_json_obj()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_e3_char2(tmp_path, capsys):
    path = write_graph(tmp_path, "e3.json", e3_graph())
    code, out, _ = run(capsys, "classify", "--graph", path, "--char", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["lie_solvable"] == "yes" and obj["lie_index"] == 3


def test_classify_f1_char0(tmp_path, capsys):
    path = write_graph(tmp_path, "f1.json", f1_path_graph())
    code, out, _ = run(capsys, "classify", "--graph", path, "--char", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["lie_solvable"] == "no"
    assert obj["witnesses"][0]["kind"] == "F1"


def test_classify_rejects_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"vertices": [], "edges": []}))
    code, _, err = run(capsys, "classify", "--graph", str(p), "--char", "0")
    assert code == 2
    assert "empty" in err


def test_classify_rejects_bad_characteristic(tmp_path, capsys):
    path = write_graph(tmp_path, "e3.json", e3_graph())
    for char in ("4", "1", "-4"):
        code, out, err = run(capsys, "classify", "--graph", path, "--char", char)
        assert (code, out) == (2, "")
        assert err == f"error: characteristic must be 0 or a prime, got {char}\n"


def test_classify_deterministic_bytes(tmp_path, capsys):
    path = write_graph(tmp_path, "e4.json", e4_graph(2))
    _, out1, _ = run(capsys, "classify", "--graph", path, "--char", "2")
    _, out2, _ = run(capsys, "classify", "--graph", path, "--char", "2")
    assert out1 == out2


def test_verify_exact_agree(tmp_path, capsys):
    path = write_graph(tmp_path, "e4n2.json", e4_graph(2))
    code, out, _ = run(capsys, "verify", "--graph", path, "--field", "F3",
                       "--mode", "exact")
    assert code == 0
    assert json.loads(out)["status"] == "AGREE"


def test_verify_exact_ignores_depth(tmp_path, capsys):
    # Exact mode runs the complete series: a depth cuts truncated runs only.
    path = write_graph(tmp_path, "e4n2.json", e4_graph(2))
    argv = ("verify", "--graph", path, "--field", "F2", "--mode", "exact")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and json.loads(out)["probe"]["dims"] == [6, 2, 0]
    assert run(capsys, *argv, "--depth", "1") == (code, out, err)


def test_verify_truncated_consistent(tmp_path, capsys):
    path = write_graph(tmp_path, "e3.json", e3_graph())
    code, out, _ = run(capsys, "verify", "--graph", path, "--field", "Q",
                       "--mode", "truncated", "--weight", "6", "--depth", "3")
    assert code == 0
    assert json.loads(out)["status"] == "CONSISTENT"


def test_verify_exact_on_cyclic_exits_3(tmp_path, capsys):
    path = write_graph(tmp_path, "e3.json", e3_graph())
    code, _, err = run(capsys, "verify", "--graph", path, "--field", "Q",
                       "--mode", "exact")
    assert code == 3
    assert "acyclic" in err
    # Every structure and characteristic is refused the same way, by the CLI
    # and by the library call behind it.
    for field in ("Q", "F2", "F3"):
        for structure in ("lie", "jordan"):
            code, out, err = run(capsys, "verify", "--graph", path, "--field", field,
                                 "--mode", "exact", "--structure", structure)
            assert (code, out) == (3, "")
            assert err == "error: exact mode requires an acyclic materialized graph\n"
            with pytest.raises(ModeUnavailableError):
                cross_validate(e3_graph(), field_from_spec(field), mode="exact",
                               structure=structure)


def test_verify_flagged_exact_fail_exits_1(tmp_path, capsys):
    path = write_graph(tmp_path, "e4inf.json", e4_graph(2, flagged=True))
    code, out, _ = run(capsys, "verify", "--graph", path, "--field", "F2",
                       "--mode", "exact")
    assert code == 1
    assert json.loads(out)["status"] == "FAIL"


def test_matrix_prop3a(capsys):
    code, out, _ = run(capsys, "matrix", "--case", "prop3a", "--field", "Q",
                       "--a", "1", "--b", "1", "--c", "1", "--steps", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == [] and obj["steps_checked"] == 8


def test_matrix_prop3b_char_guard(capsys):
    code, _, err = run(capsys, "matrix", "--case", "prop3b", "--field", "F3")
    assert code == 2
    assert "characteristic" in err


def test_matrix_prop3d(capsys):
    code, out, _ = run(capsys, "matrix", "--case", "prop3d", "--field", "Q",
                       "--steps", "6")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_matrix_prop3c_sharp(capsys):
    code, out, _ = run(capsys, "matrix", "--case", "prop3c-sharp", "--field", "F2",
                       "--degree", "3", "--seed", "42")
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "prop3c-sharp" and obj["failures"] == []


def test_eval_examples(tmp_path, capsys):
    from helpers import e2_graph
    path = write_graph(tmp_path, "e2.json", e2_graph())
    code, out, _ = run(capsys, "eval", "--graph", path, "--field", "Q",
                       "--expr", "c'·c")
    assert code == 0 and out.strip() == "v"

    path4 = write_graph(tmp_path, "e4.json", e4_graph(2))
    code, out, _ = run(capsys, "eval", "--graph", path4, "--field", "Q",
                       "--expr", "e2·e2'")
    assert code == 0 and out.strip() == "u - e1·e1'"

    pathf = write_graph(tmp_path, "e4inf.json", e4_graph(1, flagged=True))
    code, out, _ = run(capsys, "eval", "--graph", pathf, "--field", "Q",
                       "--expr", "[e1 - e1', u]")
    assert code == 0 and out.strip() == "-e1 - e1'"


def test_eval_parse_error_exits_2(tmp_path, capsys):
    path = write_graph(tmp_path, "e4.json", e4_graph(1))
    code, _, err = run(capsys, "eval", "--graph", path, "--field", "Q",
                       "--expr", "e1 +")
    assert code == 2 and "position" in err


def test_corpus_command(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    for name, g in (("a_e3.json", e3_graph()), ("b_e4.json", e4_graph(2))):
        (d / name).write_text(json.dumps(g.to_json_obj()))
    code, out, _ = run(capsys, "corpus", "--dir", str(d), "--fields", "F2,F3",
                       "--weight", "6", "--depth", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["FAIL"] == 0
    assert len(obj["entries"]) == 4
    assert [e["file"] for e in obj["entries"]][:2] == ["a_e3.json", "a_e3.json"]


def test_corpus_exact_entries_ignore_depth(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    for name, g in (("e1.json", e1_graph()), ("e4n1.json", e4_graph(1)),
                    ("e4n2.json", e4_graph(2)), ("e4n3.json", e4_graph(3)),
                    ("f1.json", f1_path_graph()), ("f3.json", f3_graph())):
        write_graph(d, name, g)
    code, out, err = run(capsys, "corpus", "--dir", str(d))
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"] == {"AGREE": 18, "CONSISTENT": 0, "FAIL": 0, "ERROR": 0}
    assert run(capsys, "corpus", "--dir", str(d), "--depth", "1") == (code, out, err)


@pytest.mark.parametrize("fields", ["", ","])
def test_corpus_fields_must_name_a_field(tmp_path, capsys, fields):
    write_graph(tmp_path, "e4.json", e4_graph(1))
    code, out, err = run(capsys, "corpus", "--dir", str(tmp_path), "--fields", fields)
    assert (code, out) == (2, "")
    assert "--fields" in err


def test_corpus_isolates_unreadable_file(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a_bad.json").write_text("{bad")
    (d / "b_e4.json").write_text(json.dumps(e4_graph(2).to_json_obj()))
    code, out, _ = run(capsys, "corpus", "--dir", str(d), "--fields", "F2")
    assert code == 1
    obj = json.loads(out)
    bad, good = obj["entries"]
    assert bad["file"] == "a_bad.json" and bad["status"] == "ERROR" and bad["error"]
    assert good == {"file": "b_e4.json", "field": "F2", "status": "AGREE"}
    assert obj["summary"] == {"AGREE": 1, "CONSISTENT": 0, "FAIL": 0, "ERROR": 1}


# Graph files that once escaped as a traceback (exit 1) or loaded as another
# graph: Latin-1 bytes, counts where arrays belong, an id string read as its
# characters, and a flag string that bool() reads as true (a two-sink star,
# AGREE unflagged, FAIL flagged).
MALFORMED = {
    "not-utf8": '{"vertices": ["caf\xe9"], "edges": []}'.encode("latin-1"),
    "vertices-number": b'{"vertices": 5, "edges": []}',
    "edges-number": b'{"vertices": ["v"], "edges": 7}',
    "vertices-string": b'{"vertices": "abc", "edges": []}',
    "flag-string": json.dumps({
        "vertices": [{"id": "u", "infinite_emitter": "false"}, "a", "b"],
        "edges": [{"id": "e", "src": "u", "dst": "a"}, {"id": "f", "src": "u", "dst": "b"}],
    }).encode(),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_verify_rejects_a_malformed_graph_file(tmp_path, capsys, name):
    path = tmp_path / "g.json"
    path.write_bytes(MALFORMED[name])
    code, out, err = run(capsys, "verify", "--graph", str(path), "--field", "F2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", MALFORMED)
def test_corpus_goes_on_past_a_malformed_graph_file(tmp_path, capsys, name):
    (tmp_path / "a_bad.json").write_bytes(MALFORMED[name])
    write_graph(tmp_path, "b_e4.json", e4_graph(2))
    code, out, err = run(capsys, "corpus", "--dir", str(tmp_path), "--fields", "F2,Q")
    assert (code, err) == (1, "")
    obj = json.loads(out)
    assert [(e["file"], e["status"]) for e in obj["entries"]] == \
        [("a_bad.json", "ERROR")] * 2 + [("b_e4.json", "AGREE")] * 2
    assert obj["entries"][0]["error"] == obj["entries"][1]["error"]
    assert obj["summary"] == {"AGREE": 2, "CONSISTENT": 0, "FAIL": 0, "ERROR": 2}


# A valid graph, a file that is not JSON and a graph with a dangling edge.
CORPUS_MIXED = {
    "a.json": '{"vertices": [{"id": "u"}, {"id": "w"}], '
              '"edges": [{"id": "e", "src": "u", "dst": "w"}]}',
    "b.json": '{"vertices": [',
    "c.json": '{"vertices": [{"id": "u"}], "edges": [{"id": "e", "src": "u", "dst": "v"}]}',
}


def test_corpus_loads_each_file_once(tmp_path, capsys, monkeypatch):
    import lpalab.cli as cli

    for name, text in CORPUS_MIXED.items():
        (tmp_path / name).write_text(text)
    loads = []
    load = cli._load_graph
    monkeypatch.setattr(cli, "_load_graph", lambda path: loads.append(path) or load(path))
    code, out, err = run(capsys, "corpus", "--dir", str(tmp_path))
    # Three files and the three default fields: one load per file, not per cell.
    assert len(loads) == 3
    # Exit code and stdout as they were when every cell loaded its file: a
    # file that fails to load is one ERROR entry per field, with one text.
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "c3f45528260c371df3b76ae1860e8dc6a6b2a6264744de66fbd0ff4794f7e283"
    entries = json.loads(out)["entries"]
    assert [e["status"] for e in entries] == ["AGREE"] * 3 + ["ERROR"] * 6
    assert len({e["error"] for e in entries[3:6]}) == len({e["error"] for e in entries[6:]}) == 1


def test_text_mode(tmp_path, capsys):
    path = write_graph(tmp_path, "e3.json", e3_graph())
    code, out, _ = run(capsys, "classify", "--graph", path, "--char", "2", "--text")
    assert code == 0
    assert "lie_solvable: yes" in out


def test_out_file(tmp_path, capsys):
    path = write_graph(tmp_path, "e3.json", e3_graph())
    target = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "classify", "--graph", path, "--char", "2",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["lie_index"] == 3


@pytest.mark.parametrize("argv,flag", [
    (("matrix", "--case", "prop3d", "--steps", "-2"), "--steps"),
    (("matrix", "--case", "prop3a", "--field", "F3", "--steps", "0"), "--steps"),
    (("matrix", "--case", "prop3c-upper", "--samples", "-3"), "--samples"),
    (("matrix", "--case", "prop3c-upper", "--field", "F2", "--degree", "-1",
      "--samples", "3"), "--degree"),
    (("matrix", "--case", "cor-laurent", "--field", "F2", "--degree", "-1"), "--degree"),
    (("matrix", "--case", "cor-field", "--field", "F2", "--depth", "0"), "--depth"),
    (("matrix", "--case", "cor-laurent", "--field", "F2", "--depth", "0"), "--depth"),
    (("matrix", "--case", "prop3d", "--steps", "two"), "--steps"),
    (("verify", "--mode", "truncated", "--weight", "4", "--depth", "-1"), "--depth"),
    (("verify", "--mode", "truncated", "--weight", "4", "--depth", "0"), "--depth"),
    (("corpus", "--depth", "0"), "--depth"),
    (("verify", "--weight", "-1"), "--weight"),
    (("verify", "--mode", "exact", "--weight", "-1"), "--weight"),
    (("corpus", "--weight", "-1"), "--weight"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_vacuous_numeric_flag_exits_2(tmp_path, capsys, argv, flag):
    path = write_graph(tmp_path, "e3.json", e3_graph())
    where = {"verify": ("--graph", path, "--field", "F3"), "corpus": ("--dir", str(tmp_path)),
             "matrix": ()}[argv[0]]
    code, out, err = run(capsys, *argv, *where)
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err


def test_smallest_numeric_flags_accepted(tmp_path, capsys):
    code, out, _ = run(capsys, "matrix", "--case", "prop3d", "--steps", "1")
    assert code == 0 and json.loads(out)["steps_checked"] == 1
    code, out, _ = run(capsys, "matrix", "--case", "prop3c-upper", "--field", "F2",
                       "--samples", "1", "--degree", "0")
    assert code == 0 and json.loads(out)["steps_checked"] == 1
    code, out, _ = run(capsys, "matrix", "--case", "cor-field", "--field", "Q",
                       "--depth", "1")
    assert code == 0 and json.loads(out)["params"]["depth"] == 1
    path = write_graph(tmp_path, "e3.json", e3_graph())
    code, out, _ = run(capsys, "verify", "--graph", path, "--field", "F3", "--weight", "0")
    assert code == 0 and json.loads(out)["probe"]["mode"] == "truncated(0)"
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path), "--fields", "F3",
                       "--weight", "0")
    assert code == 0 and json.loads(out)["summary"]["CONSISTENT"] == 1


def test_usage_error(capsys):
    code = main(["classify", "--char", "2"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--graph", "g.json", "--char", "3", "--text"],
    ["verify", "--graph", "g.json", "--field", "Q", "--mode", "truncated", "--weight", "4",
     "--depth", "2", "--structure", "jordan", "--out", "o.json"],
    ["matrix", "--case", "prop3c-upper", "--field", "F2", "--samples", "5", "--degree", "0",
     "--seed", "7"],
    ["eval", "--graph", "g.json", "--field", "F3", "--expr", "[e, e*]"],
    ["corpus", "--dir", "d", "--fields", "Q", "--depth", "3"],
])
def test_one_subcommand_parser_matches_full_parser(argv):
    """The parser main builds for one subcommand reads a command line as the
    parser of all subcommands does, defaults and handler included."""
    assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"], ["bogus"], ["verify", "--bogus"], []])
def test_one_subcommand_parser_same_help_and_errors(capsys, argv):
    full = build_parser()
    with pytest.raises(SystemExit) as want:
        full.parse_args(argv)
    want_out = capsys.readouterr()
    code = main(argv)
    got = capsys.readouterr()
    assert code == (2 if want.value.code else 0)
    assert (got.out, got.err) == (want_out.out, want_out.err)


def test_import_pulls_in_no_dataclasses():
    """Importing the CLI loads no dataclasses/inspect/ast: that chain was
    0.8 MB of every process's memory for a handful of record classes."""
    import os
    import subprocess
    import sys

    import lpalab

    src = os.path.dirname(os.path.dirname(os.path.abspath(lpalab.__file__)))
    code = ("import sys, lpalab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_only_the_matrix_command_runs_the_matrix_module(tmp_path):
    """`import lpalab.cli`, a `verify` and the error types never run the code
    of matrices.py; `matrix` does.  The matrix module is in sys.modules
    throughout, registered lazily, and its names are reached only through
    it: the package root re-exports none of them."""
    import os
    import subprocess
    import sys

    import lpalab

    src = os.path.dirname(os.path.dirname(os.path.abspath(lpalab.__file__)))
    path = write_graph(tmp_path, "e4.json", e4_graph(2))
    out = str(tmp_path / "verify.json")
    code = f"""if True:
        import sys
        ran = []
        sys.addaudithook(lambda event, args: event == "exec" and ran.append(
            getattr(args[0], "co_filename", "")))
        import lpalab, lpalab.cli
        loaded = lambda: any(f.endswith("matrices.py") for f in ran)
        seen = [loaded(), "lpalab.matrices" in sys.modules]
        argv = ["verify", "--graph", {path!r}, "--field", "F2", "--out", {out!r}]
        seen += [lpalab.cli.main(argv), loaded()]
        seen += [lpalab.MatrixLabError is lpalab.cli.MatrixLabError,
                 hasattr(lpalab, "witness_nge3"), loaded()]
        seen += [lpalab.cli.main(["matrix", "--case", "prop3a", "--n", "2"]), loaded()]
        from lpalab.matrices import MatrixLabError, witness_nge3
        seen += [witness_nge3 is lpalab.cli.matrices.witness_nge3,
                 MatrixLabError is lpalab.MatrixLabError, hasattr(lpalab, "witness_nge3")]
        print(seen)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str([False, True, 0, False, True, False, False, 2, True,
                               True, True, False]) + "\n"
    assert proc.stderr == "error: witness_nge3 needs degree >= 3\n"


@pytest.mark.parametrize("graph, rest", [
    (e3_graph, ("--mode", "truncated", "--weight", "6", "--depth", "3")),
    (lambda: graph_from_lists(["a", "b", "v"], [
        ("e1", "a", "v"), ("e2", "a", "v"), ("e3", "a", "b"), ("e4", "b", "v"),
        ("e5", "b", "v")], infinite=["a"]), ("--mode", "exact")),
], ids=["E3-truncated", "flagged-acyclic-exact"])
def test_verify_bytes_do_not_depend_on_the_hash_seed(tmp_path, graph, rest):
    """Two processes with different string hashing print the same bytes, so
    no set or dict order of strings leaks into the output on any Python."""
    import os
    import subprocess
    import sys

    import lpalab

    src = os.path.dirname(os.path.dirname(os.path.abspath(lpalab.__file__)))
    path = write_graph(tmp_path, "g.json", graph())
    code = "import sys, lpalab.cli; sys.exit(lpalab.cli.main(sys.argv[1:]))"
    outs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", code, "verify", "--graph", path, "--field", "F3", *rest],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["probe"]["dims"]


# sha256 of the exact stdout of `lpalab matrix ...`, recorded before the
# Laurent and matrix arithmetic was rewritten; every case exits 0.
MATRIX_GOLDEN = [
    (("--case", "prop3a", "--field", "Q", "--steps", "12"),
     "bb54903eb7445d05b742c71e7504ed0f28382bb6bf8c52ab4a43aea4ee6a9b86"),
    # the default --steps, 14
    (("--case", "prop3a", "--field", "F3"),
     "48cda0aedea74e34c186d6b9df18ac76fe0bcc739339cc64c5348fe995829e53"),
    (("--case", "prop3b", "--field", "F2"),
     "abd116f5a0d0f05807fb1eaad30f5e4041a0206d0ae4eca69d2f6d60408bd1c4"),
    (("--case", "prop3c-upper", "--field", "F2", "--samples", "50", "--degree", "3",
      "--seed", "7"),
     "b18f316bbeb1ba55f0cb16c73d6fbd3a577556265ab439cbc6b426a82361df73"),
    (("--case", "prop3c-sharp", "--field", "F2"),
     "17b2dde37d55a00139c9ab6b98e72911230312653c0bf5e79d13a766dc2f82b5"),
    (("--case", "prop3d", "--field", "Q", "--steps", "6"),
     "b9b7f80c30fc2761d305ee21df59aeec500fcf29b30b8d936c452524abb5d757"),
    (("--case", "prop3d", "--field", "F3", "--steps", "4"),
     "167b1a13ae2b2a8245ae3f5c8fc385d1d0d68a9afa29288a35f982a09fcbd543"),
    (("--case", "cor-field", "--field", "F2"),
     "bcc58198f2ece18c44e392732a9552b568883eed4831e9e425867a4efff5fc70"),
    (("--case", "cor-field", "--field", "F3"),
     "a6adcfd639d2e91ba259a32b867c2ea18c8c893e11ed0fe372ae6456080a6e21"),
    (("--case", "cor-field", "--field", "Q"),
     "ca98eb865ca7437fd4465796aba1de758936b0e0f5aa18595fdaf9605c73bd4f"),
    (("--case", "cor-laurent", "--field", "F2", "--degree", "3", "--depth", "8"),
     "e2bfb4a0de5d9c685ff2e935ee5fd16dce8ad74c25d29fb3ffb6b0cb50b3be6e"),
    (("--case", "cor-laurent", "--field", "F3", "--degree", "2", "--depth", "6"),
     "f80dbc9482d4cdb26eaf05c8f82f2e374a879ebfff4987ea0f41a1c8280a4afa"),
    (("--case", "cor-laurent", "--field", "Q", "--degree", "2", "--depth", "4"),
     "990d735d30a3e3e01e2ecfb41ebe10daf516346c6b7cb658d590037053acf5c7"),
]


@pytest.mark.parametrize("argv,digest", MATRIX_GOLDEN,
                         ids=[" ".join(argv[1:]) for argv, _ in MATRIX_GOLDEN])
def test_matrix_case_golden_stdout(capsys, argv, digest):
    code, out, err = run(capsys, "matrix", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


README_MATRIX_LINES = [line for line in (Path(__file__).resolve().parent.parent / "README.md")
                       .read_text(encoding="utf-8").splitlines()
                       if line.startswith("lpalab matrix ")]


def test_readme_lists_matrix_examples():
    assert len(README_MATRIX_LINES) >= 3


@pytest.mark.parametrize("line", README_MATRIX_LINES)
def test_readme_matrix_example_exits_0(capsys, line):
    argv = shlex.split(line, comments=True)
    code, _, err = run(capsys, *argv[1:])
    assert code == 0 and err == ""


# sha256 of the exact stdout of `lpalab verify ... --field Q`, recorded before
# probes over Q moved to integer rows; every case exits 0.  The E3 witnesses
# have fractional coefficients; F1 is acyclic and not Lie solvable.
VERIFY_Q_GOLDEN = [
    ("e3", ("--mode", "truncated", "--weight", "6", "--depth", "4"),
     "6c716c7c735fa96bd41142c87298668d9a80dcf65729a1f6c58a714c2cdb28fe"),
    ("e3", ("--mode", "truncated", "--weight", "4", "--depth", "3"),
     "f0a72cbd241235f6af136fc6dc363993fa7beea2ee7c6ea0653e79a39d05c61f"),
    ("f1", ("--mode", "exact"),
     "6e5f3918fb3f7a1ac2de777dc8cfe016eb2cf4bcfb9bd0c5d6a4873530840134"),
]


@pytest.mark.parametrize("name,argv,digest", VERIFY_Q_GOLDEN,
                         ids=[f"{name} {' '.join(argv)}" for name, argv, _ in VERIFY_Q_GOLDEN])
def test_verify_q_golden_stdout(tmp_path, capsys, name, argv, digest):
    graph = {"e3": e3_graph, "f1": f1_path_graph}[name]()
    path = write_graph(tmp_path, f"{name}.json", graph)
    code, out, err = run(capsys, "verify", "--graph", path, "--field", "Q", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of the exact stdout of `lpalab verify`, with its exit code, for every
# route through cross_validate that no other pin covers: truncated depth
# defaults with and without a predicted index, the Jordan structure in and
# away from characteristic 2, and an exact disagreement.
VERIFY_ROUTE_GOLDEN = [
    ("e3", ("--field", "F2", "--mode", "truncated"), 0,
     "573c7731099f2b6825b29c793ea963e1050b83389d415486eb814eb8fd70eecf"),
    ("e3", ("--field", "Q", "--mode", "truncated"), 0,
     "c9cfb8f18cd350ea6299d5e362d4bf6261b7f442a44f409a26775f60f9680136"),
    ("e4", ("--field", "F2", "--mode", "exact", "--structure", "jordan"), 0,
     "96e06855eb11928ba233ef9ac0c4d0b54c2280f977a2736625d6d00f178fb913"),
    ("e4", ("--field", "F3", "--mode", "exact", "--structure", "jordan"), 0,
     "f1bf1eca22ad6640f1c8de6572398987872c15d01875537b02798885057be351"),
    ("e3", ("--field", "Q", "--mode", "truncated", "--structure", "jordan"), 0,
     "169d2cef723cb13742c57abbd7c70e5e984f147fa9bfd0d2ace97d850af63fbd"),
    ("e4inf", ("--field", "F2", "--mode", "exact"), 1,
     "00128195a04c1be644993cc45c2b0d46416215f1c9d80fb11021f68d293fc0d3"),
]


@pytest.mark.parametrize("name,argv,code,digest", VERIFY_ROUTE_GOLDEN,
                         ids=[f"{name} {' '.join(argv)}"
                              for name, argv, _, _ in VERIFY_ROUTE_GOLDEN])
def test_verify_route_golden_stdout(tmp_path, capsys, name, argv, code, digest):
    graph = {"e3": e3_graph(), "e4": e4_graph(2), "e4inf": e4_graph(2, flagged=True)}[name]
    path = write_graph(tmp_path, f"{name}.json", graph)
    got_code, out, err = run(capsys, "verify", "--graph", path, *argv)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
