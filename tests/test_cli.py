"""CLI contract: exit codes, JSON shapes, determinism."""

import json

from lpalab.cli import main
from helpers import e3_graph, e4_graph, f1_path_graph


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
    code, _, err = run(capsys, "classify", "--graph", path, "--char", "4")
    assert code == 2 and "prime" in err


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


def test_usage_error(capsys):
    code = main(["classify", "--char", "2"])
    capsys.readouterr()
    assert code == 2
