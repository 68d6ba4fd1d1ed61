"""Graph validation, structural queries, witnesses, components, patterns."""

import random

import pytest

from lpalab import (
    GraphError,
    decompose_components,
    find_cycle_with_exit,
    find_forbidden_subgraph,
    graph_from_lists,
    is_acyclic,
    match_pattern,
    regular_vertices,
    sinks,
    validate_graph,
)
from helpers import (
    build_corpus_graph,
    corpus_graphs,
    e2_graph,
    e3_graph,
    e4_graph,
    e5_graph,
    e6_graph,
    f1_path_graph,
    f2_graph,
    f3_graph,
    rose_graph,
)


def test_minimal_graph():
    g = validate_graph({"vertices": [{"id": "v"}], "edges": []})
    assert sinks(g) == {"v"}
    assert regular_vertices(g) == set()


def test_validation_errors():
    with pytest.raises(GraphError, match="dangling"):
        validate_graph({"vertices": [{"id": "v"}],
                        "edges": [{"id": "e", "src": "v", "dst": "w"}]})
    with pytest.raises(GraphError, match="duplicate"):
        validate_graph({"vertices": [{"id": "v"}, {"id": "v"}], "edges": []})
    with pytest.raises(GraphError, match="empty vertex set"):
        validate_graph({"vertices": [], "edges": []})
    with pytest.raises(GraphError, match="edge-less"):
        validate_graph({"vertices": [{"id": "v", "infinite_emitter": True}], "edges": []})
    with pytest.raises(GraphError, match="duplicate"):
        validate_graph({"vertices": [{"id": "v"}],
                        "edges": [{"id": "e", "src": "v", "dst": "v"},
                                  {"id": "e", "src": "v", "dst": "v"}]})


def test_infinite_emitter_not_regular():
    g = graph_from_lists(["u", "a", "b"], [("e1", "u", "a"), ("e2", "u", "b")],
                         infinite=["u"])
    assert regular_vertices(g) == set()
    assert not g.is_regular("u") and not g.is_sink("u")


def test_regular_vertices_examples():
    assert regular_vertices(e2_graph()) == {"v"}
    assert regular_vertices(e4_graph(2)) == {"u"}
    assert regular_vertices(e4_graph(2, flagged=True)) == set()


def test_cycle_with_exit_found_on_rose():
    w = find_cycle_with_exit(rose_graph(2))
    assert w is not None and w.kind == "CycleWithExit"
    assert w.edges == ("c0",) and w.exit == "c1"


def test_cycle_with_exit_absent():
    assert find_cycle_with_exit(e3_graph()) is None
    assert find_cycle_with_exit(e5_graph(2)) is None
    assert find_cycle_with_exit(e2_graph()) is None


def test_cycle_with_exit_two_cycle():
    g = graph_from_lists(["a", "b", "z"],
                         [("e", "a", "b"), ("f", "b", "a"), ("g", "a", "z")])
    w = find_cycle_with_exit(g)
    assert w is not None
    assert w.exit == "g" and set(w.edges) == {"e", "f"}


def test_forbidden_subgraphs():
    w = find_forbidden_subgraph(f1_path_graph())
    assert w.kind == "F1" and w.edges == ("e", "f")
    w = find_forbidden_subgraph(f2_graph())
    assert w.kind == "F2" and w.edges == ("e", "f")
    w = find_forbidden_subgraph(f3_graph())
    assert w.kind == "F3" and w.edges == ("e", "f")


def test_forbidden_matching_is_injective_on_vertices():
    # E5 with one child: the star edge plus the loop do not form F1 or F2.
    assert find_forbidden_subgraph(e5_graph(1)) is None
    # a loop plus an exit edge is a cycle matter, not an F-shape
    g = graph_from_lists(["v", "z"], [("c", "v", "v"), ("g", "v", "z")])
    assert find_forbidden_subgraph(g) is None
    assert find_cycle_with_exit(g) is not None


def test_decompose_components():
    g = graph_from_lists(["a", "v"], [("c", "v", "v")])
    comps = decompose_components(g)
    assert len(comps) == 2
    assert [c.vertex_ids for c in comps] == [("a",), ("v",)]

    assert len(decompose_components(e6_graph(2, 1))) == 1

    g3 = graph_from_lists(["a", "b", "c"], [])
    assert [match_pattern(c).kind for c in decompose_components(g3)] == ["E1"] * 3


def test_decompose_is_partition():
    rng = random.Random(3)
    for _ in range(30):
        nv = rng.randint(1, 5)
        ne = rng.randint(0, 6)
        edges = [(f"e{k}", f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}")
                 for k in range(ne)]
        g = graph_from_lists([f"v{i}" for i in range(nv)], edges)
        comps = decompose_components(g)
        vs = [v.id for c in comps for v in c.vertices]
        es = [e.id for c in comps for e in c.edges]
        assert sorted(vs) == sorted(g.vertex_ids)
        assert sorted(es) == sorted(e.id for e in g.edges)


def test_validate_graph_requires_arrays_and_boolean_flags():
    # A count or a string where an array belongs, and a flag that is not a
    # JSON boolean, are errors rather than a graph read some other way.
    for raw in ({"vertices": 5}, {"vertices": "abc"}, {"vertices": {"v": {}}},
                {"vertices": ["v"], "edges": 7}, {"vertices": ["v"], "edges": "e"}):
        key = "edges" if "edges" in raw else "vertices"
        with pytest.raises(GraphError, match=f"^{key} must be a JSON array$"):
            validate_graph(raw)
    star = [{"id": "u"}, "a", "b"]
    edges = [{"id": "e", "src": "u", "dst": "a"}, {"id": "f", "src": "u", "dst": "b"}]
    for flag in ("false", "true", 0, 1, None, [False]):
        star[0] = {"id": "u", "infinite_emitter": flag}
        with pytest.raises(GraphError, match="infinite_emitter must be true or false"):
            validate_graph({"vertices": star, "edges": edges})
    for flag in (False, True):
        star[0] = {"id": "u", "infinite_emitter": flag}
        g = validate_graph({"vertices": star, "edges": edges})
        assert g.vertex_ids == ("u", "a", "b") and g.is_infinite_emitter("u") is flag


def test_match_patterns():
    assert match_pattern(graph_from_lists(["v"], [])).kind == "E1"
    assert match_pattern(e2_graph()).kind == "E2"
    assert match_pattern(e3_graph()).kind == "E3"
    p = match_pattern(e4_graph(2))
    assert p.kind == "E4" and p.center == "u"
    assert p.sink_count == 2 and not p.infinite
    p = match_pattern(e5_graph(3))
    assert p.kind == "E5" and p.loop_count == 3
    p = match_pattern(e6_graph(2, 2))
    assert p.kind == "E6" and p.sink_count == 2 and p.loop_count == 2
    assert match_pattern(f1_path_graph()).kind is None
    assert match_pattern(rose_graph(2)).kind is None


def test_match_pattern_infinite_flags():
    p = match_pattern(e4_graph(2, flagged=True))
    assert p.kind == "E4" and p.sink_count == 2 and p.infinite
    p = match_pattern(e5_graph(1, flagged=True))
    assert p.kind == "E5" and p.loop_count == 1 and p.infinite
    # a flagged vertex outside a star center disqualifies the shape
    g = graph_from_lists(["v"], [("c", "v", "v")], infinite=["v"])
    assert match_pattern(g).kind is None


def test_pattern_json_puts_the_infinite_flag_on_one_count():
    # The flag of a star center prints on the sinks of E4 and E6 and on the
    # loops of E5; the other count prints as materialized.
    cases = [(e4_graph(2), "E4", 2, 0), (e4_graph(2, flagged=True), "E4", "infinite", 0),
             (e5_graph(3), "E5", 0, 3), (e5_graph(3, flagged=True), "E5", 0, "infinite"),
             (e6_graph(2, 1), "E6", 2, 1), (e6_graph(2, 1, flagged=True), "E6", "infinite", 1)]
    for g, kind, sinks_json, loops_json in cases:
        p = match_pattern(g)
        assert p.to_json_obj() == {"kind": kind, "center": g.vertices[0].id,
                                   "sinks": sinks_json, "loops": loops_json}
    for g in (e2_graph(), e3_graph(), f1_path_graph()):
        obj = match_pattern(g).to_json_obj()
        assert (obj["center"], obj["sinks"], obj["loops"]) == (None, 0, 0)


def test_match_pattern_relabeling_invariance():
    rng = random.Random(5)
    graphs = [e2_graph(), e3_graph(), e4_graph(3), e5_graph(2), e6_graph(1, 2),
              f1_path_graph(), rose_graph(3)]
    for g in graphs:
        base = match_pattern(g)
        for _ in range(10):
            vperm = list(g.vertices)
            eperm = list(g.edges)
            rng.shuffle(vperm)
            rng.shuffle(eperm)
            names = {v.id: f"x{i}" for i, v in enumerate(vperm)}
            g2 = graph_from_lists(
                [names[v.id] for v in vperm],
                [(f"y{i}", names[e.src], names[e.dst]) for i, e in enumerate(eperm)],
                infinite=[names[v.id] for v in vperm if v.infinite_emitter],
            )
            p2 = match_pattern(g2)
            assert p2.kind == base.kind
            assert p2.sink_count == base.sink_count
            assert p2.loop_count == base.loop_count


def test_pattern_match_excludes_witnesses_small_exhaustive():
    # Over every graph with <= 3 vertices and <= 4 edges: a matched pattern
    # never coexists with a cycle-with-exit or an F-shape.
    for nv, edges in corpus_graphs(3, 4):
        g = build_corpus_graph(nv, edges)
        for comp in decompose_components(g):
            if match_pattern(comp).kind is not None:
                assert find_cycle_with_exit(comp) is None
                assert find_forbidden_subgraph(comp) is None


def test_acyclicity():
    assert is_acyclic(e4_graph(3))
    assert is_acyclic(f1_path_graph())
    assert not is_acyclic(e2_graph())
    assert not is_acyclic(e3_graph())


def test_json_round_trip():
    g = e4_graph(2, flagged=True)
    assert validate_graph(g.to_json_obj()) == g
