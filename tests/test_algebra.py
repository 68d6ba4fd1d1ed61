"""Normal form, multiplication, involution, bracket/circle, generator sets,
and matrix-unit verification."""

import hashlib
import random

import pytest

from lpalab import (
    AlgebraError,
    LeavittAlgebra,
    field_from_spec,
    find_cycle_with_exit,
    find_forbidden_subgraph,
    forbidden_embedding_units,
    graph_from_lists,
    solvability_probe,
    verify_matrix_units,
)
from lpalab.algebra import mono_order_key, mono_star
from lpalab.scalars import Z
from helpers import (
    basis_count,
    e1_graph,
    e2_graph,
    e3_graph,
    e4_graph,
    e5_graph,
    element_subspace,
    f1_path_graph,
    f2_graph,
    f3_graph,
    random_element,
    rose_graph,
)

Q = field_from_spec("Q")
F2 = field_from_spec("F2")
F3 = field_from_spec("F3")


def test_normal_form_single_ck2_application():
    alg = LeavittAlgebra(e4_graph(2), Q)
    got = alg.path_pair(["e2"], ["e2"])
    expect = alg.vertex("u") - alg.path_pair(["e1"], ["e1"])
    assert got == expect


def test_normal_form_loop():
    alg = LeavittAlgebra(e2_graph(), Q)
    assert alg.path_pair(["c"], ["c"]) == alg.vertex("v")


def test_normal_form_fixes_basis_monomials():
    alg = LeavittAlgebra(e4_graph(2), Q)
    e1 = alg.edge("e1")
    assert alg.element(e1.terms) == e1
    pair = alg.path_pair(["e1"], ["e1"])
    assert alg.element(pair.terms) == pair


def test_normal_form_idempotent():
    alg = LeavittAlgebra(rose_graph(2), F3)
    rng = random.Random(1)
    for _ in range(50):
        x = random_element(alg, rng)
        assert alg.element(x.terms) == x


def test_malformed_path_pair_rejected():
    alg = LeavittAlgebra(e4_graph(2), Q)
    with pytest.raises(AlgebraError, match="path"):
        alg.path_pair(["e1", "e2"], [])  # e1 ends at u1, e2 starts at u


def test_multiply_ck1():
    alg = LeavittAlgebra(e2_graph(), Q)
    c, cs = alg.edge("c"), alg.ghost("c")
    assert alg.multiply(cs, c) == alg.vertex("v")
    assert alg.multiply(c, alg.multiply(c, cs)) == c


def test_multiply_kronecker_zero():
    alg = LeavittAlgebra(e4_graph(2), Q)
    assert not alg.multiply(alg.ghost("e1"), alg.edge("e2"))
    assert not alg.multiply(alg.edge("e1"), alg.ghost("e2"))


def test_vertices_are_local_units():
    alg = LeavittAlgebra(e4_graph(2), Q)
    u, e1 = alg.vertex("u"), alg.edge("e1")
    assert alg.multiply(u, e1) == e1
    assert alg.multiply(e1, alg.vertex("u1")) == e1
    assert not alg.multiply(alg.vertex("u1"), e1)


def test_associativity_random():
    rng = random.Random(9)
    for g in (e4_graph(2), e2_graph(), rose_graph(2)):
        for fld in (Q, F2):
            alg = LeavittAlgebra(g, fld)
            for _ in range(500 // 2):
                x = random_element(alg, rng, max_weight=4, terms=3)
                y = random_element(alg, rng, max_weight=4, terms=3)
                z = random_element(alg, rng, max_weight=4, terms=3)
                assert alg.multiply(alg.multiply(x, y), z) == alg.multiply(x, alg.multiply(y, z))


def test_involution_examples():
    alg = LeavittAlgebra(e4_graph(2), Q)
    assert alg.involute(alg.edge("e1")) == alg.ghost("e1")
    assert alg.involute(alg.vertex("u")) == alg.vertex("u")
    p = alg.multiply(alg.edge("e1"), alg.ghost("e1"))
    assert alg.involute(p) == p


def test_involution_laws_random():
    rng = random.Random(13)
    for g in (e4_graph(2), rose_graph(2)):
        for fld in (Q, F2, F3):
            alg = LeavittAlgebra(g, fld)
            for _ in range(100):
                x = random_element(alg, rng)
                y = random_element(alg, rng)
                assert alg.involute(alg.involute(x)) == x
                assert alg.involute(alg.multiply(x, y)) == alg.multiply(
                    alg.involute(y), alg.involute(x))


def test_bracket_examples():
    alg = LeavittAlgebra(e2_graph(), Q)
    assert not alg.bracket(alg.edge("c"), alg.ghost("c"))

    flagged = LeavittAlgebra(e4_graph(1, flagged=True), Q)
    x = flagged.edge("e1") - flagged.ghost("e1")
    got = flagged.bracket(x, flagged.vertex("u"))
    assert got == -(flagged.edge("e1") + flagged.ghost("e1"))

    rng = random.Random(17)
    for _ in range(50):
        z = random_element(alg, rng)
        assert not alg.bracket(z, z)


def test_circle_examples():
    alg = LeavittAlgebra(e1_graph(), Q)
    v = alg.vertex("v")
    assert alg.circle(v, v) == alg.scale(Q.from_int(2), v)

    a4 = LeavittAlgebra(e4_graph(2), Q)
    assert not a4.circle(a4.edge("e1"), a4.edge("e2"))

    f2alg = LeavittAlgebra(rose_graph(2), F2)
    rng = random.Random(19)
    for _ in range(100):
        x = random_element(f2alg, rng)
        y = random_element(f2alg, rng)
        assert f2alg.circle(x, y) == f2alg.bracket(x, y)


def test_add_sub_leave_inputs_unchanged():
    # add and sub build their result in a copy of a's terms, because the
    # merge they share writes into its first argument.
    rng = random.Random(8)
    for fld in (F2, F3, Q, Z):
        for g in (rose_graph(2), e4_graph(2), f1_path_graph()):
            alg = LeavittAlgebra(g, fld)
            monos = alg.basis_monomials(3)

            def draw():
                if fld is Z:
                    return alg.element({monos[rng.randrange(len(monos))]: rng.randint(-4, 4)
                                        for _ in range(4)})
                return random_element(alg, rng)

            for _ in range(20):
                a, b = draw(), draw()
                pairs = [(a, b), (a, a), (a, -a), (alg.zero(), b), (a, alg.zero())]
                for x, y in pairs:
                    x_terms, y_terms = dict(x.terms), dict(y.terms)
                    diff = alg.sub(x, y)
                    total = alg.add(x, y)
                    assert diff == alg.add(x, alg.scale(fld.from_int(-1), y))
                    assert total == alg.sub(x, alg.scale(fld.from_int(-1), y))
                    assert x.terms == x_terms and y.terms == y_terms
                    assert diff.terms is not x.terms and total.terms is not x.terms
                    assert not any(fld.is_zero(c) for c in diff.terms.values())
                    assert not any(fld.is_zero(c) for c in total.terms.values())
            assert alg.sub(a, a) == alg.zero()


def test_basis_dimension_e4():
    for n in (1, 2, 3):
        alg = LeavittAlgebra(e4_graph(n), Q)
        assert len(alg.basis_monomials()) == 4 * n


def test_basis_count_matches_enumeration():
    for g in (e4_graph(2), e4_graph(2, flagged=True), rose_graph(3), e3_graph(),
              e5_graph(2)):
        for fld in (Q, F2):
            alg = LeavittAlgebra(g, fld)
            for w in (0, 1, 3, 5):
                assert basis_count(alg, w) == len(alg.basis_monomials(w))
    # The whole basis of an acyclic graph: every path has fewer edges than the
    # graph has vertices, so no basis monomial weighs 2 * |V| or more.
    for g in (e4_graph(3), e4_graph(2, flagged=True), f1_path_graph(), e1_graph()):
        alg = LeavittAlgebra(g, F2)
        whole = alg.basis_monomials()
        assert whole == alg.basis_monomials(2 * len(g.vertices))
        assert len(whole) == basis_count(alg, 2 * len(g.vertices))


@pytest.mark.parametrize("graph", [e3_graph, lambda: rose_graph(2)], ids=["E3", "rose2"])
def test_whole_basis_of_cyclic_graph_raises(graph):
    alg = LeavittAlgebra(graph(), F2)
    with pytest.raises(AlgebraError, match="cycle"):
        alg.basis_monomials()
    with pytest.raises(AlgebraError, match="cycle"):
        alg.paths_by_length()


def test_monomial_order_is_total_and_weight_first():
    alg = LeavittAlgebra(e4_graph(2), Q)
    monos = alg.basis_monomials()
    keys = [mono_order_key(m) for m in monos]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    weights = [len(m[0]) + len(m[1]) for m in monos]
    assert weights == sorted(weights)


def test_skew_generators_examples():
    alg = LeavittAlgebra(e4_graph(2), Q)
    gens = alg.skew_generators(2)
    assert len(gens) == 2
    expect = [alg.edge("e1") - alg.ghost("e1"), alg.edge("e2") - alg.ghost("e2")]
    assert all(e in gens for e in expect)

    f2alg = LeavittAlgebra(e4_graph(2), F2)
    assert len(f2alg.skew_generators(2)) == 6

    assert LeavittAlgebra(e1_graph(), Q).skew_generators(2) == []


def test_symmetric_generators_examples():
    alg = LeavittAlgebra(e1_graph(), Q)
    assert alg.symmetric_generators(2) == [alg.vertex("v")]

    f2alg = LeavittAlgebra(e4_graph(2), F2)
    assert f2alg.symmetric_generators(3) == f2alg.skew_generators(3)

    # n = 1: the spanning set {u, u1, e1 e1*, e1 + e1*} collapses to dimension
    # 3 because e1 e1* rewrites to u.
    a1 = LeavittAlgebra(e4_graph(1), Q)
    gens = a1.symmetric_generators(2)
    spanned = element_subspace(a1, gens)
    assert spanned.dim == 3
    listed = [a1.vertex("u"), a1.vertex("u1"), a1.path_pair(["e1"], ["e1"]),
              a1.edge("e1") + a1.ghost("e1")]
    assert element_subspace(a1, listed).rows == spanned.rows


def test_generators_satisfy_involution_signs():
    for g in (e4_graph(2), rose_graph(2)):
        for fld in (Q, F3):
            alg = LeavittAlgebra(g, fld)
            for x in alg.skew_generators(3):
                assert alg.involute(x) == -x
            for x in alg.symmetric_generators(3):
                assert alg.involute(x) == x


def _first_witness_graphs(rng, per_kind):
    """Seeded random graphs of 2-5 vertices, ``per_kind`` for each kind of
    first witness (a cycle with exit before F1/F2/F3, as classify picks)."""
    found = {kind: [] for kind in ("CycleWithExit", "F1", "F2", "F3")}
    while any(len(gs) < per_kind for gs in found.values()):
        vs = [f"v{i}" for i in range(rng.randint(2, 5))]
        es = [(f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(rng.randint(1, 6))]
        g = graph_from_lists(vs, es)
        w = find_cycle_with_exit(g) or find_forbidden_subgraph(g)
        if w is not None and len(found[w.kind]) < per_kind:
            found[w.kind].append((g, w))
    return [gw for gs in found.values() for gw in gs]


# sha256 over every family's sorted terms, recorded from the per-kind
# hand-written unit tables that the u_ij = p_i p_j* rule replaced.
_UNIT_FAMILY_DIGESTS = {
    "F2": "e69a7fcdc8ec2d93f79e33719c93e207b771bef5661e233d92ef97c121c7c7e0",
    "F3": "36c172262eeff942124e9cb7d8f8b36a4f287ce475384ce2d8c0980d804ef54c",
    "Q": "94a6ca3c75f469b32169efbf3964f221f0306b6cf9275540a306320dd1a2cb48",
}


def test_verify_matrix_units_rose_and_hosts():
    for g, fld in ((rose_graph(2), Q), (rose_graph(2), F2)):
        alg = LeavittAlgebra(g, fld)
        w = find_cycle_with_exit(g)
        units = forbidden_embedding_units(alg, w)
        assert verify_matrix_units(alg, units) == []
    for g in (f1_path_graph(), f2_graph(), f3_graph()):
        alg = LeavittAlgebra(g, Q)
        w = find_forbidden_subgraph(g)
        units = forbidden_embedding_units(alg, w)
        assert verify_matrix_units(alg, units) == []
    graphs = _first_witness_graphs(random.Random(29), 6)
    for spec, digest in _UNIT_FAMILY_DIGESTS.items():
        fld = field_from_spec(spec)
        h = hashlib.sha256()
        for g, w in graphs:
            alg = LeavittAlgebra(g, fld)
            units = forbidden_embedding_units(alg, w)
            assert verify_matrix_units(alg, units) == [], (spec, w)
            h.update(repr(sorted((ij, sorted(u.terms.items()))
                                 for ij, u in units.items())).encode())
        assert h.hexdigest() == digest, spec


def test_verify_matrix_units_negative_control():
    g = f1_path_graph()
    alg = LeavittAlgebra(g, Q)
    units = forbidden_embedding_units(alg, find_forbidden_subgraph(g))
    units[(1, 2)] = alg.zero()
    failures = verify_matrix_units(alg, units)
    assert failures
    assert any("u[12]" in f for f in failures)


def test_star_closed_basis():
    for g in (e4_graph(2), rose_graph(2)):
        alg = LeavittAlgebra(g, Q)
        for m in alg.basis_monomials(4):
            assert alg.is_basis_mono(mono_star(m))


def test_enumeration_independence_of_series():
    # Reordering the declared edges changes the basis but not the series.
    from lpalab import graph_from_lists

    g1 = e4_graph(2)
    g2 = graph_from_lists(["u", "u1", "u2"], [("e2", "u", "u2"), ("e1", "u", "u1")])
    for fld in (Q, F2):
        r1 = solvability_probe(g1, fld, "lie", "exact", max_depth=None)
        r2 = solvability_probe(g2, fld, "lie", "exact", max_depth=None)
        assert r1.dims == r2.dims and r1.vanished_at == r2.vanished_at

    e3a = graph_from_lists(["v", "w"], [("e", "v", "w"), ("f", "w", "v")])
    e3b = graph_from_lists(["w", "v"], [("f", "w", "v"), ("e", "v", "w")])
    for fld in (Q, F2):
        r1 = solvability_probe(e3a, fld, "lie", "truncated", weight=5, max_depth=3)
        r2 = solvability_probe(e3b, fld, "lie", "truncated", weight=5, max_depth=3)
        assert r1.dims == r2.dims


def test_context_mismatch_rejected():
    a = LeavittAlgebra(e4_graph(2), Q)
    b = LeavittAlgebra(e4_graph(2), F2)
    with pytest.raises(AlgebraError, match="context"):
        a.multiply(a.vertex("u"), b.vertex("u"))
