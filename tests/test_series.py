"""Spans, product spans, derived and lower central series, probes, and the
non-solvability certificates."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from lpalab import (
    Element,
    LeavittAlgebra,
    ModeUnavailableError,
    SeriesError,
    SeriesReport,
    Subspace,
    cross_validate,
    field_from_spec,
    find_cycle_with_exit,
    find_forbidden_subgraph,
    format_element,
    graph_from_lists,
    solvability_probe,
    validate_graph,
)
from lpalab.algebra import mono_order_key
from lpalab.matrices import laurent_corner_certificate, nonsolvability_certificate
from lpalab.scalars import Z
from lpalab.series import _run_series
from helpers import (
    e1_graph,
    e2_graph,
    e3_graph,
    e4_graph,
    e5_graph,
    element_pair_op,
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
F5 = field_from_spec("F5")


def test_span_examples():
    alg = LeavittAlgebra(e4_graph(2), Q)
    v = alg.vertex("u")
    s = element_subspace(alg, [v, alg.scale(Fraction(2), v)])
    assert s.dim == 1
    assert element_subspace(alg, []).dim == 0
    monos = alg.basis_monomials()
    s8 = element_subspace(alg, [alg.element({m: Q.one}) for m in monos])
    assert s8.dim == 8


def test_span_canonical_reduced_echelon():
    alg = LeavittAlgebra(e4_graph(2), Q)
    e1, e2 = alg.edge("e1"), alg.edge("e2")
    s1 = element_subspace(alg, [e1 + e2, e2])
    s2 = element_subspace(alg, [e1, e1 + e2, alg.scale(Fraction(3), e2)])
    assert s1 == s2
    assert s1.rows == s2.rows
    # e2 first, then e1 + e2: the e1 row must lose its e2 entry.
    s3 = element_subspace(alg, [e2, e1 + e2])
    assert s3 == s1
    for s in (s1, s2, s3):
        _assert_reduced_echelon(s, mono_order_key)


def _assert_reduced_echelon(s, key):
    """Pivots (least keys) strictly increase down the rows, carry coefficient
    one (over Z: are positive, in a row whose entries have gcd 1), and appear
    in no other row."""
    pivots = [min(row, key=key) for row in s.rows]
    assert all(key(a) < key(b) for a, b in zip(pivots, pivots[1:]))
    for i, (p, row) in enumerate(zip(pivots, s.rows)):
        if s.field is Z:
            assert row[p] > 0 and gcd(*row.values()) == 1
        else:
            assert row[p] == s.field.one
        for j, other in enumerate(s.rows):
            assert j == i or p not in other


def _dense_rref(fld, vectors, key):
    """Gauss-Jordan elimination on dense rows over the columns sorted by key;
    returns the nonzero rows as sparse dicts."""
    cols = sorted({k for v in vectors for k in v}, key=key)
    rows = [[v.get(k, fld.zero) for k in cols] for v in vectors]
    rank = 0
    for c in range(len(cols)):
        hit = next((i for i in range(rank, len(rows)) if not fld.is_zero(rows[i][c])), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = fld.inv(rows[rank][c])
        rows[rank] = [fld.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not fld.is_zero(rows[i][c]):
                m = rows[i][c]
                rows[i] = [fld.sub(x, fld.mul(m, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return [{k: x for k, x in zip(cols, row) if not fld.is_zero(x)} for row in rows[:rank]]


def _random_vectors(fld, rng, keys, count):
    """Sparse vectors over keys, about a third of them combinations of
    earlier ones so that some inserts are rejected."""
    out = []
    for _ in range(count):
        if out and rng.random() < 0.35:
            v: dict = {}
            for w in rng.sample(out, min(len(out), rng.randint(1, 3))):
                c = fld.from_int(rng.randint(1, 4))
                for k, x in w.items():
                    s = fld.add(v.get(k, fld.zero), fld.mul(c, x))
                    if fld.is_zero(s):
                        v.pop(k, None)
                    else:
                        v[k] = s
        else:
            v = {}
            for k in rng.sample(keys, rng.randint(1, 5)):
                c = fld.from_int(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
                if not fld.is_zero(c):
                    v[k] = c
        out.append(v)
    return [v for v in out if v]


def test_subspace_against_dense_gauss_jordan():
    rng = random.Random(20260)
    monos = LeavittAlgebra(rose_graph(2), F2).basis_monomials(3)
    entries = [(i, j) for i in range(4) for j in range(4)]
    entries += [(i, j, e) for i in range(2) for j in range(2) for e in range(-2, 3)]
    for fld in (F2, F3, Q):
        for keys, key in ((monos, mono_order_key), (entries, None)):
            sort_key = key or (lambda k: k)
            for _ in range(12):
                vectors = _random_vectors(fld, rng, keys, rng.randint(1, 14))
                s = Subspace(fld, key)
                for i, v in enumerate(vectors):
                    grew = s.insert(v)
                    assert grew == (len(_dense_rref(fld, vectors[: i + 1], sort_key))
                                    > len(_dense_rref(fld, vectors[:i], sort_key)))
                oracle = _dense_rref(fld, vectors, sort_key)
                assert s.rows == oracle
                assert s.dim == len(oracle)
                _assert_reduced_echelon(s, sort_key)
                for probe in _random_vectors(fld, rng, keys, 6):
                    assert (not s.reduce(probe)) == (
                        len(_dense_rref(fld, vectors + [probe], sort_key)) == len(oracle))
                for v in vectors:
                    assert not s.reduce(v)
    # Over Z the rows are the oracle's rows over Q, each scaled to integers
    # with gcd 1 and a positive pivot.
    for keys, key in ((monos, mono_order_key), (entries, None)):
        sort_key = key or (lambda k: k)
        for _ in range(12):
            vectors = _random_vectors(Z, rng, keys, rng.randint(1, 14))
            rational = [{k: Fraction(c) for k, c in v.items()} for v in vectors]
            s = Subspace(Z, key)
            for i, v in enumerate(vectors):
                grew = s.insert(v)
                assert grew == (len(_dense_rref(Q, rational[: i + 1], sort_key))
                                > len(_dense_rref(Q, rational[:i], sort_key)))
            oracle = [_primitive_row(row) for row in _dense_rref(Q, rational, sort_key)]
            assert s.rows == oracle
            assert all(type(c) is int for row in s.rows for c in row.values())
            assert s.dim == len(oracle)
            _assert_reduced_echelon(s, sort_key)
            for probe in _random_vectors(Z, rng, keys, 6):
                extended = rational + [{k: Fraction(c) for k, c in probe.items()}]
                assert (not s.reduce(probe)) == (len(_dense_rref(Q, extended, sort_key))
                                                 == len(oracle))
            for v in vectors:
                assert not s.reduce(v)


def _primitive_row(row: dict) -> dict:
    """A monic rational row scaled to integers with gcd 1 and a positive
    pivot."""
    den = lcm(*[c.denominator for c in row.values()])
    ints = {k: int(c * den) for k, c in row.items()}
    g = gcd(*ints.values())
    return {k: c // g for k, c in ints.items()}


def test_product_span_examples():
    alg = LeavittAlgebra(e4_graph(2), Q)
    from lpalab import product_span

    S = element_subspace(alg, alg.skew_generators(2))
    op = element_pair_op(alg.bracket)
    assert product_span(S, S, op, same=True).dim == 0

    zero = element_subspace(alg, [])
    assert product_span(zero, S, op).dim == 0

    f2alg = LeavittAlgebra(rose_graph(2), F2)
    rng = random.Random(23)
    rows = [random_element(f2alg, rng) for _ in range(4)]
    S2 = element_subspace(f2alg, rows)
    br = element_pair_op(f2alg.bracket)
    ci = element_pair_op(f2alg.circle)
    assert product_span(S2, S2, br, same=True) == product_span(S2, S2, ci, same=True,
                                                               symmetric=True)


def test_derived_series_e4_char2():
    rep = solvability_probe(e4_graph(2), F2, "lie", "exact")
    assert rep.dims == [6, 2, 0]
    assert rep.vanished_at == 2


def test_exact_mode_dims_non_increasing():
    # With the full skew part as the start, each derived step sits inside the
    # previous one, so the dimensions cannot rise.
    for g in (e4_graph(3), f1_path_graph()):
        for fld in (Q, F2, F3):
            rep = solvability_probe(g, fld, "lie", "exact", max_depth=None)
            assert all(a >= b for a, b in zip(rep.dims, rep.dims[1:]))


EXACT_GRAPHS = {
    "E1": e1_graph,
    "E4(1)": lambda: e4_graph(1),
    "E4(2)": lambda: e4_graph(2),
    "E4(3)": lambda: e4_graph(3),
    "E4(2) flagged": lambda: e4_graph(2, flagged=True),
    "F1": f1_path_graph,
    "F2": f2_graph,
    "F3": f3_graph,
}


@pytest.mark.parametrize("structure", ["lie", "jordan"])
@pytest.mark.parametrize("fld", [F2, F3, Q], ids=repr)
@pytest.mark.parametrize("name", EXACT_GRAPHS)
def test_exact_probe_runs_complete_series_whatever_depth(name, fld, structure):
    # Exact mode reads neither bound: the whole basis, and the series until it
    # vanishes or repeats.
    g = EXACT_GRAPHS[name]()
    complete = solvability_probe(g, fld, structure, "exact", max_depth=None)
    assert complete.vanished_at is not None or complete.stabilized
    capped = solvability_probe(g, fld, structure, "exact", weight=0, max_depth=1)
    assert (capped.dims, capped.vanished_at, capped.stabilized, capped.witness_text) == (
        complete.dims, complete.vanished_at, complete.stabilized, complete.witness_text)
    assert capped.to_json_obj() == complete.to_json_obj()


def test_derived_series_zero_start():
    alg = LeavittAlgebra(e1_graph(), Q)
    S0 = element_subspace(alg, [])
    dims, vanished, _, _ = _run_series(S0, element_pair_op(alg.bracket), 5)
    assert vanished == 0 and dims == [0]


def test_flagged_e4_derived_series_against_bruteforce_oracle():
    """Independent oracle: hand-built multiplication table for the flagged E4
    with two materialized edges over F2, naive GF(2) elimination.  The direct
    series lands at index 2, one below the tabulated infinite-emitter value;
    the workbench must reproduce the oracle, not the table."""
    names = ["u", "u1", "u2", "e1", "e2", "e1*", "e2*", "e1e1*", "e2e2*"]
    left = [0, 1, 2, 0, 0, 1, 2, 0, 0]
    right = [0, 1, 2, 1, 2, 0, 0, 0, 0]
    table = {
        ("u", "u"): "u", ("u1", "u1"): "u1", ("u2", "u2"): "u2",
        ("u", "e1"): "e1", ("u", "e2"): "e2", ("e1", "u1"): "e1", ("e2", "u2"): "e2",
        ("u1", "e1*"): "e1*", ("u2", "e2*"): "e2*", ("e1*", "u"): "e1*",
        ("e2*", "u"): "e2*",
        ("u", "e1e1*"): "e1e1*", ("u", "e2e2*"): "e2e2*",
        ("e1e1*", "u"): "e1e1*", ("e2e2*", "u"): "e2e2*",
        ("e1", "e1*"): "e1e1*", ("e2", "e2*"): "e2e2*",
        ("e1*", "e1"): "u1", ("e2*", "e2"): "u2",
        ("e1e1*", "e1"): "e1", ("e2e2*", "e2"): "e2",
        ("e1*", "e1e1*"): "e1*", ("e2*", "e2e2*"): "e2*",
        ("e1e1*", "e1e1*"): "e1e1*", ("e2e2*", "e2e2*"): "e2e2*",
    }

    def mul(i, j):
        if right[i] != left[j]:
            return {}
        key = table.get((names[i], names[j]))
        return {names.index(key): 1} if key else {}

    def add(a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = (out.get(k, 0) + v) % 2
            if not out[k]:
                del out[k]
        return out

    def emul(x, y):
        out = {}
        for i in x:
            for j in y:
                out = add(out, mul(i, j))
        return out

    def bra(x, y):
        return add(emul(x, y), emul(y, x))

    def echelon(rows):
        basis = []
        for r in rows:
            r = dict(r)
            changed = True
            while changed and r:
                changed = False
                for b in basis:
                    if min(b) in r:
                        r = add(r, b)
                        changed = True
            if r:
                basis.append(r)
                basis.sort(key=min)
        return basis

    S = echelon([{0: 1}, {1: 1}, {2: 1}, {7: 1}, {8: 1}, {3: 1, 5: 1}, {4: 1, 6: 1}])
    dims = [len(S)]
    while S:
        nxt = []
        for i in range(len(S)):
            for j in range(i + 1, len(S)):
                v = bra(S[i], S[j])
                if v:
                    nxt.append(v)
        S = echelon(nxt)
        dims.append(len(S))
    assert dims == [7, 2, 0]

    rep = solvability_probe(e4_graph(2, flagged=True), F2, "lie", "exact")
    assert rep.dims == dims and rep.vanished_at == 2


def test_flagged_e4_char0_is_abelian():
    rep = solvability_probe(e4_graph(2, flagged=True), Q, "lie", "exact")
    assert rep.dims == [2, 0] and rep.vanished_at == 1


def test_lower_central_flagged_witness():
    # [x, u], [[x, u], u], ... with x = e1 - e1* alternates between
    # -(e1 + e1*) and e1 - e1* and never dies.
    alg = LeavittAlgebra(e4_graph(1, flagged=True), Q)
    x = alg.edge("e1") - alg.ghost("e1")
    u = alg.vertex("u")
    t = x
    for m in range(1, 11):
        t = alg.bracket(t, u)
        sign = Q.from_int((-1) ** m)
        assert t == alg.scale(sign, alg.edge("e1")) - alg.ghost("e1")
        assert t

    S0 = element_subspace(alg, [x, u])
    dims, vanished, _, _ = _run_series(S0, element_pair_op(alg.bracket), 10,
                                       lower_central=True)
    assert vanished is None
    assert all(d > 0 for d in dims)


def test_lower_central_commutative_vanishes():
    alg = LeavittAlgebra(e2_graph(), Q)
    S0 = element_subspace(alg, alg.skew_generators(6))
    _, vanished, _, _ = _run_series(S0, element_pair_op(alg.bracket), 5, lower_central=True)
    assert vanished == 1

    zero = element_subspace(alg, [])
    _, vanished, _, _ = _run_series(zero, element_pair_op(alg.bracket), 5, lower_central=True)
    assert vanished == 0


def test_probe_e3_char2_vanishes_exactly_at_3():
    rep = solvability_probe(e3_graph(), F2, "lie", "truncated", weight=6, max_depth=5)
    assert rep.vanished_at == 3
    assert rep.dims[2] > 0
    assert rep.caveat is not None


def test_probe_e3_char_not_2_stays_nonzero():
    rep = solvability_probe(e3_graph(), F3, "lie", "truncated", weight=8, max_depth=4)
    assert rep.vanished_at is None and all(d > 0 for d in rep.dims)
    rep = solvability_probe(e3_graph(), Q, "lie", "truncated", weight=6, max_depth=3)
    assert rep.vanished_at is None and all(d > 0 for d in rep.dims)


def test_probe_e1():
    assert solvability_probe(e1_graph(), Q, "lie", "exact").vanished_at == 0
    rep = solvability_probe(e1_graph(), F2, "lie", "exact")
    assert rep.dims == [1, 0] and rep.vanished_at == 1


def test_probe_exact_requires_acyclic():
    with pytest.raises(SeriesError, match="acyclic"):
        solvability_probe(e2_graph(), Q, "lie", "exact")
    with pytest.raises(ModeUnavailableError):
        solvability_probe(e2_graph(), Q, "lie", "exact")
    with pytest.raises(ModeUnavailableError):
        cross_validate(e2_graph(), Q, mode="exact")


def _shuffled_graph(nv, edges, flagged, rng):
    """Graph on vertices v0.. and edges e0.. with both declaration orders
    shuffled; flagged names the infinite emitter, if any."""
    vertices = [{"id": f"v{i}", "infinite_emitter": i == flagged} for i in range(nv)]
    es = [{"id": f"e{k}", "src": f"v{s}", "dst": f"v{d}"} for k, (s, d) in enumerate(edges)]
    rng.shuffle(vertices)
    rng.shuffle(es)
    return validate_graph({"vertices": vertices, "edges": es})


@pytest.mark.parametrize("nv, edges, flagged, fld", [
    (4, [(0, 1), (0, 1), (0, 2), (2, 1), (2, 1)], 0, F2),
    (3, [(0, 1), (0, 1), (1, 2), (1, 2)], None, F2),
    (4, [(0, 1), (0, 1), (0, 1), (2, 0)], None, Q),
])
def test_exact_fixed_point_independent_of_declaration_order(nv, edges, flagged, fld):
    # Non-solvable acyclic graphs: the derived series reaches a nonzero fixed
    # point, which an exact reduced echelon form detects at its first repeat
    # whatever order the vertices and edges are declared in.
    runs = []
    for seed in range(6):
        g = _shuffled_graph(nv, edges, flagged, random.Random(seed))
        rep = solvability_probe(g, fld, "lie", "exact", max_depth=None)
        assert rep.vanished_at is None and rep.stabilized
        runs.append(rep.dims)
    dims = runs[0]
    assert all(d == dims for d in runs)
    assert dims[-1] == dims[-2] > 0
    assert all(a != b for a, b in zip(dims[:-2], dims[1:-1]))


def _reference_probe(g, fld, structure, mode, weight, max_depth):
    """What solvability_probe computes, run on whole rows: the series of the
    full skew or symmetric span with one bracket or circle per pair, over
    fld itself (monic Fraction rows over Q), its witness formatted as is."""
    alg = LeavittAlgebra(g, fld)
    bound = None if mode == "exact" else weight
    if structure == "lie":
        gens, op = alg.skew_generators(bound), alg.bracket
    else:
        gens, op = alg.symmetric_generators(bound), alg.circle
    S0 = element_subspace(alg, gens)
    assert S0.field is fld
    dims, vanished, witness, stabilized = _run_series(
        S0, element_pair_op(op), max_depth, symmetric_op=structure == "jordan")
    return SeriesReport(
        "derived" if structure == "lie" else "jordan_derived", mode, dims, vanished,
        None if witness is None else format_element(Element(alg, witness)), stabilized,
        None if mode == "exact" else weight,
    )


def _assert_probe_matches_reference(g, fld, structure, mode, weight, max_depth):
    got = solvability_probe(g, fld, structure, mode, weight=weight, max_depth=max_depth)
    want = _reference_probe(g, fld, structure, mode, weight, max_depth)
    assert (got.dims, got.vanished_at, got.stabilized, got.witness_text) == (
        want.dims, want.vanished_at, want.stabilized, want.witness_text)
    assert got.to_json_obj() == want.to_json_obj()
    return got


def _assert_random_acyclic_probes_match_reference(fld):
    # Seeded random acyclic graphs, declaration order shuffled, with and
    # without an infinite emitter; exact and truncated, Lie and Jordan.
    rng = random.Random(6)
    outcomes = set()
    for _ in range(14):
        nv = rng.randint(2, 4)
        forward = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        edges = [rng.choice(forward) for _ in range(rng.randint(1, 5))]
        flagged = rng.choice([None] + sorted({a for a, _ in edges}))
        g = _shuffled_graph(nv, edges, flagged, rng)
        for structure in ("lie", "jordan"):
            for mode, weight, depth in (("exact", 6, None), ("truncated", 2, 3),
                                        ("truncated", 3, 1)):
                rep = _assert_probe_matches_reference(g, fld, structure, mode, weight, depth)
                outcomes.add((rep.vanished_at is not None, rep.stabilized))
    # Vanishing, stabilizing and depth-capped series all occurred.
    assert outcomes == {(True, False), (False, True), (False, False)}


def test_probe_over_q_matches_fraction_reference_acyclic():
    _assert_random_acyclic_probes_match_reference(Q)


@pytest.mark.parametrize("fld", [F2, F3, F5], ids=repr)
def test_half_row_probe_matches_full_row_reference_acyclic(fld):
    # The probe keeps each row on the monomials m <= m*; the reference keeps
    # whole rows.  F2 has fixed monomials in skew rows, F3 and F5 negate.
    _assert_random_acyclic_probes_match_reference(fld)


CYCLIC = {"E3": e3_graph, "rose2": lambda: rose_graph(2), "E5(1)": lambda: e5_graph(1)}


@pytest.mark.parametrize("name, structure, weight, depth, fractional", [
    ("E3", "lie", 4, 3, True),
    ("E3", "jordan", 4, 3, False),
    ("rose2", "lie", 1, 2, False),
    ("rose2", "lie", 3, 1, False),
    ("rose2", "jordan", 2, 1, False),
    ("E5(1)", "lie", 3, 3, True),
    ("E5(1)", "jordan", 3, 3, False),
])
def test_probe_over_q_matches_fraction_reference_cyclic(name, structure, weight, depth,
                                                        fractional):
    rep = _assert_probe_matches_reference(CYCLIC[name](), Q, structure, "truncated", weight,
                                          depth)
    # The Lie witnesses carry non-integer coefficients once made monic.
    assert ("/" in rep.witness_text) == fractional


@pytest.mark.parametrize("fld", [F2, F3, F5], ids=repr)
@pytest.mark.parametrize("name, structure, weight, depth", [
    ("E3", "lie", 4, 3),
    ("E3", "jordan", 4, 3),
    ("rose2", "lie", 1, 2),
    ("rose2", "jordan", 2, 1),
    ("E5(1)", "lie", 3, 3),
    ("E5(1)", "jordan", 3, 3),
])
def test_half_row_probe_matches_full_row_reference_cyclic(name, structure, weight, depth, fld):
    _assert_probe_matches_reference(CYCLIC[name](), fld, structure, "truncated", weight, depth)


def test_truncation_monotone_in_weight():
    for fld in (F2, Q):
        d4 = solvability_probe(e3_graph(), fld, "lie", "truncated", weight=4,
                               max_depth=3).dims
        d6 = solvability_probe(e3_graph(), fld, "lie", "truncated", weight=6,
                               max_depth=3).dims
        for a, b in zip(d4, d6):
            assert a <= b


def test_direct_sum_dims_add():
    g1 = e4_graph(1)
    g2 = e4_graph(3)
    both = graph_from_lists(
        ["u", "u1", "w", "w1", "w2", "w3"],
        [("e1", "u", "u1"), ("f1", "w", "w1"), ("f2", "w", "w2"), ("f3", "w", "w3")],
    )
    for fld in (F2, F3):
        r1 = solvability_probe(g1, fld, "lie", "exact", max_depth=4).dims
        r2 = solvability_probe(g2, fld, "lie", "exact", max_depth=4).dims
        rb = solvability_probe(both, fld, "lie", "exact", max_depth=4).dims
        n = max(len(r1), len(r2), len(rb))
        pad = lambda d: d + [0] * (n - len(d))
        assert pad(rb) == [a + b for a, b in zip(pad(r1), pad(r2))]


def test_jordan_char2_equals_lie():
    g = e4_graph(2)
    lie = solvability_probe(g, F2, "lie", "exact")
    jor = solvability_probe(g, F2, "jordan", "exact")
    assert lie.dims == jor.dims and lie.vanished_at == jor.vanished_at


def test_jordan_vertex_powers_never_vanish():
    alg = LeavittAlgebra(e4_graph(2), Q)
    v = alg.vertex("u")
    x = v
    key = next(iter(v.terms))
    for m in range(1, 31):
        x = alg.circle(x, v)
        assert x.terms[key] == Fraction(2) ** m


def test_nonsolvability_certificate():
    for g in (rose_graph(2), f1_path_graph()):
        w = find_cycle_with_exit(g) or find_forbidden_subgraph(g)
        for fld in (Q, F2, F3):
            chain = nonsolvability_certificate(g, fld, w, depth=4)
            assert len(chain) == 4
            alg = chain[0].algebra
            for x in chain:
                assert x
                assert alg.involute(x) == -x


def test_laurent_corner_certificate():
    chain = laurent_corner_certificate(e3_graph(), Q, "e", ["f", "e"], depth=4)
    assert len(chain) == 4 and all(chain)
    chain = laurent_corner_certificate(e5_graph(1), F3, "f1", ["c1"], depth=3)
    assert all(chain)
    with pytest.raises(SeriesError, match="characteristic"):
        laurent_corner_certificate(e3_graph(), F2, "e", ["f", "e"])


def test_generic_subspace_over_plain_keys():
    s = Subspace(Q)
    assert s.insert({(0,): Fraction(2)})
    assert not s.insert({(0,): Fraction(5)})
    assert s.insert({(1,): Fraction(1), (0,): Fraction(1)})
    assert s.dim == 2
    assert not s.reduce({(0,): Fraction(7), (1,): Fraction(7)})


@pytest.mark.parametrize("mode, vanished_at, stabilized, caveat", [
    ("truncated", 3, False,
     "truncated computation: a vanishing step bounds nothing; nonzero steps are sound"),
    ("truncated", None, False,
     "truncated computation: nonzero steps are sound lower-bound evidence"),
    ("exact", None, True, "series reached a fixed nonzero subspace; it never vanishes"),
    ("exact", 2, False, None),
])
def test_series_report_sets_its_caveat(mode, vanished_at, stabilized, caveat):
    # The caveat is fixed by the mode and the result; no caller passes one.
    rep = SeriesReport("derived", mode, [4, 2], vanished_at, None, stabilized)
    assert rep.caveat == caveat
    assert rep.to_json_obj()["caveat"] == caveat
