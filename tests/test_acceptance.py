"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  All arithmetic is exact, so comparisons are exact equality."""

import random
import time
from fractions import Fraction

from lpalab import (
    LaurentRing,
    LeavittAlgebra,
    classify,
    field_from_spec,
    find_cycle_with_exit,
    find_forbidden_subgraph,
    forbidden_embedding_units,
    is_acyclic,
    solvability_probe,
)
from lpalab.matrices import (
    MatrixRingCtx,
    char2_laurent_index3_check,
    laurent_corner_certificate,
    nonsolvability_certificate,
    witness_laurent_nonsolvable,
    witness_nge3,
    witness_nilpotent_char2,
)
from helpers import (
    basis_count,
    build_corpus_graph,
    corpus_graphs,
    e1_graph,
    e2_graph,
    e3_graph,
    e4_graph,
    f1_path_graph,
    f2_graph,
    f3_graph,
    random_element,
    rose_graph,
    verify_matrix_units,
)

Q = field_from_spec("Q")
F2 = field_from_spec("F2")
F3 = field_from_spec("F3")
F5 = field_from_spec("F5")


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_matrix_unit_embeddings():
    t0 = time.time()
    failures = []
    rose = rose_graph(2)
    for fld in (Q, F2):
        alg = LeavittAlgebra(rose, fld)
        units = forbidden_embedding_units(alg, find_cycle_with_exit(rose))
        failures += verify_matrix_units(alg, units)
    for g in (f1_path_graph(), f2_graph(), f3_graph()):
        alg = LeavittAlgebra(g, Q)
        units = forbidden_embedding_units(alg, find_forbidden_subgraph(g))
        failures += verify_matrix_units(alg, units)
    dt = time.time() - t0
    _report(1, not failures and dt < 1.0,
            f"81 products + idempotent + star compatibility, {dt:.2f}s")


def test_criterion_02_basis_dimension():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        alg = LeavittAlgebra(e4_graph(n), Q)
        dim = len(alg.basis_monomials())
        matrix_side = n * 4  # n summands of 2x2 matrices
        ok = ok and dim == 4 * n == matrix_side
    dt = time.time() - t0
    _report(2, ok and dt < 1.0, f"dim L(E4,n) = 4n for n in 1..3, {dt:.2f}s")


def _span_rows(vectors, p):
    """Echelon rows spanning `vectors` over F_p, or over Q when p = 0."""
    rows = []  # (pivot, row) with row[pivot] == 1
    for v in vectors:
        v = [x % p for x in v] if p else list(v)
        for piv, r in rows:
            c = v[piv]
            if c:
                v = [(x - c * y) % p if p else x - c * y for x, y in zip(v, r)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            inv = pow(v[piv], -1, p) if p else 1 / Fraction(v[piv])
            rows.append((piv, [x * inv % p if p else x * inv for x in v]))
    return [r for _, r in rows]


def _skew_matrix_index(n, p):
    """Derived-series index of the skew part {A : A^T = -A} of M_n(K), K of
    characteristic p, on explicit flattened n x n matrices: the smallest k
    whose k-th derived step is zero, or None if the series stabilises."""
    def unit(*entries):
        m = [0] * (n * n)
        for i, j, c in entries:
            m[i * n + j] = c
        return m

    def bracket(a, b):
        return [sum(a[i * n + k] * b[k * n + j] - b[i * n + k] * a[k * n + j]
                    for k in range(n)) for i in range(n) for j in range(n)]

    gens = [unit((i, j, 1), (j, i, -1)) for i in range(n) for j in range(i + 1, n)]
    if p == 2:  # 2 = 0, so the diagonal is skew as well
        gens += [unit((i, i, 1)) for i in range(n)]
    step, k = _span_rows(gens, p), 0
    while step:
        nxt = _span_rows([bracket(a, b) for a in step for b in step], p)
        if len(nxt) == len(step):
            return None
        step, k = nxt, k + 1
    return k


def test_criterion_03_index_table_exact_mode():
    """Exact mode gets every cell of the E4 index table right.

    By the *-isomorphism L(E) = sum over sinks and flagged vertices v of
    M_{n(v)}(K), involution to transpose (Abrams, Aranda Pino, Siles Molina,
    JPAA 209, 2007), E4 with n edges is M_2(K)^n, and with an infinite-emitter
    flag on its center M_2(K)^n + M_1(K) (the extra block is the idempotent
    u - sum e_i e_i*).  The index of a direct sum is the maximum over blocks,
    so every cell's expectation is derived here from skew M_2 and skew M_1 on
    explicit matrices, never from the probe.  The finite column of the table
    equals it; the tabulated infinite-emitter column, which `classify`
    reports, sits exactly one above it and carries a caveat."""
    t0 = time.time()
    expected = {
        (False, "F2"): 2, (False, "F3"): 1, (False, "Q"): 1,
        (True, "F2"): 3, (True, "F3"): 2, (True, "Q"): 2,
    }
    computed, derived, problems = {}, {}, []
    for name, fld in (("F2", F2), ("F3", F3), ("Q", Q)):
        p = fld.characteristic
        for flagged in (False, True):
            key = (flagged, name)
            extra = [1] if flagged else []
            derived[key] = max(_skew_matrix_index(b, p) for b in [2] + extra)
            seen = set()
            for n in (1, 2, 3):
                g = e4_graph(n, flagged=flagged)
                dim = len(LeavittAlgebra(g, fld).basis_monomials())
                if dim != sum(b * b for b in [2] * n + extra):
                    problems.append(f"{key} n={n}: dim {dim} does not match the blocks")
                seen.add(solvability_probe(g, fld, "lie", "exact").vanished_at)
            computed[key] = seen.pop() if len(seen) == 1 else tuple(sorted(seen))
            if computed[key] != derived[key]:
                problems.append(f"{key}: computed {computed[key]} != derived {derived[key]}")
            verdict = classify(e4_graph(2, flagged=flagged), p)
            if verdict.lie_index != expected[key]:
                problems.append(f"{key}: classify gives {verdict.lie_index}, table {expected[key]}")
            if expected[key] != derived[key] + flagged:
                problems.append(f"{key}: table {expected[key]} is not block index + {int(flagged)}")
            if flagged and not any("infinite-emitter star" in c for c in verdict.caveats):
                problems.append(f"{key}: classify gives no infinite-emitter caveat")
    cells = "; ".join(
        f"{'infinite' if flagged else 'finite'}/{name} "
        f"{expected[flagged, name]}/{computed[flagged, name]}/{derived[flagged, name]}"
        for flagged, name in expected)
    offset = {name: expected[True, name] - derived[True, name] for name in ("F2", "F3", "Q")}
    dt = time.time() - t0
    _report(3, not problems and dt < 5.0,
            f"E4 index tabulated/computed/derived from blocks M_2^n (+ M_1 when "
            f"flagged): {cells}; infinite-emitter column minus block index {offset}; "
            f"problems: {problems or 'none'}, {dt:.2f}s")


def test_criterion_04_e1_e3_verdicts():
    t0 = time.time()
    ok = True
    details = []
    for fld in (Q, F2, F3, F5):
        rep = solvability_probe(e1_graph(), fld, "lie", "exact")
        ok = ok and rep.vanished_at is not None and rep.vanished_at <= 1
        rep = solvability_probe(e2_graph(), fld, "lie", "truncated", weight=6, max_depth=3)
        ok = ok and rep.vanished_at is not None and rep.vanished_at <= 1
    rep = solvability_probe(e3_graph(), F2, "lie", "truncated", weight=6, max_depth=5)
    ok = ok and rep.vanished_at == 3
    details.append(f"E3/F2 dims {rep.dims}")
    for fld in (Q, F3):
        rep = solvability_probe(e3_graph(), fld, "lie", "truncated", weight=8, max_depth=4)
        ok = ok and rep.vanished_at is None and all(d > 0 for d in rep.dims[:5])
        details.append(f"E3/{fld!r} dims {rep.dims}")
    dt = time.time() - t0
    _report(4, ok and dt < 60.0, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_05_nge3_witnesses():
    t0 = time.time()
    r1 = witness_nge3(MatrixRingCtx(3, Q), Q.one, Q.zero, Q.one, 20)
    r2 = witness_nge3(MatrixRingCtx(3, F3), 1, 0, 1, 20)
    r3 = witness_nge3(MatrixRingCtx(3, Q), Q.one, Q.one, Q.one, 8)
    ok = r1.ok and r2.ok and r3.ok
    dt = time.time() - t0
    _report(5, ok and dt < 5.0,
            f"Q and F3 runs to m=20 plus a growing Q run to m=8, {dt:.2f}s")


def test_criterion_06_char2_nilpotency_witness():
    t0 = time.time()
    rep = witness_nilpotent_char2(F2, 10)
    dt = time.time() - t0
    _report(6, rep.ok and dt < 1.0, f"iterated bracket constant for 10 steps, {dt:.2f}s")


def test_criterion_07_char2_laurent_solvability():
    t0 = time.time()
    rep = char2_laurent_index3_check(1000, 3, 42)
    dt = time.time() - t0
    _report(7, rep.ok and dt < 30.0,
            f"1000 seeded samples, zero failures, sharpness nonzero, {dt:.1f}s")


def test_criterion_08_laurent_nonsolvable_witness():
    t0 = time.time()
    ring = LaurentRing(Q)
    u = ring.sub(ring.x(), ring.x_inv())
    rep = witness_laurent_nonsolvable(ring, u, 6)
    dt = time.time() - t0
    _report(8, rep.ok and dt < 5.0,
            f"v' = 4v^3 chain nonzero to m=6 (degree 3^5), {dt:.2f}s")


def test_criterion_09_jordan_claims():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    alg = LeavittAlgebra(rose_graph(2), F2)
    for _ in range(500):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        ok = ok and alg.circle(x, y) == alg.bracket(x, y)
    for g in (e4_graph(2), e3_graph()):
        a = LeavittAlgebra(g, F2)
        ok = ok and a.symmetric_generators(4) == a.skew_generators(4)
    aq = LeavittAlgebra(e4_graph(1), Q)
    v = aq.vertex("u")
    key = next(iter(v.terms))
    x = v
    for m in range(1, 31):
        x = aq.circle(x, v)
        ok = ok and x.terms.get(key) == Fraction(2) ** m
    dt = time.time() - t0
    _report(9, ok and dt < 10.0,
            f"circle = bracket on 500 pairs, S = K, 2^m vertex chain to m=30, {dt:.1f}s")


def _adaptive_weight(alg, start=6, cap=220):
    w = start
    while w > 1 and basis_count(alg, w) > cap:
        w -= 1
    return w


def _corner_plan(verdict):
    for cid, comp, pat in verdict.components:
        if pat.kind == "E3":
            e0, e1 = comp.edges[0], comp.edges[1]
            return comp, e0.id, [e1.id, e0.id]
        if pat.kind in ("E5", "E6"):
            loops = {e.src: e.id for e in comp.edges if e.src == e.dst}
            for e in comp.edges:
                if e.src != e.dst and e.dst in loops:
                    return comp, e.id, [loops[e.dst]]
    return None


def test_criterion_10_exhaustive_small_graph_consistency():
    """Classifier vs computation over every graph with <= 4 vertices and
    <= 5 edges (one representative per labeling class), characteristics
    0, 2, 3.  Acyclic graphs get the complete exact comparison; cyclic
    solvable graphs get the truncated sound-direction check; cyclic
    non-solvable graphs get a checked nonzero chain through derived step 3
    (dense cyclic graphs make the full weight-6 span intractable, and the
    certificate chain is the sound replacement in exactly those cases)."""
    t0 = time.time()
    graphs = corpus_graphs(4, 5)
    bad = []
    counts = {"exact": 0, "sound": 0, "certificate": 0}
    for nv, edges in graphs:
        g = build_corpus_graph(nv, edges)
        acyclic = is_acyclic(g)
        for fld in (Q, F2, F3):
            verdict = classify(g, fld.characteristic)
            predicted = verdict.lie_index if verdict.lie_solvable else None
            if acyclic:
                rep = solvability_probe(g, fld, "lie", "exact", max_depth=None)
                agree = (rep.vanished_at == predicted) if verdict.lie_solvable \
                    else (rep.vanished_at is None)
                counts["exact"] += 1
                if not agree:
                    bad.append((nv, edges, fld.characteristic, predicted, rep.dims))
            elif verdict.lie_solvable:
                alg = LeavittAlgebra(g, fld)
                rep = solvability_probe(g, fld, "lie", "truncated",
                                        weight=_adaptive_weight(alg),
                                        max_depth=predicted + 1)
                counts["sound"] += 1
                if any(d > 0 for k, d in enumerate(rep.dims) if k >= predicted):
                    bad.append((nv, edges, fld.characteristic, predicted, rep.dims))
            else:
                counts["certificate"] += 1
                try:
                    if verdict.witnesses:
                        chain = nonsolvability_certificate(g, fld, verdict.witnesses[0], 3)
                    else:
                        comp, p, cyc = _corner_plan(verdict)
                        chain = laurent_corner_certificate(comp, fld, p, cyc, 3)
                    if any(not x for x in chain):
                        bad.append((nv, edges, fld.characteristic, "zero in chain", None))
                except Exception as exc:  # noqa: BLE001 - report, do not mask
                    bad.append((nv, edges, fld.characteristic, f"error {exc}", None))
    dt = time.time() - t0
    _report(10, not bad and dt < 600.0,
            f"{len(graphs)} graphs x 3 characteristics, checks {counts}, "
            f"disagreements {bad[:3] if bad else 'none'}, {dt:.0f}s")
