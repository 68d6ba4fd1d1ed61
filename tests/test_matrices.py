"""Matrix involution, skew bases, the witness recursions, and the
certificates the same recursion gives inside path algebras."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from lpalab import (
    LaurentRing,
    LeavittAlgebra,
    MatrixLabError,
    field_from_spec,
    find_cycle_with_exit,
    find_forbidden_subgraph,
    forbidden_embedding_units,
)
from lpalab import matrices, scalars
from lpalab.matrices import (
    F2LaurentLanes,
    MatrixReport,
    MatrixRingCtx,
    char2_laurent_index3_check,
    corollary_field_check,
    corollary_laurent_check,
    dense,
    diagonal_closed_form,
    field_closed_forms,
    first_bracket_closed_form,
    is_skew,
    laurent_closed_forms,
    laurent_corner_certificate,
    mat_bracket,
    mat_is_zero,
    mat_to_vec,
    matrix_pair_op,
    matrix_span,
    nonsolvability_certificate,
    skew_matrix_basis,
    witness_laurent_nonsolvable,
    witness_nge3,
    witness_nilpotent_char2,
)
from lpalab.series import SeriesError, Subspace, _run_series, product_span
from helpers import (
    assert_canonical_laurent,
    build_corpus_graph,
    corpus_graphs,
    e3_graph,
    e5_graph,
    f1_path_graph,
    f2_lane,
    f2_graph,
    f3_graph,
    grid,
    lane_matrix,
    mat_involution,
    random_field_elem,
    random_laurent,
    ref_laurent_add,
    ref_laurent_mul,
    ref_laurent_sub,
    rose_graph,
    verify_matrix_units,
)

Q = field_from_spec("Q")
F2 = field_from_spec("F2")
F3 = field_from_spec("F3")


def test_mat_involution_transpose():
    ctx = MatrixRingCtx(2, Q)
    A = grid([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert mat_involution(ctx, A) == grid([[Fraction(1), Fraction(3)],
                                               [Fraction(2), Fraction(4)]])


def test_mat_involution_laurent():
    ring = LaurentRing(Q)
    ctx = MatrixRingCtx(2, ring)
    A = grid([[ring.x(), ring.zero], [ring.zero, ring.zero]])
    B = mat_involution(ctx, A)
    assert B[0][0] == ring.x_inv() and B[0][1] == ring.zero


def test_mat_involution_is_involutive_antihomomorphism():
    rng = random.Random(3)
    ring = LaurentRing(F3)
    for ctx in (MatrixRingCtx(2, Q), MatrixRingCtx(3, F3), MatrixRingCtx(2, ring)):
        for _ in range(40):
            A = _random_entry_mat(ctx, rng)
            B = _random_entry_mat(ctx, rng)
            assert mat_involution(ctx, mat_involution(ctx, A)) == A
            assert mat_involution(ctx, _reference_mul(ctx, A, B)) == grid(_reference_mul(
                ctx, mat_involution(ctx, B), mat_involution(ctx, A)))


def test_skew_basis_field():
    ctx = MatrixRingCtx(2, Q)
    basis = skew_matrix_basis(ctx)
    assert len(basis) == 1
    assert basis[0] == grid([[Q.zero, Q.one], [Fraction(-1), Q.zero]])

    ctx2 = MatrixRingCtx(2, F2)
    basis2 = skew_matrix_basis(ctx2)
    assert len(basis2) == 3


def test_skew_basis_laurent_contains_diagonal_skews():
    ring = LaurentRing(Q)
    ctx = MatrixRingCtx(2, ring)
    basis = skew_matrix_basis(ctx, 1)
    target = grid([[ring.sub(ring.x(), ring.x_inv()), ring.zero],
                       [ring.zero, ring.zero]])
    assert target in basis


# sha256 of each ring's skew bases in the order built (fields: n = 1..4;
# Laurent rings: degree bounds 0..3), recorded before the bases were
# rewritten on sparse entries.
_SKEW_BASIS_DIGESTS = {
    "F2": "23163f59df604b51219b29bf32d76bc0648a88f7fefba9bda298a8d1d204eaa8",
    "F3": "a4d6295296b9c639765e05bdd30142fc683dee62153d6957b68ec0b9d035b086",
    "F5": "93b7602de5917fe88fbef903890e4f7f0ce550ec3eb1d631ec998bb468cbc8dd",
    "Q": "5689d13fc7ccce57773e8614d3cc1f3a3913de5c9e0a21000f9b182980da817b",
    "L(F2)": "dd266618334b0410edd4423ba16c2225916098c4e211e0e2675789eab7f439de",
    "L(F3)": "cde139e9a4986e9ae1626e1767dacd518f6c2afb2b26fabd8fdc73c7cdd7a4ba",
    "L(Q)": "284e279a910227cabe44d3b78006f22549643ffba0741245085a504f05dec253",
}


def test_skew_matrix_basis_pinned():
    def canonical(M):
        return [[sorted(x.items()) if isinstance(x, dict) else x for x in row] for row in M]

    for name, digest in _SKEW_BASIS_DIGESTS.items():
        laurent = name.startswith("L(")
        fld = field_from_spec(name[2:-1] if laurent else name)
        ring = LaurentRing(fld) if laurent else fld
        h = hashlib.sha256()
        for k in range(4) if laurent else range(1, 5):
            ctx = MatrixRingCtx(2 if laurent else k, ring)
            basis = skew_matrix_basis(ctx, k) if laurent else skew_matrix_basis(ctx)
            assert all(is_skew(ctx, M) for M in basis), (name, k)
            h.update(repr([canonical(M) for M in basis]).encode())
        assert h.hexdigest() == digest, name


def test_witness_nge3_first_steps():
    ctx = MatrixRingCtx(3, Q)
    one = Q.one
    # m = 1: X = -(E12 - E21) + (E13 - E31)
    A = mat_bracket(ctx,
                    grid([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]),
                    grid([[0, 0, 0], [0, 0, 1], [0, -1, 0]]))
    expect = grid([[0, -1, 1], [1, 0, 0], [-1, 0, 0]])
    assert A == expect

    rep = witness_nge3(ctx, one, one, one, 2)
    assert rep.ok and rep.steps_checked == 2


def test_witness_nge3_step2_frozen_values():
    # closed forms from (1,1,1): a2 = -1, b2 = -1, c2 = 2, so
    # X2 = 2(E12 - E21) - 2(E13 - E31)
    ctx = MatrixRingCtx(3, Q)
    A1 = grid([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])
    B1 = grid([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    X1 = mat_bracket(ctx, A1, B1)
    A2 = mat_bracket(ctx, X1, B1)
    B2 = mat_bracket(ctx, X1, A1)
    X2 = mat_bracket(ctx, A2, B2)
    assert X2 == grid([[0, 2, -2], [-2, 0, 0], [2, 0, 0]])


def test_witness_nge3_long_runs():
    # (1, 0, 1) keeps the closed coefficients periodic, so deep runs stay
    # cheap; (1, 1, 1) squares the coefficient sizes at every step and is
    # exercised shallow.
    rep = witness_nge3(MatrixRingCtx(3, Q), Q.one, Q.zero, Q.one, 20)
    assert rep.ok
    rep = witness_nge3(MatrixRingCtx(3, Q), Q.one, Q.one, Q.one, 8)
    assert rep.ok
    rep = witness_nge3(MatrixRingCtx(3, F3), 1, 0, 1, 20)
    assert rep.ok


def test_witness_nge3_runs_in_m3_for_every_degree():
    # A, B and X live on indices 1..3: the dense M_n chain is the zero-padded
    # M_3 chain, and the report is the one a dense M_n run gives.
    for fld, (a, b, c), steps in ((Q, (Q.one, Q.one, Q.one), 5), (F3, (1, 0, 1), 8)):
        rep3 = MatrixReport("prop3a", {})
        chain3 = matrices._matrix_recursion(MatrixRingCtx(3, fld), rep3,
                                            field_closed_forms(fld, a, b, c), steps)
        for n in range(3, 7):
            ctx = MatrixRingCtx(n, fld)
            ref = MatrixReport("prop3a", {"a": fld.to_str(a), "b": fld.to_str(b),
                                          "c": fld.to_str(c), "n": n, "steps": steps})
            chain = matrices._matrix_recursion(ctx, ref, field_closed_forms(fld, a, b, c), steps)
            padded = [tuple(dense(ctx, {(i + 1, j + 1): x for i, row in enumerate(M)
                                        for j, x in enumerate(row)}) for M in step)
                      for step in chain3]
            assert chain == padded, (fld, n)
            assert witness_nge3(ctx, a, b, c, steps).to_json_obj() == ref.to_json_obj()
            assert ref.ok and ref.steps_checked == steps


def test_witness_nge3_preconditions():
    with pytest.raises(MatrixLabError, match="c = 0"):
        witness_nge3(MatrixRingCtx(3, Q), Q.one, Q.one, Q.zero, 3)
    with pytest.raises(MatrixLabError, match="a\\^2"):
        witness_nge3(MatrixRingCtx(3, field_from_spec("F5")), 1, 2, 1, 3)
    with pytest.raises(MatrixLabError, match="degree"):
        witness_nge3(MatrixRingCtx(2, Q), Q.one, Q.one, Q.one, 3)


def test_witness_nilpotent_char2():
    rep = witness_nilpotent_char2(F2, 10)
    assert rep.ok and rep.steps_checked == 10
    # one step by hand: [A, B] with A = E12 + E21, B = E11 equals A in char 2
    ctx = MatrixRingCtx(2, F2)
    A = grid([[0, 1], [1, 0]])
    B = grid([[1, 0], [0, 0]])
    assert mat_bracket(ctx, A, B) == A
    with pytest.raises(MatrixLabError, match="characteristic"):
        witness_nilpotent_char2(F3, 3)


def test_witness_laurent_nonsolvable():
    ring = LaurentRing(Q)
    u = ring.sub(ring.x(), ring.x_inv())
    rep = witness_laurent_nonsolvable(ring, u, 6)
    assert rep.ok and rep.steps_checked == 6

    # X1 = [[0, -2u^2], [2u^2, 0]]
    ctx = MatrixRingCtx(2, ring)
    A1 = grid([[ring.zero, u], [u, ring.zero]])
    B1 = grid([[u, ring.zero], [ring.zero, ring.neg(u)]])
    X1 = mat_bracket(ctx, A1, B1)
    m2u2 = ring.mul(ring.monomial(0, Fraction(-2)), ring.mul(u, u))
    assert X1 == grid([[ring.zero, m2u2], [ring.neg(m2u2), ring.zero]])

    v2 = ring.mul(ring.monomial(0, Fraction(4)), ring.mul(u, ring.mul(u, u)))
    assert not ring.is_zero(v2)

    with pytest.raises(MatrixLabError, match="u = 0"):
        witness_laurent_nonsolvable(ring, ring.zero, 3)
    with pytest.raises(MatrixLabError, match="not skew"):
        witness_laurent_nonsolvable(ring, ring.x(), 3)
    with pytest.raises(MatrixLabError, match="characteristic"):
        witness_laurent_nonsolvable(LaurentRing(F2), u, 3)


def test_witness_laurent_nonsolvable_on_z_is_the_rational_run():
    # prop3d over Q runs on Z: u = x - x^-1 and every closed form is
    # integral, and the integers print as the fractions do.
    zr, qr = LaurentRing(scalars.Z), LaurentRing(Q)
    for steps in range(1, 8):
        reports = [witness_laurent_nonsolvable(r, r.sub(r.x(), r.x_inv()), steps).to_json_obj()
                   for r in (zr, qr)]
        assert reports[0] == reports[1] and not reports[0]["failures"], steps


def test_char2_laurent_closed_forms_trivial_tuple():
    ring = LaurentRing(F2)
    ctx = MatrixRingCtx(2, ring)
    Z = grid([[ring.zero, ring.zero], [ring.zero, ring.zero]])
    assert first_bracket_closed_form(ctx, Z, Z) == Z
    assert ring.is_zero(diagonal_closed_form(ctx, Z, Z, Z, Z))


def test_char2_laurent_index3_sample_run():
    rep = char2_laurent_index3_check(60, 3, 42, F2)
    assert rep.ok
    assert any("x^-1 + x" in n or "sharpness" in n for n in rep.notes)
    with pytest.raises(MatrixLabError, match="characteristic"):
        char2_laurent_index3_check(5, 2, 1, Q)


def test_char2_laurent_index3_checks_each_sample_matrix_once(monkeypatch):
    # Each sample draws eight skew matrices (A1..A4, B1..B4); the closed
    # forms assume skewness, so each matrix is checked exactly once, a batch
    # of samples side by side in one lane matrix.
    checked = []

    def counting(ctx, A):
        checked.append(A)
        return is_skew(ctx, A)

    monkeypatch.setattr(matrices, "is_skew", counting)
    for samples, lanes, batches in ((1, 1024, 1), (7, 1024, 1), (7, 3, 3)):
        monkeypatch.setattr(matrices, "_LANES", lanes)
        checked.clear()
        assert char2_laurent_index3_check(samples, 2, 3, F2).ok
        assert len(checked) == 8 * batches
    monkeypatch.setattr(matrices, "is_skew", lambda ctx, A: False)
    with pytest.raises(MatrixLabError, match="not skew"):
        char2_laurent_index3_check(1, 2, 3, F2)


def test_char2_laurent_index3_reports_a_wrong_closed_form(monkeypatch):
    def perturbed(ctx, A, B):
        (r, s), row2 = first_bracket_closed_form(ctx, A, B)
        return grid([[ctx.ring.add(r, ctx.ring.one), s], row2])

    monkeypatch.setattr(matrices, "first_bracket_closed_form", perturbed)
    rep = char2_laurent_index3_check(3, 2, 1, F2)
    assert rep.failures == [f"sample {i}: X_{k} differs from closed form"
                            for i in range(3) for k in range(1, 5)]


def _reference_samples(seed, samples, degree_bound):
    """Per sample, (A1..A4, B1..B4) of prop3c-upper over LaurentRing(F2),
    one sample at a time: a batch of ``matrices._LANES`` samples draws 24
    polynomials of w = 2d + 1 masks, each one ``getrandbits(_LANES)`` in
    exponent order, and sample s reads bit s % _LANES of its batch's masks."""
    ring, lanes = LaurentRing(F2), matrices._LANES
    rng = random.Random(seed)
    w = 2 * degree_bound + 1
    out = []
    for idx in range(samples):
        if idx % lanes == 0:
            masks = [rng.getrandbits(lanes) for _ in range(24 * w)]
        bits = [m >> idx % lanes & 1 for m in masks]
        polys = [{e - degree_bound: 1 for e in range(w) if bits[t * w + e]} for t in range(24)]
        mats = []
        for a, b, c in zip(polys[0::3], polys[1::3], polys[2::3]):
            a, c = ring.add(a, ring.involute(a)), ring.add(c, ring.involute(c))
            mats.append(grid([[a, b], [ring.involute(b), c]]))
        out.append((mats[0::2], mats[1::2]))
    return out


def _reference_failures(seed, samples, degree_bound):
    """The failure lines of the upper-bound check, one sample at a time on
    LaurentRing(F2)."""
    ctx = MatrixRingCtx(2, LaurentRing(F2))
    failures = []
    for idx, (As, Bs) in enumerate(_reference_samples(seed, samples, degree_bound)):
        Xs = [mat_bracket(ctx, A, B) for A, B in zip(As, Bs)]
        failures += [f"sample {idx}: X_{i + 1} differs from closed form" for i in range(4)
                     if Xs[i] != first_bracket_closed_form(ctx, As[i], Bs[i])]
        Ys = [mat_bracket(ctx, Xs[0], Xs[1]), mat_bracket(ctx, Xs[2], Xs[3])]
        for k, (name, Y) in enumerate(zip(("[X1,X2]", "[X3,X4]"), Ys)):
            if Y[0][1] or Y[1][0]:
                failures.append(f"sample {idx}: {name} not diagonal")
            A1, A2, B1, B2 = As[2 * k], As[2 * k + 1], Bs[2 * k], Bs[2 * k + 1]
            if Y[0][0] != diagonal_closed_form(ctx, A1, B1, A2, B2):
                failures.append(f"sample {idx}: {name} diagonal differs from expansion")
        if not mat_is_zero(ctx, mat_bracket(ctx, *Ys)):
            failures.append(f"sample {idx}: [[X1,X2],[X3,X4]] != 0")
    return failures


def _lane_of(M, s):
    return grid([[f2_lane(x, s) for x in row] for row in M])


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31 - 1])
def test_char2_laurent_index3_lanes_are_the_per_sample_computation(seed, monkeypatch):
    # Batches of 3 lanes over 8 samples: two full batches and a part one.
    # Every lane of every A, B, X and Y is the per-sample LaurentRing(F2)
    # value, and the report does not depend on the batch size.
    want = char2_laurent_index3_check(8, 2, seed, F2).to_json_obj()
    calls = []
    bracket = matrices.mat_bracket

    def recording(ctx, P, Q):
        R = bracket(ctx, P, Q)
        if isinstance(ctx.ring, F2LaurentLanes):
            calls.append((P, Q, R))
        return R

    monkeypatch.setattr(matrices, "mat_bracket", recording)
    monkeypatch.setattr(matrices, "_LANES", 3)
    assert char2_laurent_index3_check(8, 2, seed, F2).to_json_obj() == want
    ctx = MatrixRingCtx(2, LaurentRing(F2))
    # Per batch: X1..X4 = [Ai, Bi], Y1 = [X1, X2], Y2 = [X3, X4], [Y1, Y2].
    assert len(calls) == 7 * 3
    for idx, (As, Bs) in enumerate(_reference_samples(seed, 8, 2)):
        batch, s = calls[7 * (idx // 3):7 * (idx // 3) + 7], idx % 3
        Xs = [mat_bracket(ctx, A, B) for A, B in zip(As, Bs)]
        Ys = [mat_bracket(ctx, Xs[0], Xs[1]), mat_bracket(ctx, Xs[2], Xs[3])]
        for i in range(4):
            P, Q, X = batch[i]
            assert (_lane_of(P, s), _lane_of(Q, s), _lane_of(X, s)) == (As[i], Bs[i], Xs[i])
        assert [_lane_of(Y, s) for _, _, Y in batch[4:6]] == Ys
        assert mat_is_zero(ctx, _lane_of(batch[6][2], s))


_lanes_mul = F2LaurentLanes.mul


def _lanes_drop_top(self, f, g):
    """``F2LaurentLanes.mul`` with the top term of every lane dropped."""
    out, seen = {}, 0  # seen: the lanes with a term above e
    for e, m in sorted(_lanes_mul(self, f, g).items(), reverse=True):
        if m & seen:
            out[e] = m & seen
        seen |= m
    return out


def test_char2_laurent_index3_reports_a_product_that_drops_its_top_term(monkeypatch):
    # The same mutation on both rings gives the per-sample failure lines,
    # and the sharpness instance, on LaurentRing, fails as well.
    dict_mul = LaurentRing.mul

    def dict_drop_top(self, f, g):
        out = dict_mul(self, f, g)
        top = max(out, default=None)
        return {e: c for e, c in out.items() if e != top}

    monkeypatch.setattr(F2LaurentLanes, "mul", _lanes_drop_top)
    monkeypatch.setattr(LaurentRing, "mul", dict_drop_top)
    rep = char2_laurent_index3_check(5, 2, 1, F2)
    assert "sample 0: X_1 differs from closed form" in rep.failures
    assert rep.failures == _reference_failures(1, 5, 2) + [
        "sharpness instance collapsed to zero", "sharpness diagonal is not (x^-1 + x) u1^2"]


def test_char2_laurent_index3_first_samples_do_not_depend_on_the_sample_count(monkeypatch):
    # Every batch draws whole _LANES-bit masks, so the samples of a 7-sample
    # run are the first 7 of a 20-sample run, batches of 3 and the part
    # batch of one alike; a mutated product names them in its failures.
    monkeypatch.setattr(F2LaurentLanes, "mul", _lanes_drop_top)
    monkeypatch.setattr(matrices, "_LANES", 3)
    short = char2_laurent_index3_check(7, 2, 5, F2).failures
    long = char2_laurent_index3_check(20, 2, 5, F2).failures
    assert {f.split(":")[0] for f in short} == {f"sample {s}" for s in range(7)}
    assert short == [f for f in long if int(f.split(":")[0].split()[1]) < 7]


def test_char2_laurent_index3_reports_exactly_the_sample_of_a_wrong_lane(monkeypatch):
    # A product that drops the top term of lane 5 only.
    mul = F2LaurentLanes.mul

    def wrong_lane(self, f, g, lane=1 << 5):
        out = mul(self, f, g)
        top = max((e for e, m in out.items() if m & lane), default=None)
        if top is not None:
            out[top] ^= lane
            if not out[top]:
                del out[top]
        return out

    monkeypatch.setattr(F2LaurentLanes, "mul", wrong_lane)
    rep = char2_laurent_index3_check(12, 2, 1, F2)
    assert rep.failures and {f.split(":")[0] for f in rep.failures} == {"sample 5"}


def test_char2_laurent_sharpness_diagonal():
    ring = LaurentRing(F2)
    ctx = MatrixRingCtx(2, ring)
    one, x = ring.one, ring.x()
    A1 = grid([[ring.zero, one], [one, ring.zero]])
    A2 = grid([[ring.zero, x], [ring.x_inv(), ring.zero]])
    B = grid([[one, ring.zero], [ring.zero, ring.zero]])
    X1 = mat_bracket(ctx, A1, B)
    X2 = mat_bracket(ctx, A2, B)
    sharp = mat_bracket(ctx, X1, X2)
    assert sharp[0][0] == ring.add(x, ring.x_inv())
    assert not mat_is_zero(ctx, sharp)


def _module_generators(ring):
    """G = {E11, E22, E12 + E21, x E12 + x^-1 E21} over a ring for F2[x, x^-1]."""
    ctx = MatrixRingCtx(2, ring)
    one, x = ring.one, ring.x()
    return ctx, [dense(ctx, {(1, 1): one}), dense(ctx, {(2, 2): one}),
                 dense(ctx, {(1, 2): one, (2, 1): one}),
                 dense(ctx, {(1, 2): x, (2, 1): ring.involute(x)})]


def test_char2_laurent_identities_hold_on_module_generators():
    """The three identities that prop3c-upper samples, proved on G.

    With t = x + x^-1, a skew [[a, b], [b~, c]] over F2[x, x^-1] has a~ = a
    and c~ = c, so a and c lie in F2[t]; and b = p + q x with p, q in F2[t],
    since 1 and x are a basis of F2[x, x^-1] over F2[t].  So the skew part
    is the F2[t]-span of G.  Scalars of F2[t] are central and fixed by the
    involution, so each identity is F2[t]-multilinear in its matrices:

    - [A, B] = [[r, s], [s~, r]] with r = b~ v - b v~ and s = v (a - c) +
      b (w - u) (``first_bracket_closed_form``) is bilinear;
    - [X1, X2] is diagonal with the expanded entry
      (``diagonal_closed_form``), which is 4-linear: each of its terms t1..t4
      takes one factor from each of A1, B1, A2 and B2;
    - [[X1, X2], [X3, X4]] = 0 is 8-linear.

    A multilinear identity holds everywhere exactly when it holds on every
    tuple of generators: the 16 pairs, the 256 4-tuples, and every pair of
    the 256 second-level brackets.  They are checked on F2LaurentLanes, the
    ring of the prop3c-upper check, each tuple as one lane.
    """
    _, gens = _module_generators(LaurentRing(F2))
    pairs = list(product(gens, repeat=2))
    lctx = MatrixRingCtx(2, F2LaurentLanes(len(pairs)))
    A, B = (lane_matrix(t[k] for t in pairs) for k in range(2))
    assert mat_bracket(lctx, A, B) == first_bracket_closed_form(lctx, A, B)
    quads = list(product(gens, repeat=4))
    lctx = MatrixRingCtx(2, F2LaurentLanes(len(quads)))
    A1, B1, A2, B2 = (lane_matrix(t[k] for t in quads) for k in range(4))
    Y = mat_bracket(lctx, mat_bracket(lctx, A1, B1), mat_bracket(lctx, A2, B2))
    assert Y[0][1] == Y[1][0] == {}
    assert Y[0][0] == diagonal_closed_form(lctx, A1, B1, A2, B2)
    # The second step is not zero, so the index is not 2.
    assert matrices._lanes(sum(Y, ())).bit_count() == 32
    # Every pair (Y_j, Y_k) of second-level brackets as lane 256 j + k.
    n = len(quads)
    ones, repunit = (1 << n) - 1, sum(1 << n * k for k in range(n))

    def spread(v):  # lane j to lanes 256 j .. 256 j + 255
        return {e: sum(ones << n * j for j in range(n) if m >> j & 1) for e, m in v.items()}

    def repeat(v):  # lane k to lanes 256 j + k
        return {e: m * repunit for e, m in v.items()}

    pctx = MatrixRingCtx(2, F2LaurentLanes(n * n))
    Y1, Y2 = (grid([[f(x) for x in row] for row in Y]) for f in (spread, repeat))
    assert mat_is_zero(pctx, mat_bracket(pctx, Y1, Y2))


def test_cor_laurent_degree_1_span_proves_index_3_over_f2():
    """The degree-1 span S of cor-laurent over F2 contains G, so the skew part
    L of M_2(F2[x, x^-1]) is R S with R = F2[x + x^-1].  Elements of R are
    central and fixed by the involution, so [r X, Y] = r [X, Y], and by
    induction D^k(L) = R D^k(S).  Dims [7, 7, 4, 0] therefore prove that L
    has index exactly 3.  The degree-0 span misses x E12 + x^-1 E21: its
    dims [3, 1, 0] are those of skew M_2(F2), and the case fails."""
    ctx, gens = _module_generators(LaurentRing(F2))
    for degree, held in ((1, [True] * 4), (0, [True, True, True, False])):
        span = matrix_span(ctx, skew_matrix_basis(ctx, degree))
        # The span keeps skew rows on H, so each generator is reduced as its half.
        assert [span.reduce(_on_h(_full_vec(ctx, G))) == {} for G in gens] == held
    rep = corollary_laurent_check(F2, 1, 8)
    assert rep.ok and rep.notes == ["derived dims: [7, 7, 4, 0]"]
    rep = corollary_laurent_check(F2, 0, 8)
    assert rep.notes == ["derived dims: [3, 1, 0]"]
    assert rep.failures == ["expected solvability index 3, dims [3, 1, 0]"]


def test_corollary_checks():
    assert corollary_field_check(Q).ok
    assert corollary_field_check(F3).ok
    assert corollary_field_check(F2).ok
    assert corollary_laurent_check(F2, 2, 8).ok
    assert corollary_laurent_check(Q, 2, 4).ok


def test_determinism_same_seed():
    a = char2_laurent_index3_check(25, 2, 7, F2)
    b = char2_laurent_index3_check(25, 2, 7, F2)
    assert a.to_json_obj() == b.to_json_obj()


def _reference_entry_ops(ring):
    """(zero, add, sub, mul) on entries: the field's own methods, or the
    schoolbook Laurent loops."""
    if isinstance(ring, LaurentRing):
        fld = ring.field
        return ({}, lambda a, b: ref_laurent_add(fld, a, b),
                lambda a, b: ref_laurent_sub(fld, a, b),
                lambda a, b: ref_laurent_mul(fld, a, b))
    return ring.zero, ring.add, ring.sub, ring.mul


def _reference_mul(ctx, A, B):
    zero, add, _, mul = _reference_entry_ops(ctx.ring)
    out = [[zero] * ctx.n for _ in range(ctx.n)]
    for i in range(ctx.n):
        for j in range(ctx.n):
            for k in range(ctx.n):
                out[i][j] = add(out[i][j], mul(A[i][k], B[k][j]))
    return out


def _reference_sub(ctx, A, B):
    _, _, sub, _ = _reference_entry_ops(ctx.ring)
    return [[sub(A[i][j], B[i][j]) for j in range(ctx.n)] for i in range(ctx.n)]


def _entry_sampler(ring, rng):
    if isinstance(ring, LaurentRing):
        return lambda: random_laurent(ring.field, rng, rng.randint(0, 5), -3, 3)
    return lambda: random_field_elem(ring, rng)


def _random_entry_mat(ctx, rng, density=1.0, zero_diagonal=False):
    """Each entry random with probability ``density``, zero otherwise."""
    ring, entry = ctx.ring, _entry_sampler(ctx.ring, rng)
    return grid([[ring.zero if (zero_diagonal and i == j) or rng.random() >= density
                      else entry() for j in range(ctx.n)] for i in range(ctx.n)])


def test_mat_arithmetic_matches_entrywise_reference():
    # The schoolbook AB - BA is the oracle of the commutator kernel.  At n = 4
    # each off-diagonal entry has two terms k other than i and j; sparse and
    # zero-diagonal matrices zero out parts of the collapsed k = i, j terms.
    rng = random.Random(17)
    F5 = field_from_spec("F5")
    rings = [Q, F2, F3, F5, LaurentRing(Q), LaurentRing(F2), LaurentRing(F3)]
    shapes = [(1.0, False)] * 15 + [(0.4, False)] * 5 + [(1.0, True)] * 5 + [(0.5, True)] * 5
    for ring in rings:
        for n in (1, 2, 3, 4):
            ctx = MatrixRingCtx(n, ring)
            for density, zero_diagonal in shapes:
                A = _random_entry_mat(ctx, rng, density, zero_diagonal)
                B = _random_entry_mat(ctx, rng, density, zero_diagonal)
                ref_bracket = _reference_sub(ctx, _reference_mul(ctx, A, B),
                                             _reference_mul(ctx, B, A))
                bracket = mat_bracket(ctx, A, B)
                assert [list(r) for r in bracket] == ref_bracket
                if isinstance(ring, LaurentRing):
                    for row in bracket:
                        for entry in row:
                            assert_canonical_laurent(ring.field, entry)


# ----------------------------------------------------------------------
# sparse cell brackets of the corollary spans against the dense route


def _full_vec(ctx, M):
    """Every nonzero coordinate of a matrix: the dense route's row."""
    ring, idx = ctx.ring, range(ctx.n)
    if not isinstance(ring, LaurentRing):
        return {(i, j): M[i][j] for i in idx for j in idx if not ring.is_zero(M[i][j])}
    return {(i, j, e): c for i in idx for j in idx for e, c in M[i][j].items()}


def _on_h(vec):
    """The coordinates k <= k* of a row, where (i, j)* = (j, i) and
    (i, j, e)* = (j, i, -e)."""
    return {k: c for k, c in vec.items() if k <= (k[1], k[0], *(-e for e in k[2:]))}


def _vec_to_mat(ctx, vec):
    """The dense matrix of a full row."""
    if not isinstance(ctx.ring, LaurentRing):
        return dense(ctx, {(i + 1, j + 1): c for (i, j), c in vec.items()})
    cells = {}
    for (i, j, e), c in vec.items():
        cells.setdefault((i + 1, j + 1), {})[e] = c
    return dense(ctx, cells)


def _dense_pair_op(ctx):
    """The reference on full rows: both made dense, the commutator kernel,
    every coordinate of the result."""
    return lambda a, b: _full_vec(ctx, mat_bracket(ctx, _vec_to_mat(ctx, a),
                                                   _vec_to_mat(ctx, b)))


def _cell_bracket_mismatches(ctx, lift, op, rng) -> int:
    """How many of 40 pairs of random skew matrices, at densities 0.15 to 1,
    the span row, ``lift`` or ``op`` gets wrong.  The span row must be the
    matrix's coordinates on H, its lift the whole matrix cell by cell, and
    the bracket of two lifted rows the dense route's bracket on H, zero for
    a matrix with itself."""
    ref = _dense_pair_op(ctx)
    bad = 0
    for density in (0.15, 0.3, 0.5, 0.8, 1.0) * 8:
        A, B = _random_skew_mat(ctx, rng, density), _random_skew_mat(ctx, rng, density)
        a, b = mat_to_vec(ctx, A), mat_to_vec(ctx, B)
        cells = {(i + 1, k + 1): x for i, row in lift(a).items() for k, x in row}
        bad += not (a == _on_h(_full_vec(ctx, A)) and dense(ctx, cells) == A
                    and op(lift(a), lift(b)) == _on_h(ref(_full_vec(ctx, A), _full_vec(ctx, B)))
                    and op(lift(a), lift(a)) == {})
    return bad


_CELL_RINGS = [F2, F3, field_from_spec("F5"), Q, LaurentRing(F2), LaurentRing(F3), LaurentRing(Q)]


def test_cell_bracket_matches_dense_route():
    # Sparse skew matrices of every density, so that cells meet on some inner
    # indices and not on others; over the fields (and F2 above all) whole
    # cells cancel to zero and must be dropped.
    rng = random.Random(41)
    for ring in _CELL_RINGS:
        for n in (1, 2, 3, 4):
            ctx = MatrixRingCtx(n, ring)
            assert _cell_bracket_mismatches(ctx, *matrix_pair_op(ctx), rng) == 0, (ring, n)


def test_cell_bracket_check_catches_a_lift_that_keeps_the_sign():
    # The mirrored coordinates negated back: harmless in characteristic 2
    # only, where the sign of a skew row is +1.
    rng = random.Random(43)
    for ring in _CELL_RINGS:
        laurent = isinstance(ring, LaurentRing)
        fld = ring.field if laurent else ring
        for n in (2, 3):
            ctx = MatrixRingCtx(n, ring)
            lift, op = matrix_pair_op(ctx)

            def unsigned(i, k, x):
                if k < i:
                    return ring.neg(x)
                if k == i and laurent:
                    return {e: fld.neg(c) if e > 0 else c for e, c in x.items()}
                return x

            def keeping_sign(vec):
                return {i: [(k, unsigned(i, k, x)) for k, x in row]
                        for i, row in lift(vec).items()}

            bad = _cell_bracket_mismatches(ctx, keeping_sign, op, rng)
            assert (bad == 0) == (fld.characteristic == 2), (ring, n)


def test_cell_bracket_check_catches_a_half_that_keeps_positive_exponents(monkeypatch):
    # The other half of each diagonal Laurent cell, e >= 0, is just as
    # injective on skew rows, but its rows are not the dense route's on H.
    def other_half(ring, cells):
        return {(i, j, e): c for (i, j), x in cells.items() for e, c in x.items()
                if i < j or e >= 0}

    monkeypatch.setattr(matrices, "_half", other_half)
    rng = random.Random(47)
    for ring in _CELL_RINGS[4:]:
        ctx = MatrixRingCtx(2, ring)
        assert _cell_bracket_mismatches(ctx, *matrix_pair_op(ctx), rng) > 0, ring


def _steps(S0, pair_op, lift, depth, lower_central):
    """The rows of steps 1..depth of the derived or lower central series,
    stopping at a zero step."""
    out, S = [], S0
    for _ in range(depth):
        S = product_span(S, S0 if lower_central else S, pair_op,
                         same=not lower_central, lift=lift)
        out.append(S.rows)
        if not S.rows:
            break
    return out


@pytest.mark.parametrize("ring_name, degree_bound", [
    ("F2", 0), ("F3", 0), ("Q", 0),
    *((f"{f}[x]", d) for f in ("F2", "F3", "Q") for d in (0, 1, 2, 3)),
])
def test_corollary_series_steps_match_dense_route(ring_name, degree_bound):
    # The cor-field and cor-laurent spans: every step of both series has the
    # dense route's canonical rows on H, and the series loop reports the same
    # dims, vanishing step, witness on H and fixed point.
    fld = field_from_spec(ring_name.removesuffix("[x]"))
    ring = LaurentRing(fld) if ring_name.endswith("[x]") else fld
    ctx = MatrixRingCtx(2, ring)
    basis = skew_matrix_basis(ctx, degree_bound)
    S0, full = matrix_span(ctx, basis), Subspace(fld)
    for M in basis:
        full.insert(_full_vec(ctx, M))
    assert S0.rows == [_on_h(r) for r in full.rows]
    lift, op = matrix_pair_op(ctx)
    ref = _dense_pair_op(ctx)
    # Away from characteristic 2 the Laurent entry degrees double per derived
    # step, so those series are followed for fewer steps.
    depth = 3 if isinstance(ring, LaurentRing) and fld.characteristic != 2 else 6
    nonzero = 0
    for lower_central in (False, True):
        steps = _steps(S0, op, lift, depth, lower_central)
        assert steps == [[_on_h(r) for r in rows]
                         for rows in _steps(full, ref, None, depth, lower_central)]
        nonzero += sum(1 for rows in steps if rows)
        dims, vanished, witness, stabilized = _run_series(full, ref, depth, lower_central)
        assert _run_series(S0, op, depth, lower_central, lift=lift) == \
            (dims, vanished, _on_h(witness), stabilized)
    # Away from characteristic 2 a span of one matrix is abelian: the skew
    # 2x2 matrices over a field, and over K[x, x^-1] at degree bound 0.
    abelian = fld.characteristic != 2 and degree_bound == 0
    assert (nonzero == 0) == abelian


def test_cor_laurent_multiplies_through_the_laurent_ring(monkeypatch):
    # The benchmark's traced run counts LaurentRing.mul calls on cor-laurent
    # over F2, so its cells multiply through the ring class's own method.
    calls = []
    mul = LaurentRing.mul
    monkeypatch.setattr(LaurentRing, "mul", lambda self, f, g: calls.append(1) or mul(self, f, g))
    assert corollary_laurent_check(F2, 3, 8).ok
    # 15,820 with the cancelling diagonal products A_ii B_ii and B_ii A_ii,
    # 13,728 with the cells below the diagonal of every bracket.
    assert len(calls) == 10198


def test_cell_bracket_skips_cancelling_diagonal_products(monkeypatch):
    calls = []
    mul = LaurentRing.mul
    monkeypatch.setattr(LaurentRing, "mul", lambda self, f, g: calls.append(1) or mul(self, f, g))
    ring = LaurentRing(F3)
    lift, op = matrix_pair_op(MatrixRingCtx(2, ring))
    # Skew diagonals x^-1 - x + 2x^-2 - 2x^2 and x^-1 - x, 2x^-3 - 2x^3.
    a, b = {(0, 0, -1): 1, (0, 0, -2): 2}, {(0, 0, -1): 1, (1, 1, -3): 2}
    assert op(lift(a), lift(b)) == {} and calls == []
    # With E12 - E21 in a, A_01 B_11 - B_00 A_01 is the one cell on H, from
    # two products; the cell (1, 0) below the diagonal is not formed.
    a[(0, 1, 0)] = 1
    assert op(lift(a), lift(b)) == {(0, 1, -3): 2, (0, 1, -1): 2, (0, 1, 1): 1, (0, 1, 3): 1}
    assert len(calls) == 2


class _CountingField:
    """A field that counts its multiplications."""

    def __init__(self, fld):
        self.zero, self.add, self.sub, self._mul = fld.zero, fld.add, fld.sub, fld.mul
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return self._mul(a, b)


def test_mat_bracket_makes_n_n1_2n1_entry_products():
    # n(n-1)(2n-1) against 2n^3 for two schoolbook products.
    rng = random.Random(5)
    for n, products in ((1, 0), (2, 6), (3, 30), (4, 84)):
        ctx = MatrixRingCtx(n, Q)
        A, B = _random_entry_mat(ctx, rng), _random_entry_mat(ctx, rng)
        ring = _CountingField(Q)
        bracket = mat_bracket(MatrixRingCtx(n, ring), A, B)
        assert ring.muls == products
        assert [list(r) for r in bracket] == _reference_sub(
            ctx, _reference_mul(ctx, A, B), _reference_mul(ctx, B, A))


def _random_skew_mat(ctx, rng, density=1.0):
    """Random entries on and above the diagonal, each nonzero with
    probability ``density``, -a~ mirrored below it, and diagonal entries d
    with d~ = -d (a random d that is not is replaced by d - d~)."""
    ring, entry = ctx.ring, _entry_sampler(ctx.ring, rng)

    def draw():
        return entry() if density >= 1 or rng.random() < density else ring.zero

    rows = [[ring.zero] * ctx.n for _ in range(ctx.n)]
    for i in range(ctx.n):
        d = draw()
        if ring.involute(d) != ring.neg(d):
            d = ring.sub(d, ring.involute(d))
        rows[i][i] = d
        for j in range(i + 1, ctx.n):
            rows[i][j] = draw()
            rows[j][i] = ring.neg(ring.involute(rows[i][j]))
    return grid(rows)


def test_is_skew_matches_definition():
    # The definition compares the whole involuted matrix with the whole
    # negated one.  Each bumped matrix differs from a skew one in exactly one
    # diagonal or one below-diagonal entry; over F2 every diagonal entry is
    # skew, so there a diagonal bump keeps the matrix skew.
    rng = random.Random(29)
    for ring in (F2, F3, Q, LaurentRing(Q), LaurentRing(F2)):
        bump = ring.x() if isinstance(ring, LaurentRing) else ring.one
        for n in (1, 2, 3, 4):
            ctx = MatrixRingCtx(n, ring)

            def definition(M):
                return mat_involution(ctx, M) == tuple(tuple(ring.neg(x) for x in row)
                                                       for row in M)

            for _ in range(6):
                S = _random_skew_mat(ctx, rng)
                assert definition(S) and is_skew(ctx, S)
                R = _random_entry_mat(ctx, rng)
                assert is_skew(ctx, R) == definition(R)
                for i in range(n):
                    for j in range(i + 1):
                        rows = [list(r) for r in S]
                        rows[i][j] = ring.add(rows[i][j], bump)
                        M = grid(rows)
                        assert is_skew(ctx, M) == definition(M) == (ring is F2 and i == j)


# ----------------------------------------------------------------------
# certificates against oracles built here, and the driver's own checks


def _witness_graphs(seed):
    """The shape graphs of each witness kind, plus seeded picks of small
    corpus graphs whose first witness has that kind."""
    rng = random.Random(seed)
    by_kind = {"CycleWithExit": [rose_graph(2)], "F1": [f1_path_graph()],
               "F2": [f2_graph()], "F3": [f3_graph()]}
    corpus = {}
    for nv, edges in corpus_graphs(3, 4):
        g = build_corpus_graph(nv, edges)
        w = find_cycle_with_exit(g) or find_forbidden_subgraph(g)
        if w is not None:
            corpus.setdefault(w.kind, []).append(g)
    for kind, graphs in by_kind.items():
        graphs.extend(rng.sample(corpus[kind], min(2, len(corpus[kind]))))
    return by_kind


def test_nonsolvability_certificate_matches_abc_recursion():
    # Oracle: X_m = -b c (u12 - u21) + a c (u13 - u31), with (a, b, c) run
    # from (1, 0, 1) through (a, b, c) -> (-a c^2, -b c^2, (a^2 + b^2) c).
    depth = 4
    for kind, graphs in _witness_graphs(2024).items():
        for g in graphs:
            w = find_cycle_with_exit(g) or find_forbidden_subgraph(g)
            assert w.kind == kind
            for fld in (Q, F2, F3):
                alg = LeavittAlgebra(g, fld)
                u = forbidden_embedding_units(alg, w)
                d12 = alg.sub(u[(1, 2)], u[(2, 1)])
                d13 = alg.sub(u[(1, 3)], u[(3, 1)])
                a, b, c = fld.one, fld.zero, fld.one
                expected = []
                for _ in range(depth):
                    expected.append(alg.add(alg.scale(fld.neg(fld.mul(b, c)), d12),
                                            alg.scale(fld.mul(a, c), d13)))
                    a, b, c = (fld.neg(fld.mul(a, fld.mul(c, c))),
                               fld.neg(fld.mul(b, fld.mul(c, c))),
                               fld.mul(fld.add(fld.mul(a, a), fld.mul(b, b)), c))
                assert nonsolvability_certificate(g, fld, w, depth) == expected, (kind, fld)


def test_laurent_corner_certificate_matches_corner_image():
    # Oracle inside the algebra: with u = y - y* and v' = 4 v^3 computed by
    # algebra products, X_m is the corner image p t - t p* of
    # t (E12 - E21), t = (-1)^m 2 v^2.
    F5 = field_from_spec("F5")
    depth = 3
    for g, p, cycle, w in ((e3_graph(), "e", ["f", "e"], "w"),
                           (e5_graph(1), "f1", ["c1"], "w1")):
        for fld in (Q, F3, F5):
            alg = LeavittAlgebra(g, fld)
            units = {(1, 1): alg.path_pair([p], [p]), (1, 2): alg.edge(p),
                     (2, 1): alg.ghost(p), (2, 2): alg.vertex(w)}
            assert verify_matrix_units(alg, units) == []
            v = alg.sub(alg.path_pair(cycle, []), alg.path_pair([], cycle))
            two, four = fld.from_int(2), fld.from_int(4)
            chain = laurent_corner_certificate(g, fld, p, cycle, depth)
            assert len(chain) == depth
            for m, X in enumerate(chain, 1):
                t = alg.scale(two if m % 2 == 0 else fld.neg(two), alg.multiply(v, v))
                image = alg.sub(alg.multiply(units[(1, 2)], t), alg.multiply(t, units[(2, 1)]))
                assert X == image, (g, fld, m)
                v = alg.scale(four, alg.multiply(v, alg.multiply(v, v)))


def _one_step_off(forms_of, start, closed):
    """Closed forms that start from ``start`` but follow ``closed``: the
    first triple pairs A_1, B_1 of the one with X_1 of the other."""
    good, bad = forms_of(*start), forms_of(*closed)
    A, B, _ = next(good)
    _, _, X = next(bad)
    yield A, B, X
    yield from bad


@pytest.mark.parametrize("fld", [Q, F3])
def test_driver_detects_wrong_field_closed_form(monkeypatch, fld):
    def off(ring, a, b, c):
        return _one_step_off(lambda *abc: field_closed_forms(ring, *abc),
                             (a, b, c), (a, b, fld.from_int(2)))

    monkeypatch.setattr(matrices, "field_closed_forms", off)
    rep = witness_nge3(MatrixRingCtx(3, fld), fld.one, fld.zero, fld.one, 3)
    assert rep.failures[0] == "step 1: X differs from closed form"
    # c runs 1, 1, ... from the start but 2, 4, ... in the closed forms; a
    # follows -a c^2, which agrees over F3 (4 = 1) but not over Q.
    assert "step 2: B differs from closed form" in rep.failures
    assert ("step 2: A differs from closed form" in rep.failures) == (fld is Q)
    g = f1_path_graph()
    with pytest.raises(SeriesError, match="step 1: X differs from closed form"):
        nonsolvability_certificate(g, fld, find_forbidden_subgraph(g), 3)


def test_driver_reports_vanished_x(monkeypatch):
    # From (a, b, 0) both B and the closed X are zero, so the closed forms
    # agree and only the vanishing check can fire.
    monkeypatch.setattr(matrices, "field_closed_forms",
                        lambda ring, a, b, c: field_closed_forms(ring, a, b, ring.zero))
    rep = witness_nge3(MatrixRingCtx(3, Q), Q.one, Q.zero, Q.one, 2)
    assert rep.failures == ["step 1: X vanished", "step 2: X vanished"]
    g = f1_path_graph()
    with pytest.raises(SeriesError, match="step 1: X vanished"):
        nonsolvability_certificate(g, Q, find_forbidden_subgraph(g), 2)


def test_driver_detects_wrong_laurent_closed_form(monkeypatch):
    def off(ring, u):
        return _one_step_off(lambda v: laurent_closed_forms(ring, v),
                             (u,), (ring.add(u, u),))

    monkeypatch.setattr(matrices, "laurent_closed_forms", off)
    # The same failures on Z, where prop3d over Q runs, as on Q.
    failures = []
    for ring in (LaurentRing(scalars.Z), LaurentRing(Q)):
        failures.append(witness_laurent_nonsolvable(ring, ring.sub(ring.x(), ring.x_inv()),
                                                    3).failures)
    assert failures[0] == failures[1]
    assert failures[0][0] == "step 1: X differs from closed form"
    with pytest.raises(SeriesError, match="step 1: X differs from closed form"):
        laurent_corner_certificate(e3_graph(), Q, "e", ["f", "e"], 3)
