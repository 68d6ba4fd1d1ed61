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
from lpalab import matrices
from lpalab.matrices import (
    F2LaurentRing,
    MatrixRingCtx,
    _draw_masks,
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
from lpalab.series import SeriesError, _run_series, product_span
from helpers import (
    assert_canonical_laurent,
    build_corpus_graph,
    corpus_graphs,
    e3_graph,
    e5_graph,
    f1_path_graph,
    f2_graph,
    f3_graph,
    grid,
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


def test_char2_laurent_closed_forms_trivial_tuple():
    ring = LaurentRing(F2)
    ctx = MatrixRingCtx(2, ring)
    Z = grid([[ring.zero, ring.zero], [ring.zero, ring.zero]])
    assert first_bracket_closed_form(ctx, Z, Z) == Z
    assert ring.is_zero(diagonal_closed_form(ctx, Z, Z, Z, Z))


def test_char2_laurent_index3_sample_run():
    rep = char2_laurent_index3_check(60, 3, 42)
    assert rep.ok
    assert any("x^-1 + x" in n or "sharpness" in n for n in rep.notes)
    with pytest.raises(MatrixLabError, match="characteristic"):
        char2_laurent_index3_check(5, 2, 1, Q)


def test_char2_laurent_index3_checks_each_sample_matrix_once(monkeypatch):
    # Each sample draws eight skew matrices (A1..A4, B1..B4); the closed
    # forms assume skewness, so each matrix is checked exactly once.
    checked = []

    def counting(ctx, A):
        checked.append(A)
        return is_skew(ctx, A)

    monkeypatch.setattr(matrices, "is_skew", counting)
    for samples in (1, 7):
        checked.clear()
        assert char2_laurent_index3_check(samples, 2, 3).ok
        assert len(checked) == 8 * samples
    monkeypatch.setattr(matrices, "is_skew", lambda ctx, A: False)
    with pytest.raises(MatrixLabError, match="not skew"):
        char2_laurent_index3_check(1, 2, 3)


def test_char2_laurent_index3_reports_a_wrong_closed_form(monkeypatch):
    def perturbed(ctx, A, B):
        (r, s), row2 = first_bracket_closed_form(ctx, A, B)
        return grid([[ctx.ring.add(r, ctx.ring.one), s], row2])

    monkeypatch.setattr(matrices, "first_bracket_closed_form", perturbed)
    rep = char2_laurent_index3_check(3, 2, 1)
    assert rep.failures == [f"sample {i}: X_{k} differs from closed form"
                            for i in range(3) for k in range(1, 5)]


def test_char2_laurent_index3_reports_a_product_that_drops_its_top_term(monkeypatch):
    mul = F2LaurentRing.mul

    def drop_top(self, f, g):
        low, mask = mul(self, f, g)
        top = 1 << mask.bit_length() >> 1  # 0 for a zero product
        return self.from_bits(low, mask ^ top)

    monkeypatch.setattr(F2LaurentRing, "mul", drop_top)
    rep = char2_laurent_index3_check(3, 2, 1)
    assert "sample 0: X_1 differs from closed form" in rep.failures
    assert rep.failures[-1] == "sharpness diagonal is not (x^-1 + x) u1^2"


def _randrange_masks(rng, width, count):
    """count masks drawn bit by bit, one rng.randrange(2) per bit."""
    out = []
    for _ in range(count):
        bits = 0
        for i in range(width):
            if rng.randrange(2):
                bits |= 1 << i
        out.append(bits)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31 - 1])
def test_draw_masks_are_the_randrange_stream(seed):
    # 5,000 draws take about 10,000 words, several blocks of them.
    masks = _draw_masks(random.Random(seed), 1)
    rng = random.Random(seed)
    assert [next(masks) for _ in range(5000)] == [rng.randrange(2) for _ in range(5000)]


@pytest.mark.parametrize("seed", [3, 7, 1909])
def test_char2_laurent_index3_draws_the_randrange_polynomials(seed, monkeypatch):
    drawn = []
    draw_masks = matrices._draw_masks

    def recording(rng, width):
        for mask in draw_masks(rng, width):
            drawn.append((width, mask))
            yield mask

    monkeypatch.setattr(matrices, "_draw_masks", recording)
    assert char2_laurent_index3_check(60, 3, seed).ok
    # 24 polynomials a sample: a, b, c of four A and four B.
    assert len(drawn) == 60 * 24
    assert drawn == [(7, m) for m in _randrange_masks(random.Random(seed), 7, len(drawn))]


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
    the 256 second-level brackets.  They are checked on F2LaurentRing, the
    ring of the prop3c-upper check.
    """
    ctx, gens = _module_generators(F2LaurentRing())
    ring = ctx.ring
    for A, B in product(gens, repeat=2):
        assert mat_bracket(ctx, A, B) == first_bracket_closed_form(ctx, A, B), (A, B)
    seconds = []
    for A1, B1, A2, B2 in product(gens, repeat=4):
        Y = mat_bracket(ctx, mat_bracket(ctx, A1, B1), mat_bracket(ctx, A2, B2))
        assert ring.is_zero(Y[0][1]) and ring.is_zero(Y[1][0])
        assert Y[0][0] == diagonal_closed_form(ctx, A1, B1, A2, B2), (A1, B1, A2, B2)
        seconds.append(Y)
    # The second step is not zero, so the index is not 2.
    assert sum(not mat_is_zero(ctx, Y) for Y in seconds) == 32
    assert all(mat_is_zero(ctx, mat_bracket(ctx, Y1, Y2)) for Y1, Y2 in product(seconds, repeat=2))


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
        assert [span.reduce(mat_to_vec(ctx, G)) == {} for G in gens] == held
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
    a = char2_laurent_index3_check(25, 2, 7)
    b = char2_laurent_index3_check(25, 2, 7)
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


def _vec_to_mat(ctx, vec):
    """The dense matrix of a flattened span row."""
    if not isinstance(ctx.ring, LaurentRing):
        return dense(ctx, {(i + 1, j + 1): c for (i, j), c in vec.items()})
    cells = {}
    for (i, j, e), c in vec.items():
        cells.setdefault((i + 1, j + 1), {})[e] = c
    return dense(ctx, cells)


def _dense_pair_op(ctx):
    """The reference: both rows made dense, the commutator kernel, flattened."""
    return lambda a, b: mat_to_vec(ctx, mat_bracket(ctx, _vec_to_mat(ctx, a),
                                                    _vec_to_mat(ctx, b)))


def test_cell_bracket_matches_dense_route():
    # Sparse matrices of every density, so that cells meet on some inner
    # indices and not on others; over the fields (and F2 above all) whole
    # cells cancel to zero and must be dropped.
    rng = random.Random(41)
    F5 = field_from_spec("F5")
    rings = [F2, F3, F5, Q, LaurentRing(F2), LaurentRing(F3), LaurentRing(Q)]
    densities = [0.15, 0.3, 0.5, 0.8, 1.0]
    for ring in rings:
        for n in (1, 2, 3, 4):
            ctx = MatrixRingCtx(n, ring)
            lift, op = matrix_pair_op(ctx)
            ref = _dense_pair_op(ctx)
            for density in densities * 8:
                a = mat_to_vec(ctx, _random_entry_mat(ctx, rng, density))
                b = mat_to_vec(ctx, _random_entry_mat(ctx, rng, density))
                assert op(lift(a), lift(b)) == ref(a, b)
                assert op(lift(a), lift(a)) == {}


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
    # canonical rows the dense route gives, and the series loop reports the
    # same dims, vanishing step, witness and fixed point.
    fld = field_from_spec(ring_name.removesuffix("[x]"))
    ring = LaurentRing(fld) if ring_name.endswith("[x]") else fld
    ctx = MatrixRingCtx(2, ring)
    S0 = matrix_span(ctx, skew_matrix_basis(ctx, degree_bound))
    lift, op = matrix_pair_op(ctx)
    ref = _dense_pair_op(ctx)
    # Away from characteristic 2 the Laurent entry degrees double per derived
    # step, so those series are followed for fewer steps.
    depth = 3 if isinstance(ring, LaurentRing) and fld.characteristic != 2 else 6
    nonzero = 0
    for lower_central in (False, True):
        steps = _steps(S0, op, lift, depth, lower_central)
        assert steps == _steps(S0, ref, None, depth, lower_central)
        nonzero += sum(1 for rows in steps if rows)
        assert _run_series(S0, op, depth, lower_central, lift=lift) == \
            _run_series(S0, ref, depth, lower_central)
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
    # 15,820 with the cancelling diagonal products A_ii B_ii and B_ii A_ii.
    assert len(calls) == 13728


def test_cell_bracket_skips_cancelling_diagonal_products(monkeypatch):
    calls = []
    mul = LaurentRing.mul
    monkeypatch.setattr(LaurentRing, "mul", lambda self, f, g: calls.append(1) or mul(self, f, g))
    ring = LaurentRing(F3)
    lift, op = matrix_pair_op(MatrixRingCtx(2, ring))
    a, b = {(0, 0, -1): 1, (0, 0, 2): 2}, {(0, 0, 1): 1, (1, 1, 0): 2}
    assert op(lift(a), lift(b)) == {} and calls == []
    # A_01 B_11 - B_00 A_01 is the one cell left, from two products.
    a[(0, 1, 0)] = 1
    assert op(lift(a), lift(b)) == {(0, 1, 0): 2, (0, 1, 1): 2} and len(calls) == 2


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


def _random_skew_mat(ctx, rng):
    """Random entries above the diagonal, -a~ mirrored below it, and diagonal
    entries d with d~ = -d (a random d that is not is replaced by d - d~)."""
    ring, entry = ctx.ring, _entry_sampler(ctx.ring, rng)
    rows = [[ring.zero] * ctx.n for _ in range(ctx.n)]
    for i in range(ctx.n):
        d = entry()
        if ring.involute(d) != ring.neg(d):
            d = ring.sub(d, ring.involute(d))
        rows[i][i] = d
        for j in range(i + 1, ctx.n):
            rows[i][j] = entry()
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
    ring = LaurentRing(Q)
    rep = witness_laurent_nonsolvable(ring, ring.sub(ring.x(), ring.x_inv()), 3)
    assert rep.failures[0] == "step 1: X differs from closed form"
    with pytest.raises(SeriesError, match="step 1: X differs from closed form"):
        laurent_corner_certificate(e3_graph(), Q, "e", ["f", "e"], 3)
