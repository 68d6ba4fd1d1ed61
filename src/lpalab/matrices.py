"""Matrix rings over an exact field or a Laurent ring, carrying the
transpose-with-entry-involution, their skew-symmetric parts, and the witness
recursions that decide Lie solvability degree by degree, also run inside
path algebras as the non-solvability certificates.

Matrices are tuples of tuples of ring values, manipulated through the ring
object so the same code serves field entries and Laurent entries.  They are
built from their nonzero entries {(i, j): x}, 1-indexed, by ``dense``.
Entries must commute (both kinds of entry ring are commutative): the bracket
kernel ``mat_bracket`` cancels and pairs terms of AB - BA by that fact.  The
series of the corollary spans bracket their rows as sparse cells instead
(``matrix_pair_op``), since those rows have one or two nonzero entries.

The characteristic-2 index-3 check runs on ``F2LaurentRing``, F2[x, x^-1]
packed into bits (addition is XOR there and the product carry-less), and
draws its samples through ``_draw_masks``; everything that reads
exponent-coefficient pairs keeps the dict ring ``scalars.LaurentRing``.
"""

from __future__ import annotations

import random

from .algebra import LeavittAlgebra, corner_embedding, forbidden_embedding_units, unit_embedding
from .graphs import Graph
from .scalars import LaurentRing, MatrixLabError
from .series import SeriesError, Subspace, _run_series


class MatrixRingCtx:
    """n x n matrices over ``ring`` (a field or a ``LaurentRing``).  The
    entries must commute: ``mat_bracket`` relies on it."""

    __slots__ = ("n", "ring")

    def __init__(self, n: int, ring):
        if n < 1:
            raise MatrixLabError("matrix degree must be >= 1")
        self.n = n
        self.ring = ring


def dense(ctx: MatrixRingCtx, entries: dict) -> tuple:
    """The matrix with the given entries {(i, j): x}, 1-indexed, and zeros
    elsewhere."""
    z, idx = ctx.ring.zero, range(1, ctx.n + 1)
    return tuple(tuple(entries.get((i, j), z) for j in idx) for i in idx)


def _skew(ring, entries: dict) -> dict:
    """x at (i, j) and -x at (j, i) for each entry."""
    out = {}
    for (i, j), x in entries.items():
        out[(i, j)], out[(j, i)] = x, ring.neg(x)
    return out


def mat_bracket(ctx, A, B):
    """[A, B] = AB - BA in n(n-1)(2n-1) entry products instead of 2n^3.

    The entries commute, so on the diagonal the a_ii b_ii terms cancel and
    the k-th term of entry (i, i) is minus the i-th term of entry (k, k):
    t_ik = a_ik b_ki - b_ik a_ki is computed once for i < k.  Off the diagonal
    the k = i and k = j terms collapse to b_ij (a_ii - a_jj) - a_ij (b_ii - b_jj),
    and each other k adds a_ik b_kj - b_ik a_kj.
    """
    ring = ctx.ring
    add, sub, mul = ring.add, ring.sub, ring.mul
    n = ctx.n
    diag = [ring.zero] * n
    for i in range(n):
        for k in range(i + 1, n):
            t = sub(mul(A[i][k], B[k][i]), mul(B[i][k], A[k][i]))
            diag[i] = add(diag[i], t)
            diag[k] = sub(diag[k], t)
    out = []
    for i in range(n):
        Ai, Bi = A[i], B[i]
        row = []
        for j in range(n):
            if j == i:
                row.append(diag[i])
                continue
            acc = sub(mul(Bi[j], sub(Ai[i], A[j][j])), mul(Ai[j], sub(Bi[i], B[j][j])))
            for k in range(n):
                if k != i and k != j:
                    acc = sub(add(acc, mul(Ai[k], B[k][j])), mul(Bi[k], A[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_is_zero(ctx, A) -> bool:
    return all(ctx.ring.is_zero(A[i][j]) for i in range(ctx.n) for j in range(ctx.n))


def is_skew(ctx, A) -> bool:
    """A* = -A, entry by entry: the (j, i) condition is the (i, j) one
    involuted, so i <= j suffices."""
    inv, neg, n = ctx.ring.involute, ctx.ring.neg, ctx.n
    return all(inv(A[j][i]) == neg(A[i][j]) for i in range(n) for j in range(i, n))


def skew_matrix_basis(ctx: MatrixRingCtx, degree_bound: int = 0) -> list:
    """Spanning set of the skew part.

    Plain-field transpose: the E_ij - E_ji for i < j, plus (characteristic 2
    only) the diagonal units and the pair sums.  Laurent 2x2: matrices
    [[a, b], [-b~, c]] with a, c skew Laurents, entries restricted to exponent
    magnitude <= degree_bound.
    """
    ring = ctx.ring
    if not isinstance(ring, LaurentRing):
        idx = range(1, ctx.n + 1)
        out = [dense(ctx, _skew(ring, {(i, j): ring.one})) for i in idx for j in idx if i < j]
        if ring.characteristic == 2:
            out += [dense(ctx, {(i, i): ring.one}) for i in idx]
        return out
    out = []
    if ctx.n != 2:
        raise MatrixLabError("laurent skew basis implemented for degree 2 only")
    char2 = ring.characteristic == 2
    skew_scalars = []
    if char2:
        skew_scalars.append(ring.one)
        for k in range(1, degree_bound + 1):
            skew_scalars.append(ring.add(ring.monomial(k), ring.monomial(-k)))
    else:
        for k in range(1, degree_bound + 1):
            skew_scalars.append(ring.sub(ring.monomial(k), ring.monomial(-k)))
    for s in skew_scalars:
        out.append(dense(ctx, {(1, 1): s}))
        out.append(dense(ctx, {(2, 2): s}))
    for k in range(-degree_bound, degree_bound + 1):
        b = ring.monomial(k)
        out.append(dense(ctx, {(1, 2): b, (2, 1): ring.neg(ring.involute(b))}))
    return out


# ----------------------------------------------------------------------
# reports


class MatrixReport:
    def __init__(self, case: str, params: dict, steps_checked: int = 0,
                 failures: list = None, notes: list = None):
        self.case = case
        self.params = params
        self.steps_checked = steps_checked
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "params": self.params,
            "steps_checked": self.steps_checked,
            "failures": list(self.failures),
            "notes": list(self.notes),
        }


# ----------------------------------------------------------------------
# the A/B/X witness recursion and its certificates in path algebras


def field_closed_forms(ring, a, b, c):
    """(A_m, B_m, X_m), m = 1, 2, ..., of the degree-3 field recursion:
    A = a(E12 - E21) + b(E13 - E31), B = c(E23 - E32),
    X = -bc(E12 - E21) + ac(E13 - E31), then (a, b, c) -> (-ac^2, -bc^2, (a^2 + b^2)c).
    """
    neg, mul, add = ring.neg, ring.mul, ring.add
    while True:
        yield (_skew(ring, {(1, 2): a, (1, 3): b}), _skew(ring, {(2, 3): c}),
               _skew(ring, {(1, 2): neg(mul(b, c)), (1, 3): mul(a, c)}))
        cc = mul(c, c)
        a, b, c = neg(mul(a, cc)), neg(mul(b, cc)), mul(add(mul(a, a), mul(b, b)), c)


def laurent_closed_forms(ring, u):
    """(A_m, B_m, X_m), m = 1, 2, ..., of the degree-2 Laurent recursion:
    A = v(E12 + E21), B = (-1)^(m+1) v(E11 - E22), X = (-1)^m 2v^2(E12 - E21),
    from v = u, then v -> 4v^3."""
    neg, mul, from_int = ring.neg, ring.mul, ring.from_int
    v, sign = u, 1
    while True:
        s = v if sign == 1 else neg(v)
        yield ({(1, 2): v, (2, 1): v}, {(1, 1): s, (2, 2): neg(s)},
               _skew(ring, {(1, 2): mul(from_int(-2 * sign), mul(v, v))}))
        v, sign = mul(from_int(4), mul(v, mul(v, v))), -sign


def bracket_recursion(bracket, embed, forms, steps: int):
    """Run X = [A, B], A' = [X, B], B' = [X, A] for ``steps`` steps.

    ``forms`` yields the closed forms (A_m, B_m, X_m) as sparse matrices
    {(i, j): entry}, 1-indexed; ``embed`` carries one into the ring of
    ``bracket`` (the matrix ring itself, or a path algebra through
    algebra.unit_embedding or algebra.corner_embedding).  The run starts from
    the embedded A_1, B_1 and compares every computed X_m, A_m, B_m with its
    embedded closed form.  Returns the computed [(A_m, B_m, X_m)] and one
    failure line per mismatch or vanished X."""
    forms = iter(forms)
    A_c, B_c, X_c = next(forms)
    A, B, zero = embed(A_c), embed(B_c), embed({})
    chain, failures = [], []
    for m in range(1, steps + 1):
        X = bracket(A, B)
        if X != embed(X_c):
            failures.append(f"step {m}: X differs from closed form")
        if X == zero:
            failures.append(f"step {m}: X vanished")
        chain.append((A, B, X))
        if m == steps:
            break
        A, B = bracket(X, B), bracket(X, A)
        A_c, B_c, X_c = next(forms)
        if A != embed(A_c):
            failures.append(f"step {m + 1}: A differs from closed form")
        if B != embed(B_c):
            failures.append(f"step {m + 1}: B differs from closed form")
    return chain, failures


def _matrix_recursion(ctx: MatrixRingCtx, rep: MatrixReport, forms, steps: int) -> list:
    """bracket_recursion in the matrix ring, with its failures and the
    skewness of every A, B, X recorded in ``rep``."""
    # Looked up per call: a wrapper put on the module attribute sees every bracket.
    chain, failures = bracket_recursion(lambda P, Q: mat_bracket(ctx, P, Q),
                                        lambda M: dense(ctx, M), forms, steps)
    rep.failures.extend(failures)
    for m, step in enumerate(chain, 1):
        for name, M in zip("ABX", step):
            if not is_skew(ctx, M):
                rep.failures.append(f"step {m}: {name} not skew")
    rep.steps_checked = steps
    return chain


def witness_nge3(ctx: MatrixRingCtx, a, b, c, steps: int) -> MatrixReport:
    """Non-solvability witnesses in degree >= 3 over a field.

    Starting from A = a(E12-E21) + b(E13-E31), B = c(E23-E32), the recursion
    keeps the closed coefficient form of ``field_closed_forms``, and X stays
    nonzero because a^2 + b^2 and c are preserved nonzero.  Each step is
    verified by direct bracket evaluation against the closed forms.
    """
    ring = ctx.ring
    if isinstance(ring, LaurentRing):
        raise MatrixLabError("witness_nge3 takes field entries")
    if ctx.n < 3:
        raise MatrixLabError("witness_nge3 needs degree >= 3")
    if ring.is_zero(c):
        raise MatrixLabError("precondition violated: c = 0")
    if ring.is_zero(ring.add(ring.mul(a, a), ring.mul(b, b))):
        raise MatrixLabError("precondition violated: a^2 + b^2 = 0")
    rep = MatrixReport("prop3a", {"a": ring.to_str(a), "b": ring.to_str(b),
                                  "c": ring.to_str(c), "n": ctx.n, "steps": steps})
    _matrix_recursion(ctx, rep, field_closed_forms(ring, a, b, c), steps)
    return rep


def witness_nilpotent_char2(ring, steps: int) -> MatrixReport:
    """Iterated bracket [A, B], [[A, B], B], ... with A = E12 + E21, B = E11
    stays equal to A in characteristic 2, so the lower central series never
    dies."""
    if ring.characteristic != 2:
        raise MatrixLabError("wrong characteristic: need 2")
    ctx = MatrixRingCtx(2, ring)
    A = dense(ctx, {(1, 2): ring.one, (2, 1): ring.one})
    B = dense(ctx, {(1, 1): ring.one})
    rep = MatrixReport("prop3b", {"steps": steps})
    for name, M in (("A", A), ("B", B)):
        if not is_skew(ctx, M):
            rep.failures.append(f"{name} not skew")
    T = A
    for m in range(1, steps + 1):
        T = mat_bracket(ctx, T, B)
        if T != A:
            rep.failures.append(f"step {m}: iterated bracket drifted")
        if mat_is_zero(ctx, T):
            rep.failures.append(f"step {m}: iterated bracket vanished")
    rep.steps_checked = steps
    return rep


def witness_laurent_nonsolvable(ring: LaurentRing, u: dict, steps: int) -> MatrixReport:
    """Degree-2 non-solvability over a Laurent ring, characteristic != 2.

    From A = [[0, u], [u, 0]] and B = [[u, 0], [0, -u]] with u skew, the
    recursion follows ``laurent_closed_forms``: X_m = (-1)^m 2v^2(E12 - E21)
    and v' = 4 v^3, all verified by direct brackets; coefficients grow triply
    exponentially, which is why the scalars are arbitrary precision.
    """
    if ring.characteristic == 2:
        raise MatrixLabError("wrong characteristic: need != 2")
    if ring.is_zero(u):
        raise MatrixLabError("precondition violated: u = 0")
    if ring.involute(u) != ring.neg(u):
        raise MatrixLabError("precondition violated: u is not skew")
    ctx = MatrixRingCtx(2, ring)
    rep = MatrixReport("prop3d", {"u": ring.to_str(u), "steps": steps})
    chain = _matrix_recursion(ctx, rep, laurent_closed_forms(ring, u), steps)
    for m, (A, _, _) in enumerate(chain[1:], 2):
        v = A[0][1]
        if ring.involute(v) != ring.neg(v) or ring.is_zero(v):
            rep.failures.append(f"step {m}: v' = 4v^3 is not a nonzero skew scalar")
    return rep


def _certified_chain(algebra: LeavittAlgebra, embed, forms, depth: int) -> list:
    chain, failures = bracket_recursion(algebra.bracket, embed, forms, depth)
    if failures:
        raise SeriesError(f"certificate chain broke at {failures[0]}")
    return [X for _, _, X in chain]


def nonsolvability_certificate(graph: Graph, fld, witness, depth: int = 3) -> list:
    """Explicit nonzero members of every derived step of the skew part: the
    field recursion from a = c = 1, b = 0 (a^2 + b^2 = 1 in every field) run
    on the witness's 3x3 matrix units, so A = u12 - u21, B = u23 - u32.
    Returns [X_1..X_depth], each checked against its embedded closed form;
    raises SeriesError on any mismatch."""
    algebra = LeavittAlgebra(graph, fld)
    embed = unit_embedding(algebra, forbidden_embedding_units(algebra, witness))
    f = algebra.field
    return _certified_chain(algebra, embed, field_closed_forms(f, f.one, f.zero, f.one), depth)


def laurent_corner_certificate(graph: Graph, fld, entry_edge: str, cycle_edges,
                               depth: int = 3) -> list:
    """Nonzero derived-step members for a cycle-without-exit component when
    the characteristic is not 2: the Laurent recursion from u = y - y*, so
    A = p u + u p*, B = p u p* - u, run in the corner of the cycle y and the
    entry edge p (``corner_embedding``), where v' = 4 v^3 never vanishes.
    Returns [X_1..X_depth], each checked against its embedded closed form;
    raises SeriesError on any mismatch."""
    if fld.characteristic == 2:
        raise SeriesError("the degree-2 corner recursion needs characteristic != 2")
    algebra = LeavittAlgebra(graph, fld)
    g = algebra.graph
    if g.edges[g.edge_pos[entry_edge]].dst != g.edges[g.edge_pos[cycle_edges[0]]].src:
        raise SeriesError("entry edge must end where the cycle starts")
    ring = LaurentRing(algebra.field)
    forms = laurent_closed_forms(ring, ring.sub(ring.x(), ring.x_inv()))
    return _certified_chain(algebra, corner_embedding(algebra, entry_edge, cycle_edges),
                            forms, depth)


# ----------------------------------------------------------------------
# characteristic-2 Laurent checks


class F2LaurentRing:
    """F2[x, x^-1] packed into bits, with the involution x -> x^-1.

    A value is a pair (low, mask) standing for x^low times the sum of x^i
    over the set bits i of mask.  mask is odd, so low is the least exponent,
    and zero is (0, 0): tuple equality is polynomial equality.  In
    characteristic 2 a sum is one XOR of the aligned masks and a product is
    carry-less, the XOR of shifted copies of one mask, one per set bit of
    the other.  Values print as ``LaurentRing(F2)`` prints them.
    """

    characteristic = 2
    zero = (0, 0)
    one = (0, 1)

    def __repr__(self):
        return "F2[x,x^-1]"

    def x(self) -> tuple:
        return (1, 1)

    def from_bits(self, low: int, bits: int) -> tuple:
        """x^low times the sum of x^i over the set bits i of bits."""
        if not bits:
            return (0, 0)
        t = (bits & -bits).bit_length() - 1
        return (low + t, bits >> t)

    def add(self, f: tuple, g: tuple) -> tuple:
        lf, mf = f
        lg, mg = g
        if not mf:
            return g
        if not mg:
            return f
        # The shifted mask has bit 0 clear, so the sum keeps the lower end.
        if lf < lg:
            return (lf, mf ^ (mg << (lg - lf)))
        if lg < lf:
            return (lg, mg ^ (mf << (lf - lg)))
        return self.from_bits(lf, mf ^ mg)

    sub = add

    def neg(self, f: tuple) -> tuple:
        return f

    def mul(self, f: tuple, g: tuple) -> tuple:
        lf, mf = f
        lg, mg = g
        if not mf or not mg:
            return (0, 0)
        if mf.bit_count() > mg.bit_count():
            mf, mg = mg, mf
        acc = 0
        while mf:
            bit = mf & -mf
            acc ^= mg * bit  # mg shifted up to the position of bit
            mf ^= bit
        # Both masks are odd, so bit 0 of the product is 1 * 1.
        return (lf + lg, acc)

    def involute(self, f: tuple) -> tuple:
        low, mask = f
        if not mask:
            return f
        # x^low m(x) -> x^-low m(1/x) = x^-(low + d) (x^d m(1/x)) with d = deg m,
        # and x^d m(1/x) is m with its d + 1 bits reversed.
        return (1 - low - mask.bit_length(), int(bin(mask)[:1:-1], 2))

    def is_zero(self, f: tuple) -> bool:
        return not f[1]

    def to_str(self, f: tuple) -> str:
        e, mask = f
        if not mask:
            return "0"
        parts = []
        while mask:
            if mask & 1:
                parts.append("1" if e == 0 else "x" if e == 1 else f"x^{e}")
            mask >>= 1
            e += 1
        return " + ".join(parts)


# The top byte of a 32-bit word as a draw: deleted when its bit 7 (the word's
# bit 31) is set, else the ASCII digit of its bit 6 (the word's bit 30).
_DRAW_DIGITS = bytes(48 + (b >> 6 & 1) for b in range(256))
_REJECTED = bytes(range(128, 256))


def _draw_masks(rng: random.Random, width: int):
    """Endless width-bit masks whose bit i is the i-th of width successive
    ``rng.randrange(2)`` draws, read from blocks of ``getrandbits`` words;
    ``char2_laurent_index3_check`` gives the argument.  Blocks are
    read ahead, so ``rng`` ends up past the draws handed out."""
    words, buf, pos = 2048, b"", 0
    while True:
        if len(buf) - pos < width:
            block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            buf, pos = buf[pos:] + block[3::4].translate(_DRAW_DIGITS, _REJECTED), 0
            continue
        yield int(buf[pos:pos + width][::-1] or b"0", 2)
        pos += width


def _skew_entries(A):
    """(a, b, c) for a skew A = [[a, b], [-b~, c]]; the caller checks skewness."""
    return A[0][0], A[0][1], A[1][1]


def first_bracket_closed_form(ctx: MatrixRingCtx, A, B):
    """[A, B] for skew 2x2 A, B via the closed form: [[r, s], [-s~, -r]] with
    r = b~ v - b v~ and s = v (a - c) + b (w - u)."""
    ring = ctx.ring
    a, b, c = _skew_entries(A)
    u, v, w = _skew_entries(B)
    r = ring.sub(ring.mul(ring.involute(b), v), ring.mul(b, ring.involute(v)))
    s = ring.add(ring.mul(v, ring.sub(a, c)), ring.mul(b, ring.sub(w, u)))
    return ((r, s), (ring.neg(ring.involute(s)), ring.neg(r)))


def diagonal_closed_form(ctx: MatrixRingCtx, A1, B1, A2, B2):
    """The (1,1) entry of [X1, X2] for skew A1, B1, A2, B2, in their entries:
    (v2 v1~ - v1 v2~)(a1 - c1)(c2 - a2) + (v2 b1~ - b1 v2~)(a2 - c2)(u1 - w1)
    + (v1 b2~ - b2 v1~)(w2 - u2)(a1 - c1) + (b1 b2~ - b2 b1~)(u1 - w1)(u2 - w2).
    """
    ring = ctx.ring
    a1, b1, c1 = _skew_entries(A1)
    u1, v1, w1 = _skew_entries(B1)
    a2, b2, c2 = _skew_entries(A2)
    u2, v2, w2 = _skew_entries(B2)

    def twist(p, q):
        return ring.sub(ring.mul(p, ring.involute(q)), ring.mul(q, ring.involute(p)))

    t1 = ring.mul(twist(v2, v1), ring.mul(ring.sub(a1, c1), ring.sub(c2, a2)))
    t2 = ring.mul(twist(v2, b1), ring.mul(ring.sub(a2, c2), ring.sub(u1, w1)))
    t3 = ring.mul(twist(v1, b2), ring.mul(ring.sub(w2, u2), ring.sub(a1, c1)))
    t4 = ring.mul(twist(b1, b2), ring.mul(ring.sub(u1, w1), ring.sub(u2, w2)))
    return ring.add(ring.add(t1, t2), ring.add(t3, t4))


def char2_laurent_index3_check(samples: int, degree_bound: int, seed: int,
                               base_field=None) -> MatrixReport:
    """Characteristic-2 solvability bound with sharpness, over F2[x, x^-1].

    The entries live in ``F2LaurentRing``, F2[x, x^-1] packed into bit
    masks.  Each random coefficient is one ``rng.randrange(2)`` draw in
    exponent order, so a seed gives the samples the dict ring drew, but the
    draws are read a block of words at a time (``_draw_masks``):
    ``randrange(2)`` is one ``getrandbits(2)`` per try, the top two bits of
    one 32-bit Mersenne Twister word, retried while they read 2 or 3.  So a
    draw is bit 30 of the next word whose bit 31 is clear, and
    ``getrandbits(32 * k)`` returns the next k words in order, the first one
    lowest.  The generator is local and nothing draws after the samples, so
    the words read past the last sample change nothing.

    Upper bound: for seeded random skew 8-tuples, the first-level brackets
    X_i have the closed form [[r_i, s_i], [-s_i~, -r_i]], the second-level
    brackets [X1, X2] and [X3, X4] are diagonal with the expanded entry, and
    [[X1, X2], [X3, X4]] is zero.  Sharpness: the tuple a_i = c_i = 0, b1 = 1,
    b2 = x, v_i = 0, u1 = u2 = 1, w_i = 0 gives [X1, X2] != 0.
    """
    from .scalars import field_from_spec

    fld = base_field or field_from_spec("F2")
    if fld.characteristic != 2:
        raise MatrixLabError("wrong characteristic: need 2")
    ring = F2LaurentRing()
    ctx = MatrixRingCtx(2, ring)
    rep = MatrixReport("prop3c-upper", {"samples": samples, "degree_bound": degree_bound,
                                        "seed": seed})
    rep.notes.append(
        "off-diagonal of the second-level bracket carries a factor 2, hence vanishes here; "
        "its exact subscripting is immaterial in characteristic 2"
    )

    masks = _draw_masks(random.Random(seed), 2 * degree_bound + 1)

    def rand_poly():
        return ring.from_bits(-degree_bound, next(masks))

    def rand_skew_scalar():
        h = rand_poly()
        return ring.add(h, ring.involute(h))

    def skew_mat(a, b, c):
        return ((a, b), (ring.neg(ring.involute(b)), c))

    for idx in range(samples):
        As = []
        Bs = []
        for _ in range(4):
            As.append(skew_mat(rand_skew_scalar(), rand_poly(), rand_skew_scalar()))
            Bs.append(skew_mat(rand_skew_scalar(), rand_poly(), rand_skew_scalar()))
        if not all(is_skew(ctx, M) for M in As + Bs):
            raise MatrixLabError("matrix is not skew")
        Xs = []
        for i in range(4):
            X = mat_bracket(ctx, As[i], Bs[i])
            if X != first_bracket_closed_form(ctx, As[i], Bs[i]):
                rep.failures.append(f"sample {idx}: X_{i + 1} differs from closed form")
            Xs.append(X)
        Y1 = mat_bracket(ctx, Xs[0], Xs[1])
        Y2 = mat_bracket(ctx, Xs[2], Xs[3])
        for name, Y, (Aa, Bb, Ac, Bd) in (("[X1,X2]", Y1, (As[0], Bs[0], As[1], Bs[1])),
                                          ("[X3,X4]", Y2, (As[2], Bs[2], As[3], Bs[3]))):
            if not (ring.is_zero(Y[0][1]) and ring.is_zero(Y[1][0])):
                rep.failures.append(f"sample {idx}: {name} not diagonal")
            if Y[0][0] != diagonal_closed_form(ctx, Aa, Bb, Ac, Bd):
                rep.failures.append(f"sample {idx}: {name} diagonal differs from expansion")
        if not mat_is_zero(ctx, mat_bracket(ctx, Y1, Y2)):
            rep.failures.append(f"sample {idx}: [[X1,X2],[X3,X4]] != 0")
    rep.steps_checked = samples

    # sharpness
    one = ring.one
    x = ring.x()
    A1 = skew_mat(ring.zero, one, ring.zero)
    A2 = skew_mat(ring.zero, x, ring.zero)
    B1 = skew_mat(one, ring.zero, ring.zero)
    B2 = skew_mat(one, ring.zero, ring.zero)
    X1 = mat_bracket(ctx, A1, B1)
    X2 = mat_bracket(ctx, A2, B2)
    sharp = mat_bracket(ctx, X1, X2)
    expected_diag = ring.mul(ring.sub(ring.involute(x), x), one)
    if mat_is_zero(ctx, sharp):
        rep.failures.append("sharpness instance collapsed to zero")
    if sharp[0][0] != expected_diag:
        rep.failures.append("sharpness diagonal is not (x^-1 + x) u1^2")
    rep.notes.append(f"sharpness [X1,X2] diagonal = {ring.to_str(sharp[0][0])}")
    return rep


# ----------------------------------------------------------------------
# corollary checks via flattened spans


def mat_to_vec(ctx: MatrixRingCtx, A) -> dict:
    """Flatten to sparse coordinates: (i, j) for fields, (i, j, exp) for
    Laurent entries, over the base field either way."""
    return _flatten(ctx.ring, {(i, j): A[i][j] for i in range(ctx.n) for j in range(ctx.n)})


def _flatten(ring, cells: dict) -> dict:
    """Span coordinates of the cells {(i, j): entry}, 0-indexed; zero cells
    are dropped."""
    is_zero = ring.is_zero
    if not isinstance(ring, LaurentRing):
        return {ij: x for ij, x in cells.items() if not is_zero(x)}
    return {(i, j, e): c for (i, j), x in cells.items() if not is_zero(x)
            for e, c in x.items()}


def matrix_span(ctx: MatrixRingCtx, matrices) -> Subspace:
    fld = ctx.ring.field if isinstance(ctx.ring, LaurentRing) else ctx.ring
    s = Subspace(fld)
    for M in matrices:
        s.insert(mat_to_vec(ctx, M))
    return s


def matrix_pair_op(ctx: MatrixRingCtx) -> tuple:
    """(lift, op) for the series of a matrix span, bracketing sparse cells.

    ``lift`` groups a flattened span row into its nonzero cells by row index,
    {i: [(k, entry), ...]}; ``op`` brackets two lifted rows and flattens the
    result.  [A, B] = sum of A_ik B_kj - B_ik A_kj over the cell pairs whose
    inner indices k meet, so cells that are zero cost nothing: the corollary
    spans start from rows of one or two cells.  The ring's operations are
    looked up per bracket, so a wrapper put on the ring class sees them.
    """
    ring = ctx.ring
    laurent = isinstance(ring, LaurentRing)

    def lift(vec: dict) -> dict:
        if laurent:
            cells: dict = {}
            for (i, j, e), c in vec.items():
                cells.setdefault((i, j), {})[e] = c
        else:
            cells = vec
        rows: dict = {}
        for (i, k), x in cells.items():
            rows.setdefault(i, []).append((k, x))
        return rows

    def op(A: dict, B: dict) -> dict:
        mul, add, sub, neg = ring.mul, ring.add, ring.sub, ring.neg
        out: dict = {}
        # A_ii B_ii and B_ii A_ii cancel, so i = k = j is skipped.
        for i, row in A.items():
            for k, a in row:
                for j, b in B.get(k, ()):
                    if i == k == j:
                        continue
                    p = mul(a, b)
                    x = out.get((i, j))
                    out[(i, j)] = p if x is None else add(x, p)
        for i, row in B.items():
            for k, b in row:
                for j, a in A.get(k, ()):
                    if i == k == j:
                        continue
                    p = mul(b, a)
                    x = out.get((i, j))
                    out[(i, j)] = neg(p) if x is None else sub(x, p)
        return _flatten(ring, out)

    return lift, op


def corollary_field_check(fld, depth: int = 10) -> MatrixReport:
    """Skew 2x2 matrices over a field: abelian when the characteristic is not
    2; solvable of index exactly 2 but never nilpotent in characteristic 2.
    Both series run on the flattened span, bracketing sparse cells
    (``matrix_pair_op``)."""
    ctx = MatrixRingCtx(2, fld)
    S0 = matrix_span(ctx, skew_matrix_basis(ctx))
    lift, op = matrix_pair_op(ctx)
    rep = MatrixReport("cor-field", {"field": repr(fld), "depth": depth})
    dims, vanished, _, _ = _run_series(S0, op, depth, lift=lift)
    if fld.characteristic != 2:
        if vanished != 1:
            rep.failures.append(f"expected the skew part to be abelian, dims {dims}")
    else:
        if vanished != 2:
            rep.failures.append(f"expected solvability index 2, dims {dims}")
        _check_lower_central_lives(rep, S0, lift, op, depth)
    rep.steps_checked = depth
    rep.notes.append(f"derived dims: {dims}")
    return rep


def _check_lower_central_lives(rep: MatrixReport, S0: Subspace, lift, op, depth: int) -> None:
    """Record a failure unless the lower central series stays nonzero."""
    dims, vanished, _, _ = _run_series(S0, op, depth, lower_central=True, lift=lift)
    if vanished is not None or not all(dims):
        rep.failures.append(f"lower central series died, dims {dims}")


def corollary_laurent_check(fld, degree_bound: int = 2, depth: int = 8) -> MatrixReport:
    """Skew 2x2 matrices over K[x, x^-1]: characteristic 2 gives solvability
    index exactly 3 and no nilpotency; otherwise the derived series of the
    degree-bounded span stays nonzero (the witness recursion is the proof).
    The series bracket sparse cells (``matrix_pair_op``) whose entries
    multiply through ``LaurentRing.mul``."""
    ring = LaurentRing(fld)
    ctx = MatrixRingCtx(2, ring)
    S0 = matrix_span(ctx, skew_matrix_basis(ctx, degree_bound))
    lift, op = matrix_pair_op(ctx)
    rep = MatrixReport("cor-laurent", {"field": repr(fld), "degree_bound": degree_bound,
                                       "depth": depth})
    if fld.characteristic == 2:
        dims, vanished, _, _ = _run_series(S0, op, depth, lift=lift)
        if vanished != 3:
            rep.failures.append(f"expected solvability index 3, dims {dims}")
        _check_lower_central_lives(rep, S0, lift, op, depth)
    else:
        # Entry degrees double per derived step; keep the span probe shallow
        # and let the witness recursion carry the depth.
        dims, vanished, _, _ = _run_series(S0, op, min(depth, 4), lift=lift)
        if vanished is not None:
            rep.failures.append(f"derived series vanished at {vanished}; "
                                "the degree-bounded span should stay nonzero")
        u = ring.sub(ring.x(), ring.x_inv())
        inner = witness_laurent_nonsolvable(ring, u, max(depth, 6))
        rep.failures.extend(f"witness: {f}" for f in inner.failures)
    rep.steps_checked = depth
    rep.notes.append(f"derived dims: {dims}")
    return rep
