"""Field and Laurent arithmetic: canonical forms, axioms, involution laws."""

import random
from fractions import Fraction

import pytest

from lpalab import (
    LaurentRing,
    PrimeField,
    ScalarError,
    field_from_spec,
    field_of_characteristic,
)
from lpalab import scalars
from lpalab.matrices import F2LaurentLanes, MatrixRingCtx, is_skew, mat_bracket
from helpers import (
    assert_canonical_lanes,
    assert_canonical_laurent,
    f2_lane,
    f2_lanes,
    grid,
    lane_matrix,
    random_field_elem,
    random_laurent,
    ref_laurent_add,
    ref_laurent_mul,
    ref_laurent_sub,
)

FIELDS = [field_from_spec(s) for s in ("F2", "F3", "F5", "Q")]


def test_prime_field_basics():
    f3 = field_from_spec("F3")
    assert f3.add(2, 2) == 1
    f2 = field_from_spec("F2")
    assert f2.add(1, 1) == 0
    q = field_from_spec("Q")
    assert q.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_inverse_of_zero_rejected():
    for fld in FIELDS:
        with pytest.raises(ScalarError):
            fld.inv(fld.zero)


def test_field_specs():
    assert field_from_spec("Q").characteristic == 0
    assert field_from_spec("F5").characteristic == 5
    assert field_of_characteristic(0) == field_from_spec("Q")
    assert field_of_characteristic(3) == field_from_spec("F3")
    with pytest.raises(ScalarError):
        field_from_spec("F4")
    with pytest.raises(ScalarError):
        PrimeField(6)


def test_is_prime_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    assert [p for p in range(10 ** 5) if scalars._is_prime(p)] == [
        p for p in range(10 ** 5) if trial(p)]
    # Strong pseudoprimes to every prime base up to 31 and 37, and primes.
    assert not scalars._is_prime(3825123056546413051)
    assert not scalars._is_prime(318665857834031151167461)
    assert all(scalars._is_prime(p) for p in (2 ** 61 - 1, 10 ** 17 + 3, 10 ** 24 + 7))


def test_large_field_specs_are_decided_or_refused():
    assert field_from_spec("F100000000000000003").characteristic == 10 ** 17 + 3
    assert field_of_characteristic(10 ** 17 + 3).characteristic == 10 ** 17 + 3
    # Miller-Rabin on the bases up to 41 is exact only below 3.3e24.
    with pytest.raises(ScalarError, match="only below 3.3e24"):
        field_from_spec("F3317044064679887385961981")
    with pytest.raises(ScalarError, match="only below 3.3e24"):
        field_of_characteristic(10 ** 4000)
    # The digit count is checked before int() reads the digits.
    with pytest.raises(ScalarError, match="of 5000 digits is too large"):
        field_from_spec("F" + "9" * 5000)


def test_field_axioms_random():
    rng = random.Random(7)
    for fld in FIELDS:
        for _ in range(200):
            if fld.characteristic == 0:
                a, b, c = (Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3))
            else:
                a, b, c = (rng.randrange(fld.p) for _ in range(3))
            assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            assert fld.add(a, fld.neg(a)) == fld.zero
            if not fld.is_zero(a):
                assert fld.mul(a, fld.inv(a)) == fld.one


def _random_laurent(ring, rng, span=4):
    out = {}
    for e in range(-span, span + 1):
        if rng.random() < 0.4:
            c = random_coeff(ring.field, rng)
            if not ring.field.is_zero(c):
                out[e] = c
    return out


def random_coeff(fld, rng):
    if fld.characteristic == 0:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(fld.p)


def test_laurent_unit_relation():
    ring = LaurentRing(field_from_spec("Q"))
    assert ring.mul(ring.x(), ring.x_inv()) == ring.one


def test_laurent_square_char2_frobenius():
    ring = LaurentRing(field_from_spec("F2"))
    f = ring.add(ring.x(), ring.x_inv())
    sq = ring.mul(f, f)
    # independent cross-check by direct convolution over F2
    expect = {}
    for e1, c1 in f.items():
        for e2, c2 in f.items():
            expect[e1 + e2] = (expect.get(e1 + e2, 0) + c1 * c2) % 2
    expect = {e: c for e, c in expect.items() if c}
    assert sq == expect == {2: 1, -2: 1}


def test_laurent_shift():
    ring = LaurentRing(field_from_spec("Q"))
    f = ring.sub(ring.x(), ring.x_inv())
    assert ring.mul(f, ring.x()) == {2: Fraction(1), 0: Fraction(-1)}


def test_laurent_involution_examples():
    ring = LaurentRing(field_from_spec("Q"))
    f = {1: Fraction(1), 3: Fraction(2)}
    assert ring.involute(f) == {-1: Fraction(1), -3: Fraction(2)}
    const = ring.monomial(0, Fraction(5))
    assert ring.involute(const) == const


def test_laurent_involution_laws_random():
    rng = random.Random(11)
    for fld in FIELDS:
        ring = LaurentRing(fld)
        for _ in range(1000):
            f = _random_laurent(ring, rng)
            g = _random_laurent(ring, rng)
            assert ring.involute(ring.involute(f)) == f
            assert ring.involute(ring.mul(f, g)) == ring.mul(ring.involute(f), ring.involute(g))


def test_laurent_canonical_zero():
    ring = LaurentRing(field_from_spec("F3"))
    f = {0: 1, 2: 2}
    g = {0: 2, 2: 1}
    assert ring.add(f, g) == {}
    assert ring.is_zero(ring.add(f, g))


def test_laurent_coefficient_growth_exact():
    # v' = 4 v^3 starting from x - x^-1: degrees triple, coefficients explode,
    # and everything must stay exact and agree with the schoolbook reference;
    # in characteristic 2 the factor 4 kills v after one step.
    for fld in FIELDS:
        ring = LaurentRing(fld)
        v = w = ring.sub(ring.x(), ring.x_inv())
        four = ring.from_int(4)
        for _ in range(5):
            v = ring.mul(ring.monomial(0, fld.from_int(4)), ring.mul(v, ring.mul(v, v)))
            w = ref_laurent_mul(fld, four, ref_laurent_mul(fld, w, ref_laurent_mul(fld, w, w)))
            assert v == w
            assert_canonical_laurent(fld, v)
        if fld.characteristic == 2:
            assert v == {}
        else:
            assert max(v) == 3 ** 5
            assert ring.involute(v) == ring.neg(v)


def test_laurent_printing():
    ring = LaurentRing(field_from_spec("Q"))
    f = {-1: Fraction(1), 3: Fraction(2)}
    assert ring.to_str(f) == "x^-1 + 2*x^3"
    assert ring.to_str({}) == "0"


def _check_against_reference(ring, f, g):
    fld = ring.field
    for op, ref in ((ring.mul, ref_laurent_mul), (ring.add, ref_laurent_add),
                    (ring.sub, ref_laurent_sub)):
        f_before, g_before = dict(f), dict(g)
        got = op(f, g)
        assert got == ref(fld, f, g)
        assert_canonical_laurent(fld, got)
        assert f == f_before and g == g_before


def test_laurent_ops_match_schoolbook_reference():
    rng = random.Random(2024)
    for fld in FIELDS:
        ring = LaurentRing(fld)
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 7), (7, 1), (5, 5), (13, 13)]
        for _ in range(60):
            shapes.append((rng.randint(0, 9), rng.randint(0, 9)))
        for nf, ng in shapes:
            f = random_laurent(fld, rng, nf)
            g = random_laurent(fld, rng, ng)
            _check_against_reference(ring, f, g)
        # 40-term dense factors
        for _ in range(3):
            f = random_laurent(fld, rng, 40, -20, 19)
            g = random_laurent(fld, rng, 40, -25, 14)
            _check_against_reference(ring, f, g)


def test_laurent_ops_cancel_to_zero():
    for fld in FIELDS:
        ring = LaurentRing(fld)
        one, x, x_inv = ring.one, ring.x(), ring.x_inv()
        f = ring.add(x, one)
        # (x + 1)(x - 1) = x^2 - 1: the x terms cancel (in F2 it is (x + 1)^2)
        g = ring.sub(x, one)
        _check_against_reference(ring, f, g)
        assert 1 not in ring.mul(f, g)
        # (x + x^-1)(x - x^-1) = x^2 - x^-2: the constant terms cancel
        _check_against_reference(ring, ring.add(x, x_inv), ring.sub(x, x_inv))
        assert 0 not in ring.mul(ring.add(x, x_inv), ring.sub(x, x_inv))
        rng = random.Random(5)
        for _ in range(20):
            h = random_laurent(fld, rng, rng.randint(1, 8))
            assert ring.sub(h, h) == {} == ref_laurent_sub(fld, h, h)
            assert ring.add(h, ring.neg(h)) == {}
            # an operand whose added constant cancelled again, against -h
            back = ring.sub(ring.add(h, one), one)
            assert back == h
            _check_against_reference(ring, back, ring.neg(h))


def test_laurent_mul_rational_denominators():
    ring = LaurentRing(field_from_spec("Q"))
    f = {-2: Fraction(1, 6), 1: Fraction(-3, 4)}
    g = {2: Fraction(6), -1: Fraction(4, 3), 0: Fraction(-5, 7)}
    got = ring.mul(f, g)
    assert got == ref_laurent_mul(ring.field, f, g)
    # x^0: 1/6 * 6 - 3/4 * 4/3 cancels, so exponent 0 is not stored
    assert 0 not in got and got[-3] == Fraction(2, 9) and got[1] == Fraction(15, 28)
    assert_canonical_laurent(ring.field, got)


def _record_kronecker(monkeypatch) -> list:
    """Wrap scalars._kronecker_mul; the list gets True for each product it
    made and False for each it handed back to the schoolbook loop."""
    taken = []
    kronecker = scalars._kronecker_mul

    def wrapper(f, g):
        out = kronecker(f, g)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(scalars, "_kronecker_mul", wrapper)
    return taken


def _spread_laurent(fld, rng, terms, span, step, low, big=False):
    """terms nonzero coefficients at distinct exponents low + step * i,
    0 <= i < span; big gives rationals with 160-bit numerators."""
    out = {}
    for i in rng.sample(range(span), terms):
        c = fld.zero
        while fld.is_zero(c):
            c = (Fraction(rng.getrandbits(160) - 2 ** 159, rng.randint(1, 9)) if big
                 else random_field_elem(fld, rng))
        out[low + step * i] = c
    return out


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_laurent_mul_kronecker_matches_schoolbook(fld, monkeypatch):
    # Dense and sparse factors with negative exponents, exponent steps 1-3
    # and one-term operands, on both sides of the packing guard.
    rng = random.Random(77)
    ring = LaurentRing(fld)
    taken = _record_kronecker(monkeypatch)
    sizes = (1, 2, 17, 33, 48, 70)
    for case in range(40):
        step, big = rng.randint(1, 3), fld.characteristic == 0 and case % 2 == 1
        f, g = (_spread_laurent(fld, rng, n, n * rng.choice((1, 1, 2, 6)), step,
                                rng.randint(-90, 10), big)
                for n in (rng.choice(sizes), rng.choice(sizes)))
        got = ring.mul(f, g)
        assert got == ref_laurent_mul(fld, f, g)
        assert_canonical_laurent(fld, got)
    assert True in taken and False in taken


@pytest.mark.parametrize("fld", [field_from_spec("Q"), PrimeField(8191)], ids=repr)
def test_laurent_mul_kronecker_slots_hold_the_largest_sums(fld, monkeypatch):
    # All-equal coefficients of the largest size for their bit length put
    # 63 equal products into the middle slots, the most a slot is sized
    # for.  Over Q the slot widths bf + bg + 7 take every residue mod 8, so
    # a slot one bit narrower loses a byte in some case; the signs test the
    # bias.  Over F_p, p = 2^13 - 1, the width is 13 + 13 + 7 = 33 bits.
    ring = LaurentRing(fld)
    taken = _record_kronecker(monkeypatch)
    if fld.characteristic == 0:
        cases = [(sf * (2 ** bf - 1), sg * (2 ** bg - 1)) for bf in range(1, 18)
                 for bg in (bf, bf + 1) for sf, sg in ((1, 1), (-1, 1), (-1, -1))]
    else:
        cases = [(fld.p - 1, fld.p - 1)]
    for c, d in cases:
        f = {-70 + 2 * i: fld.from_int(c) for i in range(63)}
        g = {5 + 2 * j: fld.from_int(d) for j in range(127)}
        pairs_at = {}
        for i in range(63):
            for j in range(127):
                pairs_at[i + j] = pairs_at.get(i + j, 0) + 1
        want = {-65 + 2 * k: fld.from_int(c * d * n) for k, n in pairs_at.items()}
        assert ring.mul(f, g) == want
    assert taken == [True] * len(cases)


def _integer_laurent(rng, terms, low, high, bits):
    """terms nonzero integers of up to ``bits`` bits, either sign, at
    distinct exponents in [low, high]."""
    return {e: rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1)
            for e in rng.sample(range(low, high + 1), terms)}


def test_integer_laurent_ops_match_schoolbook_reference(monkeypatch):
    # LaurentRing(Z) is where prop3d over Q runs.  Small and dense factors,
    # small and 200-bit coefficients, and a difference that cancels.
    rng = random.Random(31)
    Z, ring = scalars.Z, LaurentRing(scalars.Z)
    taken = _record_kronecker(monkeypatch)
    shapes = [(0, 0), (0, 3), (1, 1), (5, 7), (40, 40), (70, 50)]
    for nf, ng in shapes * 4:
        bits = rng.choice((1, 8, 64, 200))
        f, g = (_integer_laurent(rng, n, -40, 39, bits) for n in (nf, ng))
        for op, ref in ((ring.mul, ref_laurent_mul), (ring.add, ref_laurent_add),
                        (ring.sub, ref_laurent_sub)):
            got = op(f, g)
            assert got == ref(Z, f, g)
            assert all(type(c) is int and c for c in got.values())
        assert ring.sub(f, f) == {} == ring.add(f, ring.neg(f))
        assert ring.involute(ring.involute(f)) == f
    assert True in taken and False in taken


def test_kronecker_square_packs_once_and_matches_schoolbook(monkeypatch):
    # f times itself for dense f of n terms and b-bit coefficients: from
    # n = 16 LaurentRing.mul offers the product (256 term pairs), from n = 32
    # it has 16 pairs a slot, and slots of 2b + 7 bits (n = 32..63) pass 256
    # bits at b = 125, where 32 pairs a slot are needed.  A square that packs
    # goes through one _pack, and equals the product of f with a copy of
    # itself, which packs both factors.
    rng = random.Random(59)
    ring = LaurentRing(scalars.Z)
    taken = _record_kronecker(monkeypatch)
    packs = []
    pack = scalars._pack
    monkeypatch.setattr(scalars, "_pack", lambda *a: packs.append(1) or pack(*a))
    outcomes = {}
    for n in (15, 16, 31, 32, 40, 63, 64, 70):
        for b in (1, 60, 124, 125, 200):
            f = _integer_laurent(rng, n, -n // 2, n - n // 2 - 1, b)
            f[max(f)] = 2 ** b - 1
            want = ref_laurent_mul(scalars.Z, f, f)
            del packs[:], taken[:]
            assert ring.mul(f, f) == want
            outcomes[n, b] = tuple(taken)
            assert len(packs) == (1 if taken == [True] else 0), (n, b)
            assert ring.mul(f, dict(f)) == want
            assert taken[1:] == taken[:1] and len(packs) == 3 * (taken == [True] * 2)
    assert (outcomes[15, 1], outcomes[16, 1], outcomes[31, 1]) == ((), (False,), (False,))
    assert outcomes[32, 124] == outcomes[40, 124] == outcomes[64, 200] == (True,)
    assert outcomes[32, 125] == outcomes[63, 200] == (False,)


F2 = field_from_spec("F2")


def _packed_pairs(rng):
    """F2 dict polynomial pairs: zero, single terms, all-negative exponents,
    equal low ends, full cancellation, and factors with 20 or more terms."""
    x3, x_2, one = {3: 1}, {-2: 1}, {0: 1}
    pairs = [({}, {}), ({}, x3), (x_2, {}), (x3, x_2), (one, one), (x3, x3),
             ({0: 1, 1: 1, 5: 1}, {0: 1, 1: 1}), ({-1: 1, 1: 1}, {1: 1, -1: 1})]
    for _ in range(150):
        kind = rng.randrange(4)
        if kind == 0:
            f, g = (random_laurent(F2, rng, rng.randint(0, 8), -30, -1) for _ in range(2))
        elif kind == 1:
            f = random_laurent(F2, rng, rng.randint(1, 8), -9, 9)
            g = random_laurent(F2, rng, rng.randint(0, 8), min(f) + 1, min(f) + 12)
            g[min(f)] = 1
        elif kind == 2:
            f, g = (random_laurent(F2, rng, rng.randint(20, 30), -40, 40) for _ in range(2))
        else:
            f, g = (random_laurent(F2, rng, rng.randint(0, 9), -9, 9) for _ in range(2))
        pairs += [(f, g), (f, dict(f))]
    return pairs


def test_packed_f2_laurent_matches_dict_ring_and_reference():
    # Every pair is one lane of F2LaurentLanes, so lanes cancel at one
    # exponent and not at another within a single operation.
    rng = random.Random(41)
    ring = LaurentRing(F2)
    pairs = _packed_pairs(rng)
    n = len(pairs)
    lanes = F2LaurentLanes(n)
    assert lanes.zero == {} and all(f2_lane(lanes.one, s) == ring.one for s in range(n))
    assert lanes.one == {0: (1 << n) - 1}
    F, G = f2_lanes(f for f, _ in pairs), f2_lanes(g for _, g in pairs)
    widest = 0
    for op, ref, dict_op in ((lanes.add, ref_laurent_add, ring.add),
                             (lanes.sub, ref_laurent_sub, ring.sub),
                             (lanes.mul, ref_laurent_mul, ring.mul)):
        got = op(F, G)
        assert_canonical_lanes(got, n)
        for s, (f, g) in enumerate(pairs):
            want = ref(F2, f, g)
            assert dict_op(f, g) == want
            assert f2_lane(got, s) == want
            widest = max(widest, len(want))
    for H, hs in ((F, [f for f, _ in pairs]), (G, [g for _, g in pairs])):
        inv = lanes.involute(H)
        assert_canonical_lanes(inv, n)
        assert lanes.neg(H) == H
        for s, h in enumerate(hs):
            assert f2_lane(inv, s) == ring.involute(h)
            assert ring.neg(h) == h
            assert lanes.is_zero(f2_lanes([h])) == ring.is_zero(h)
    assert widest > 20


def test_packed_f2_laurent_from_bits():
    lanes = F2LaurentLanes(3)
    assert lanes.from_bits(-3, [0, 0, 0]) == lanes.zero
    assert lanes.from_bits(-3, [0, 0, 0b1, 0, 0b1]) == {-1: 1, 1: 1}
    v = lanes.from_bits(-3, [0, 0b011, 0b111, 0, 0b001])
    assert_canonical_lanes(v, 3)
    ring = LaurentRing(F2)
    assert ring.to_str(f2_lane(v, 0)) == "x^-2 + x^-1 + x"
    assert ring.to_str(f2_lane(v, 1)) == "x^-2 + x^-1"
    assert ring.to_str(f2_lane(v, 2)) == "x^-1"


def _skew_pair(rng):
    """One random skew 2x2 matrix [[a, b], [b~, c]] over LaurentRing(F2),
    with a~ = a and c~ = c."""
    ring = LaurentRing(F2)
    h1, h2, b = (random_laurent(F2, rng, rng.randint(0, 6), -4, 4) for _ in range(3))
    a, c = (ring.add(h, ring.involute(h)) for h in (h1, h2))
    return grid([[a, b], [ring.involute(b), c]])


def test_packed_f2_laurent_mat_bracket_matches_dict_ring():
    # 200 random skew pairs, one lane each.
    rng = random.Random(43)
    dctx, lctx = MatrixRingCtx(2, LaurentRing(F2)), MatrixRingCtx(2, F2LaurentLanes(200))
    As, Bs = zip(*((_skew_pair(rng), _skew_pair(rng)) for _ in range(200)))
    A, B = lane_matrix(As), lane_matrix(Bs)
    assert is_skew(lctx, A) and all(is_skew(dctx, M) for M in As)
    got = mat_bracket(lctx, A, B)
    for s in range(200):
        want = mat_bracket(dctx, As[s], Bs[s])
        for got_row, want_row in zip(got, want):
            for g, w in zip(got_row, want_row):
                assert_canonical_lanes(g, 200)
                assert f2_lane(g, s) == w
    assert is_skew(lctx, got)
