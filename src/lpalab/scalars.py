"""Exact scalar arithmetic: prime fields, arbitrary-precision rationals, and
Laurent polynomials with the exponent-negating involution.

Field elements are plain Python values (int residues for F_p, Fraction for
the rationals) manipulated through a field object.  Laurent polynomials are
sparse {exponent: coefficient} dicts that never store a zero coefficient, so
the zero polynomial is the empty dict.  Coefficient growth is unbounded by
design: several witness recursions cube their coefficients at every step, so
fixed-width arithmetic would be a correctness bug, not an optimization.

Laurent products run on plain Python ints: each field turns a factor's
coefficients into integers over one common denominator, the product
accumulates integer multiply-adds per exponent, and the field reduces each
exponent once at the end.

``F2LaurentRing`` is F2[x, x^-1] packed into bits, for the
characteristic-2 index-3 check: in characteristic 2 addition is XOR and the
product is carry-less, so a value is one (lowest exponent, odd bit mask)
pair, a sum one XOR, and a product one XOR of shifted masks per set bit.
Everything that reads exponent-coefficient pairs keeps the dict ring.

``Z`` is the ring of integers, for path-algebra work over Q without
fractions: the skew and symmetric generators have coefficients +-1, so every
product of integer combinations is again integral, and integer echelon rows
span over Q what the rational rows span.  It offers only the ring operations
(``zero``, ``one``, ``from_int``, ``add``, ``sub``, ``mul``, ``is_zero``);
there is no ``inv``, so a caller that needs division has to scale instead.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm


class ScalarError(ValueError):
    """Bad scalar input: unknown field spec, division by zero, ring mismatch."""


class MatrixLabError(ValueError):
    """Bad matrix-case input: a matrix degree, a characteristic or a witness
    precondition that does not hold.  It lives here, not in ``matrices``, so
    that naming it loads no matrix code."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p with residues kept canonical in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ScalarError(f"not a prime: {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ScalarError("division by zero")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def involute(self, a: int) -> int:
        return a

    def parse(self, text: str) -> int:
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.mul(int(num) % self.p, self.inv(int(den) % self.p))
            return int(text) % self.p
        except ValueError as exc:
            raise ScalarError(f"bad F{self.p} scalar: {text!r}") from exc

    def to_str(self, a: int) -> str:
        return str(a % self.p)

    def integer_coeffs(self, f: dict) -> tuple:
        """(f, 1): canonical residues already are integer coefficients."""
        return f, 1

    def reduce_coeffs(self, acc: dict, den: int) -> dict:
        """Residues of the integer coefficients in acc, zeros dropped."""
        p = self.p
        return {e: r for e, c in acc.items() if (r := c % p)}


class RationalField:
    """Q with elements represented as Fraction (always reduced)."""

    def __init__(self):
        self.characteristic = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ScalarError("division by zero")
        return 1 / a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def involute(self, a: Fraction) -> Fraction:
        return a

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"bad rational scalar: {text!r}") from exc

    def to_str(self, a: Fraction) -> str:
        return str(a)

    def integer_coeffs(self, f: dict) -> tuple:
        """(ints, den) with f[e] == ints[e] / den, den the lcm of f's
        denominators."""
        den = lcm(*[c.denominator for c in f.values()])
        return {e: c.numerator * (den // c.denominator) for e, c in f.items()}, den

    def reduce_coeffs(self, acc: dict, den: int) -> dict:
        """The fractions acc[e] / den, zeros dropped."""
        return {e: Fraction(c, den) for e, c in acc.items() if c}


class IntegerRing:
    """Z, characteristic 0.  The operations are the builtin int operators,
    so loops that bind them call no Python function per coefficient."""

    characteristic = 0
    zero = 0
    one = 1
    from_int = staticmethod(int)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)

    def __repr__(self):
        return "Z"


Z = IntegerRing()

_FIELDS = {"Q": RationalField(), "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5)}


def field_from_spec(spec: str):
    """Resolve a CLI field spec ("F2", "F3", "F5", "Q") to a field object."""
    s = spec.strip()
    if s in _FIELDS:
        return _FIELDS[s]
    if s.startswith("F") and s[1:].isdigit():
        return PrimeField(int(s[1:]))
    raise ScalarError(f"unknown field spec: {spec!r}")


def field_of_characteristic(c: int):
    """Field with the given characteristic: Q for 0, F_p for prime p."""
    if c == 0:
        return _FIELDS["Q"]
    if not _is_prime(c):
        raise ScalarError(f"characteristic must be 0 or a prime, got {c}")
    return _FIELDS.get(f"F{c}", None) or PrimeField(c)


class LaurentRing:
    """K[x, x^-1] over an exact base field, with the involution x -> x^-1.

    Values are sparse dicts {exponent: nonzero coefficient}.  All methods
    return fresh canonical dicts; inputs are never mutated.
    """

    def __init__(self, field):
        self.field = field
        self.characteristic = field.characteristic
        self.zero = {}
        self.one = {0: field.one}

    def __repr__(self):
        return f"{self.field!r}[x,x^-1]"

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and other.field == self.field

    def __hash__(self):
        return hash(("laurent", self.field))

    def monomial(self, exp: int, coeff=None) -> dict:
        c = self.field.one if coeff is None else coeff
        return {} if self.field.is_zero(c) else {exp: c}

    def x(self) -> dict:
        return self.monomial(1)

    def x_inv(self) -> dict:
        return self.monomial(-1)

    def from_int(self, n: int) -> dict:
        return self.monomial(0, self.field.from_int(n))

    def add(self, f: dict, g: dict) -> dict:
        out = dict(f)
        add = self.field.add
        is_zero = self.field.is_zero
        for e, c in g.items():
            if e in out:
                s = add(out[e], c)
                if is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return out

    def neg(self, f: dict) -> dict:
        neg = self.field.neg
        return {e: neg(c) for e, c in f.items()}

    def sub(self, f: dict, g: dict) -> dict:
        out = dict(f)
        fld = self.field
        sub, neg, is_zero = fld.sub, fld.neg, fld.is_zero
        for e, c in g.items():
            if e in out:
                s = sub(out[e], c)
                if is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = neg(c)
        return out

    def mul(self, f: dict, g: dict) -> dict:
        if not f or not g:
            return {}
        fld = self.field
        fi, f_den = fld.integer_coeffs(f)
        gi, g_den = fld.integer_coeffs(g)
        g_terms = gi.items()
        acc: dict = {}
        for e1, c1 in fi.items():
            for e2, c2 in g_terms:
                e = e1 + e2
                if e in acc:
                    acc[e] += c1 * c2
                else:
                    acc[e] = c1 * c2
        return fld.reduce_coeffs(acc, f_den * g_den)

    def involute(self, f: dict) -> dict:
        return {-e: c for e, c in f.items()}

    def is_zero(self, f: dict) -> bool:
        return not f

    def to_str(self, f: dict) -> str:
        if not f:
            return "0"
        parts = []
        for e in sorted(f):
            c = f[e]
            cs = self.field.to_str(c)
            if e == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(f"x^{e}" if e != 1 else "x")
            else:
                parts.append(f"{cs}*x^{e}" if e != 1 else f"{cs}*x")
        return " + ".join(parts)


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
