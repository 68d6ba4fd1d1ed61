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
exponent once at the end.  Dense products go through Kronecker substitution
instead (``_kronecker_mul``): each factor is packed into one int with a
fixed-width slot per exponent step, and a single big-int product, which
CPython does by Karatsuba, yields every coefficient at once.  On random
factors (2-core Xeon, Python 3.11) packing beat the multiply-add loop from
about 8 term pairs per output slot with coefficients of up to 64 bits, and
at 16 pairs a slot by 1.1-5x while slots were at most 256 bits wide; wider
slots needed about 32 pairs a slot.  So it is used from 256 term pairs and
16 pairs a slot (32 past 256-bit slots).  The witness recursion v' = 4v^3
multiplies dense factors of up to 244 terms, with about 120 pairs a slot.

``Z`` is the ring of integers, for work over Q where every product stays
integral (the probe's +-1 generators, the Laurent witness from x - x^-1); it
has no ``inv``, so a caller that needs division scales instead.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm


class ScalarError(ValueError):
    """Bad scalar input: unknown field spec, division by zero, ring mismatch."""


class MatrixLabError(ValueError):
    """Bad matrix-case input: a matrix degree, a characteristic or a witness
    precondition that does not hold.  It lives here, not in ``matrices``, so
    that naming it loads no matrix code."""


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, exact below 3.3e24 (Sorenson
    and Webster, Math. Comp. 86, 2017); a larger p raises ScalarError."""
    if p >= 3317044064679887385961981:
        raise ScalarError(f"primality is decided only below 3.3e24 (got {p.bit_length()} bits)")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    d = (p - 1) // ((p - 1) & (1 - p))  # p - 1 = d 2^r with d odd
    for b in bases:
        x, e = pow(b, d, p), d
        while e != p - 1 and x not in (1, p - 1):
            x, e = x * x % p, 2 * e
        if x != p - 1 and e != d:
            return False
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
    neg = staticmethod(operator.neg)
    is_zero = staticmethod(operator.not_)
    to_str = staticmethod(str)

    def integer_coeffs(self, f: dict) -> tuple:
        return f, 1

    def reduce_coeffs(self, acc: dict, den: int) -> dict:
        return {e: c for e, c in acc.items() if c}

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
        if len(s) > 26:  # past _is_prime's bound, and int() of a long string is slow
            raise ScalarError(f"field characteristic of {len(s) - 1} digits is too large")
        return PrimeField(int(s[1:]))
    raise ScalarError(f"unknown field spec: {spec!r}")


def field_of_characteristic(c: int):
    """Field with the given characteristic: Q for 0, F_p for prime p."""
    if c == 0:
        return _FIELDS["Q"]
    if not _is_prime(c):
        raise ScalarError(f"characteristic must be 0 or a prime, got {c}")
    return _FIELDS.get(f"F{c}", None) or PrimeField(c)


def _pack(f: dict, low: int, step: int, slots: int, width: int) -> int:
    """The integer sum of f[e] * 2^(8 * width * k), k = (e - low) / step:
    positive and negative coefficients go into separate byte strings."""
    zero = bytes(width)
    pos, neg = [zero] * slots, [zero] * slots
    for e, c in f.items():
        if c > 0:
            pos[(e - low) // step] = c.to_bytes(width, "little")
        else:
            neg[(e - low) // step] = (-c).to_bytes(width, "little")
    return int.from_bytes(b"".join(pos), "little") - int.from_bytes(b"".join(neg), "little")


def _kronecker_mul(f: dict, g: dict):
    """The product of the integer Laurent polynomials f and g as
    {exponent: nonzero coefficient}, from one big-int product, or None
    when there are too few term pairs per output exponent for that to pay.

    Exponents are taken in units of their common step.  Each output slot is
    a whole number of bytes, wide enough for a sum of min(len f, len g)
    products plus a sign bit; adding half a slot, 2^(8 * width - 1), to
    every slot makes all slots nonnegative, so one ``to_bytes`` splits the
    product into its slots.
    """
    lf, lg = min(f), min(g)
    step = gcd(*[e - lf for e in f], *[e - lg for e in g])
    nf, ng = (max(f) - lf) // step + 1, (max(g) - lg) // step + 1
    slots, pairs = nf + ng - 1, len(f) * len(g)
    if pairs < 16 * slots:
        return None
    bits = (max(map(abs, f.values())).bit_length() + max(map(abs, g.values())).bit_length()
            + min(len(f), len(g)).bit_length() + 1)
    # Wide slots make the zero padding dear: past 256 bits the break-even
    # rises to about 32 pairs a slot (see the module docstring).
    if bits > 256 and pairs < 32 * slots:
        return None
    width = (bits + 7) // 8
    bias = bytes(width - 1) + b"\x80"
    pf = _pack(f, lf, step, nf, width)  # a square packs once; CPython squares faster
    prod = (pf * (pf if g is f else _pack(g, lg, step, ng, width))
            + int.from_bytes(bias * slots, "little"))
    buf = prod.to_bytes(width * slots, "little")
    half, low = 1 << (8 * width - 1), lf + lg
    return {low + k * step: c for k in range(slots)
            if (c := int.from_bytes(buf[k * width:(k + 1) * width], "little") - half)}


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
        # The length test first: most products are far too small to pack.
        acc = _kronecker_mul(fi, gi) if len(fi) * len(gi) >= 256 else None
        if acc is None:
            g_terms = gi.items()
            acc = {}
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
