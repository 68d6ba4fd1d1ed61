"""F2[x, x^-1] packed into bits, and the coin flips that fill it, for the
characteristic-2 index-3 check in ``matrices``, their only user.

In characteristic 2 addition is XOR and the product is carry-less, so a
value is one (lowest exponent, odd bit mask) pair, a sum one XOR, and a
product one XOR of shifted masks per set bit.  Everything that reads
exponent-coefficient pairs keeps the dict ring ``scalars.LaurentRing``.

This is a module of its own, loaded with ``matrices``, because a module is
compiled whole: compiling these lines as part of ``matrices`` raised the
memory high-water mark of the first ``matrix`` command.
"""

from __future__ import annotations

import random


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
    ``matrices.char2_laurent_index3_check`` gives the argument.  Blocks are
    read ahead, so ``rng`` ends up past the draws handed out."""
    words, buf, pos = 2048, b"", 0
    while True:
        if len(buf) - pos < width:
            block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            buf, pos = buf[pos:] + block[3::4].translate(_DRAW_DIGITS, _REJECTED), 0
            continue
        yield int(buf[pos:pos + width][::-1] or b"0", 2)
        pos += width
