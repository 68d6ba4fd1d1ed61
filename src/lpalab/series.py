"""Exact sparse linear algebra over ordered coordinate keys, and the derived /
lower central series built on it: one loop, ``_run_series``, runs every
series, and one report, ``SeriesReport``, carries a probe and sets its caveat.

A Subspace is a canonical reduced echelon basis: rows are sparse dicts
{key: coefficient}, the pivot of each row is its least key under the supplied
order, pivots strictly increase down the row list, and every pivot appears in
no other row.  The coefficient ring fixes the scale of each row, in one of
two canonical forms:

- over a field the row is monic: its pivot coefficient is one;
- over the integers ``Z`` the row is primitive (the gcd of its coefficients
  is 1) with a positive pivot coefficient, i.e. the monic row over Q times
  the least positive integer that clears its denominators.

Either way two subspaces are equal iff their row lists are identical, so a
series stops at the first step that repeats its predecessor, and the witness
of a step (its first row) is the least-pivot row of that canonical basis.

The same machinery serves the path algebra (keys are monomials) and the
matrix rings (keys are entry coordinates, possibly with a Laurent exponent).
Path-algebra probes over Q run on ``Z``: products and elimination stay
fraction-free (in the manner of Bareiss, Math. Comp. 22, 1968), and only the
witness row is turned back into its monic rational form for display.

The probe's rows are skew (x* = -x) or symmetric (x* = x), so it keeps each
only on H = {m : key(m) <= key(m*)} (len(lam) > len(nu), or equal and
lam <= nu): the m* term repeats the m term, negated on skew rows away from
characteristic 2, which fix no m = m*; and a row's least key lies in H, so a
reduced echelon basis projects onto that of the projected span.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .algebra import LeavittAlgebra, Element, mono_order_key
from .graphs import Graph, is_acyclic
from .scalars import Z


class SeriesError(ValueError):
    pass


class ModeUnavailableError(SeriesError):
    """The requested computation mode does not apply to this graph (exact
    mode on a graph with a cycle)."""


class Subspace:
    """Reduced echelon span of sparse rows over an exact field or over ``Z``.

    ``rows`` lists the basis in increasing pivot order; ``_pivot_keys`` holds
    the sort key of each row's pivot in the same order (for bisection), and
    ``_pivot_row`` maps each pivot to its row.  Because every pivot column is
    zero in all rows but its own, clearing one pivot from a vector never brings
    in another, so a reduction is one pass over the vector's pivot columns.

    Rows are monic over a field and primitive with a positive pivot over
    ``Z``: unique for a span, and kept so by the probe's projection onto H.
    """

    __slots__ = ("field", "key", "rows", "_pivot_keys", "_pivot_row")

    def __init__(self, fld, key: Callable = None):
        self.field = fld
        self.key = key
        self.rows: list = []
        self._pivot_keys: list = []
        self._pivot_row: dict = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _axpy(self, row: dict, c, other: dict, d):
        """row <- d * row - c * other, in place, where d is the pivot
        coefficient of other and c the entry of row in that column.  Over a
        field d is one; over Z (c, d) are first divided by their gcd."""
        if d != 1:
            g = gcd(c, d)
            c //= g
            d //= g
            if d != 1:
                for k in row:
                    row[k] *= d
        f = self.field
        sub, mul, is_zero, zero = f.sub, f.mul, f.is_zero, f.zero
        get, pop = row.get, row.pop
        for k, v in other.items():
            s = sub(get(k, zero), mul(c, v))
            if is_zero(s):
                pop(k, None)
            else:
                row[k] = s

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec against the current basis (vec not mutated).
        Over Z it is a nonzero multiple of the remainder over Q."""
        row = dict(vec)
        pivot_row = self._pivot_row
        for p in vec:
            r = pivot_row.get(p)
            if r is not None:
                # Other rows are zero at p, so clearing p brings in no pivot.
                self._axpy(row, row[p], r, r[p])
        return row

    def insert(self, vec: dict) -> bool:
        """Add one row; returns True when the dimension grew."""
        row = self.reduce(vec)
        if not row:
            return False
        f = self.field
        key = self.key
        p = min(row, key=key) if key is not None else min(row)
        integral = f is Z
        if integral:
            _divide_content(row, -1 if row[p] < 0 else 1)
        else:
            inv, mul = f.inv(row[p]), f.mul
            row = {k: mul(inv, v) for k, v in row.items()}
        # eliminate the new pivot from every existing row
        d = row[p]
        for r in self.rows:
            c = r.get(p)
            if c is not None:
                self._axpy(r, c, row, d)
                if integral:
                    _divide_content(r)
        pk = key(p) if key is not None else p
        i = bisect_right(self._pivot_keys, pk)
        self._pivot_keys.insert(i, pk)
        self.rows.insert(i, row)
        self._pivot_row[p] = row
        return True

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.rows == other.rows


def _divide_content(row: dict, sign: int = 1) -> None:
    """Divide an integer row in place by sign times the gcd of its entries."""
    g = sign * gcd(*row.values())
    if g != 1:
        for k in row:
            row[k] //= g


def product_span(S: Subspace, T: Subspace, pair_op: Callable, same: bool = False,
                 symmetric: bool = False, lift: Callable = None) -> Subspace:
    """Span of pair_op over all row pairs (bilinearity makes rows sufficient).

    With same=True and an alternating op only the strict upper triangle is
    needed; a symmetric op also needs the diagonal.  ``lift``, when given, is
    applied once to each row of S and of T, not once per pair, and pair_op
    receives the lifted rows: matrix spans group a row into cells, the probe
    rebuilds a half row whole.  pair_op returns a plain row either way.
    """
    out = Subspace(S.field, S.key)
    rows = S.rows if lift is None else [lift(r) for r in S.rows]
    if same:
        n = len(rows)
        for i in range(n):
            start = i if symmetric else i + 1
            for j in range(start, n):
                v = pair_op(rows[i], rows[j])
                if v:
                    out.insert(v)
    else:
        t_rows = T.rows if lift is None else [lift(r) for r in T.rows]
        for a in rows:
            for b in t_rows:
                v = pair_op(a, b)
                if v:
                    out.insert(v)
    return out


class SeriesReport:
    """Dimensions of one solvability/nilpotency series run.

    dims[k] is the dimension at step k (step 0 = the starting span).  A
    series that reaches a fixed point ends at the first step whose span
    equals its predecessor's; exact-mode steps are nested, so there that is
    the first repeated dimension.  In truncated mode a nonzero step is sound
    evidence while a vanishing step is not conclusive; the caveat says so.
    ``stabilized`` marks a series that reached a fixed nonzero subspace,
    which is definitive non-vanishing.  ``witness_text`` shows the
    least-pivot row of the last nonzero step's reduced echelon basis.
    """

    def __init__(self, kind: str, mode: str, dims: list, vanished_at: Optional[int] = None,
                 witness_text: Optional[str] = None, stabilized: bool = False,
                 weight: Optional[int] = None):
        self.kind = kind
        self.mode = mode
        self.dims = dims
        self.vanished_at = vanished_at
        self.witness_text = witness_text
        self.stabilized = stabilized
        self.weight = weight
        self.caveat = None
        if mode.startswith("truncated"):
            self.caveat = "truncated computation: " + (
                "a vanishing step bounds nothing; nonzero steps are sound"
                if vanished_at is not None else "nonzero steps are sound lower-bound evidence")
        elif stabilized:
            self.caveat = "series reached a fixed nonzero subspace; it never vanishes"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode if self.weight is None else f"{self.mode}({self.weight})",
            "dims": list(self.dims),
            "vanished_at": self.vanished_at,
            "witness": self.witness_text,
            "caveat": self.caveat,
        }


def _run_series(S0: Subspace, pair_op: Callable, max_depth, lower_central: bool = False,
                symmetric_op: bool = False, lift: Callable = None) -> tuple:
    """The one series loop: derived steps S_{k+1} = [S_k, S_k], or lower
    central steps S_{k+1} = [S_k, S_0]; returns (dims, vanished_at,
    witness_row, stabilized), the row None exactly when S0 is zero.
    ``lift`` is handed to ``product_span``, so each step lifts its rows once
    and pair_op takes lifted operands; the witness row stays a plain row.

    max_depth None means run until the series vanishes or stabilizes; that is
    guaranteed to happen within dim(S0) + 1 steps whenever S0 is closed under
    the product (the exact-mode situation), because the steps then descend.
    """
    dims = [S0.dim]
    if S0.dim == 0:
        return dims, 0, None, False
    if max_depth is None:
        max_depth = S0.dim + 1
    current = S0
    witness = current.rows[0]
    stabilized = False
    for step in range(1, max_depth + 1):
        nxt = product_span(
            current, S0 if lower_central else current, pair_op,
            same=not lower_central, symmetric=symmetric_op, lift=lift,
        )
        dims.append(nxt.dim)
        if nxt.dim == 0:
            return dims, step, witness, False
        witness = nxt.rows[0]
        if nxt == current:
            # A fixed point repeats forever, for either series.
            stabilized = True
            break
        current = nxt
    return dims, None, witness, stabilized


# ----------------------------------------------------------------------
# path-algebra front end


def solvability_probe(graph: Graph, fld, structure: str = "lie", mode: str = "exact",
                      weight: int = 6, max_depth=8) -> SeriesReport:
    """Build the skew (Lie) or symmetric (Jordan) span and run its derived
    series.

    Exact mode needs an acyclic materialized graph, where the basis is finite
    and the answer is complete: the generators span the whole skew or
    symmetric part, and the series runs until it vanishes or repeats, which
    it does within dim + 1 steps.  It reads neither weight nor max_depth.
    Truncated mode restricts the generators to the weight bound and stops
    after max_depth steps, but never clips products, so every nonzero step
    is a genuine lower bound while a vanishing step is only evidence.

    Over Q the rows are integer (the generators have coefficients +-1); the
    witness is lifted off H, then made monic over Q and formatted by the Z
    algebra: ``format_element`` reads only graph and characteristic.
    """
    from .exprs import format_element

    if structure not in ("lie", "jordan"):
        raise SeriesError(f"unknown structure: {structure!r}")
    rational = fld.characteristic == 0
    algebra = LeavittAlgebra(graph, Z if rational else fld)
    if mode == "exact":
        if not is_acyclic(graph):
            raise ModeUnavailableError("exact mode requires an acyclic materialized graph")
        weight = max_depth = None
    elif mode == "truncated":
        if weight is None or weight < 0:
            raise SeriesError("truncated mode requires a weight bound")
        if max_depth is None:
            raise SeriesError("truncated mode requires a finite depth")
    else:
        raise SeriesError(f"unknown mode: {mode!r}")
    if structure == "lie":
        gens, product = algebra.skew_generators(weight), algebra.bracket
    else:
        gens, product = algebra.symmetric_generators(weight), algebra.circle
    f = algebra.field
    keep_sign = structure == "jordan" or f.characteristic == 2

    # Rows keep only their terms on H (module docstring); lift restores m*.
    def half(row: dict) -> dict:
        return row and {m: c for m, c in row.items()
                        if len(m[0]) > len(m[1]) or len(m[0]) == len(m[1]) and m[0] <= m[1]}

    def lift(row: dict) -> dict:
        return row | {(nu, lam, v): c if keep_sign else f.sub(f.zero, c)
                      for (lam, nu, v), c in row.items()}

    S0 = Subspace(f, mono_order_key)
    for g in gens:
        S0.insert(half(g.terms))
    dims, vanished, witness, stabilized = _run_series(
        S0, lambda a, b: half(product(Element(algebra, a), Element(algebra, b)).terms),
        max_depth, symmetric_op=structure == "jordan", lift=lift)
    text = None
    if witness is not None:
        witness = lift(witness)
        if rational:
            d = witness[min(witness, key=mono_order_key)]
            witness = {k: Fraction(c, d) for k, c in witness.items()}
        text = format_element(Element(algebra, witness))
    return SeriesReport("derived" if structure == "lie" else "jordan_derived", mode, dims,
                        vanished, text, stabilized, weight)
