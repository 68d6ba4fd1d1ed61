"""Spans and counts for the traced run, recorded from the benchmark's own
files by wrapping lpalab's public functions where they are looked up.

A span is named ``layer.what``; the layer is the lpalab module (``cli``,
``graphs``, ``classify``, ``series``, ``algebra``, ``scalars``,
``matrices``, ``exprs``), plus ``bench`` for the harness's root span around
a pass and ``trace`` for the tracer's own inspections of returned spans and
matrices.  A span's self time is its duration minus the time its child
spans cover, so the self times of all spans under one root sum to the
root's duration.  Nothing in lpalab waits on anything, so no wait time is
recorded.

Spans are aggregated as they end (calls and self seconds per name); the
first ``keep`` are also kept whole, with their parent and request (item)
ids, and written out by ``write``.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

from spec import LAYERS


class Tracer:
    def __init__(self, clock=time.perf_counter, keep: int = 0):
        self.clock = clock
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {}
        self.maxima: dict = {}
        self.request = None
        self.spans: list = []  # (id, parent id, name, request, start, end)
        self._keep = keep
        self._stack: list = []  # open spans: [name, start, child seconds, id]
        self._ids = 0

    def begin(self, name: str) -> None:
        self._ids += 1
        self._stack.append([name, self.clock(), 0.0, self._ids])

    def end(self) -> float:
        """Close the innermost open span; returns its duration."""
        name, start, child, sid = self._stack.pop()
        now = self.clock()
        duration = now - start
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - child)
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < self._keep:
            self.spans.append((sid, parent[3] if parent else None, name, self.request,
                               start, now))
        return duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def note_max(self, name: str, value) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def span(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(tracer, args) and
        after(tracer, args, result) run outside it."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """fn wrapped to count its calls, with no span."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_totals(self) -> dict:
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            calls[layer] += n
            self_s[layer] += self.self_s[name]
        return {"calls": calls, "self_s": self_s}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "calls": self.calls, "self_s": self.self_s, "counts": self.counts,
            "maxima": self.maxima,
            "spans": [dict(zip(("id", "parent", "name", "request", "start", "end"), s))
                      for s in self.spans],
        }), encoding="utf-8")


# ----------------------------------------------------------------------
# what to wrap in lpalab


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return c.bit_length()


def _inspect_span(t: Tracer, s) -> None:
    t.begin("trace.inspect")
    try:
        t.note_max("series.rows_max", len(s.rows))
        t.note_max("series.coeff_bits_max",
                   max((_coeff_bits(c) for row in s.rows for c in row.values()), default=0))
    finally:
        t.end()


def _inspect_matrix(t: Tracer, m) -> None:
    t.begin("trace.inspect")
    try:
        t.note_max("matrices.laurent_terms_max",
                   max((len(x) for row in m for x in row if isinstance(x, dict)), default=0))
    finally:
        t.end()


def _multiply_pairs(t, args):
    t.count("algebra.term_pairs", len(args[1].terms) * len(args[2].terms))


def _pair_nonzero(t, args, result):
    if result.terms:
        t.count("algebra.pair_nonzero")


def _insert_accepted(t, args, result):
    if result:
        t.count("series.insert.accepted")


def _laurent_pairs(t, args):
    t.count("scalars.laurent_mul.term_pairs", len(args[1]) * len(args[2]))


# (module, function or Class.method) -> (span name, before, after)
SPANS = {
    ("cli", "main"): ("cli.main", None, None),
    ("cli", "build_parser"): ("cli.build_parser", None, None),
    ("cli", "_load_graph"): ("cli.load_graph", None, None),
    ("cli", "_emit"): ("cli.emit", None, None),
    ("graphs", "validate_graph"): ("graphs.validate_graph", None, None),
    ("graphs", "is_acyclic"): ("graphs.is_acyclic", None, None),
    ("graphs", "decompose_components"): ("graphs.decompose_components", None, None),
    ("graphs", "match_pattern"): ("graphs.match_pattern", None, None),
    ("graphs", "find_cycle_with_exit"): ("graphs.find_cycle_with_exit", None, None),
    ("graphs", "find_forbidden_subgraph"): ("graphs.find_forbidden_subgraph", None, None),
    ("classify", "classify"): ("classify.classify", None, None),
    ("classify", "cross_validate"): ("classify.cross_validate", None, None),
    ("series", "solvability_probe"): ("series.probe", None, None),
    ("series", "_run_series"): ("series.run", lambda t, a: _inspect_span(t, a[0]), None),
    ("series", "product_span"): ("series.product_span", None,
                                 lambda t, a, r: _inspect_span(t, r)),
    ("series", "Subspace.insert"): ("series.insert", None, _insert_accepted),
    ("series", "Subspace.reduce"): ("series.reduce", None, None),
    ("algebra", "LeavittAlgebra.multiply"): ("algebra.multiply", _multiply_pairs, None),
    ("algebra", "LeavittAlgebra.bracket"): ("algebra.pair", None, _pair_nonzero),
    ("algebra", "LeavittAlgebra.circle"): ("algebra.pair", None, _pair_nonzero),
    ("algebra", "LeavittAlgebra.basis_monomials"): ("algebra.generators", None, None),
    ("algebra", "LeavittAlgebra.skew_generators"): ("algebra.generators", None, None),
    ("algebra", "LeavittAlgebra.symmetric_generators"): ("algebra.generators", None, None),
    ("scalars", "LaurentRing.mul"): ("scalars.laurent_mul", _laurent_pairs, None),
    ("matrices", "mat_bracket"): ("matrices.mat_bracket", None,
                                  lambda t, a, r: _inspect_matrix(t, r)),
    ("matrices", "witness_nge3"): ("matrices.witness", None, None),
    ("matrices", "witness_nilpotent_char2"): ("matrices.witness", None, None),
    ("matrices", "witness_laurent_nonsolvable"): ("matrices.witness", None, None),
    ("matrices", "char2_laurent_index3_check"): ("matrices.witness", None, None),
    ("matrices", "corollary_field_check"): ("matrices.corollary", None, None),
    ("matrices", "corollary_laurent_check"): ("matrices.corollary", None, None),
    ("exprs", "format_element"): ("exprs.format", None, None),
}


# Field classes whose public methods get count-only wrappers.
_COUNTED = {("scalars", "PrimeField"): "scalars.prime_ops",
            ("scalars", "RationalField"): "scalars.rational_ops"}


def instrument(tracer: Tracer, modules) -> callable:
    """Wrap what SPANS names: a function in every module namespace that
    binds it, a method on its class.  Returns the function that undoes it."""
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for (mod, attr), (name, before, after) in SPANS.items():
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(by_name[mod], cls_name)
            replace(cls, meth, tracer.span(name, vars(cls)[meth], before, after))
            continue
        original = getattr(by_name[mod], attr)
        wrapper = tracer.span(name, original, before, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    replace(m, key, wrapper)
    for (mod, cls_name), counter in _COUNTED.items():
        cls = getattr(by_name[mod], cls_name)
        for meth, fn in list(vars(cls).items()):
            if callable(fn) and not meth.startswith("_"):
                replace(cls, meth, tracer.counter(counter, fn))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_metrics(t: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of spec.PER_LAYER from one traced pass."""
    totals = t.layer_totals()
    calls, counts, maxima = t.calls, t.counts, t.maxima

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = totals["self_s"][layer]
    for layer in ("cli", "graphs", "classify"):
        out[f"{layer}.calls"] = totals["calls"][layer]
    for span in ("series.probe", "series.insert", "series.reduce", "series.product_span",
                 "algebra.multiply", "algebra.pair", "scalars.laurent_mul",
                 "matrices.mat_bracket", "exprs.format"):
        out[f"{span}.calls"] = calls.get(span, 0)
    for span in ("series.probe", "series.insert", "series.reduce", "series.product_span",
                 "algebra.multiply", "algebra.generators", "scalars.laurent_mul",
                 "exprs.format"):
        out[f"{span}.self_s"] = t.self_s.get(span, 0.0)
    accepted = counts.get("series.insert.accepted", 0)
    out.update({
        "series.insert.accepted": accepted,
        "series.insert_accept_ratio": ratio(accepted, calls.get("series.insert", 0)),
        "series.coeff_bits_max": maxima.get("series.coeff_bits_max", 0),
        "series.rows_max": maxima.get("series.rows_max", 0),
        "algebra.term_pairs": counts.get("algebra.term_pairs", 0),
        "algebra.pair_nonzero_ratio": ratio(counts.get("algebra.pair_nonzero", 0),
                                            calls.get("algebra.pair", 0)),
        "scalars.rational_ops": counts.get("scalars.rational_ops", 0),
        "scalars.prime_ops": counts.get("scalars.prime_ops", 0),
        "scalars.laurent_mul.term_pairs": counts.get("scalars.laurent_mul.term_pairs", 0),
        "matrices.laurent_terms_max": maxima.get("matrices.laurent_terms_max", 0),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out
