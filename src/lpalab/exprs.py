"""Text form for path-algebra elements.

Vertices and edges print by id, a ghost edge as the id followed by an
apostrophe, products with a middle dot, and terms in monomial order.  The
parser accepts the same syntax plus "*" for the product (the dot is awkward
to type), integer and a/b scalars, parentheses, "[x,y]" for the Lie bracket
and "{x,y}" for the Jordan circle.  Every printed element re-parses to an
equal element.
"""

from __future__ import annotations

import re

from .algebra import LeavittAlgebra, Element, mono_order_key


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def format_mono(algebra: LeavittAlgebra, m) -> str:
    lam, nu, anchor = m
    if not lam and not nu:
        return algebra.graph.vertices[anchor].id
    edges = algebra.graph.edges
    parts = [edges[e].id for e in lam] + [edges[e].id + "'" for e in reversed(nu)]
    return "·".join(parts)


def format_element(el: Element) -> str:
    if not el.terms:
        return "0"
    alg = el.algebra
    f = alg.field
    rational = f.characteristic == 0
    parts = []
    for i, (m, c) in enumerate(sorted(el.terms.items(), key=lambda kv: mono_order_key(kv[0]))):
        mono = format_mono(alg, m)
        if rational:
            neg = c < 0
            mag = -c if neg else c
            body = mono if mag == 1 else f"{mag}·{mono}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        else:
            body = mono if c == f.one else f"{f.to_str(c)}·{mono}"
            parts.append(body if i == 0 else "+ " + body)
    return " ".join(parts)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*'?)|(?P<op>[·*+\-/\[\]{}(),]))"
)


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if match.lastgroup == "num":
            toks.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "ident":
            toks.append(("ident", match.group("ident"), match.start("ident")))
        else:
            toks.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    """Recursive descent over values that are field scalars or Elements."""

    def __init__(self, algebra: LeavittAlgebra, text: str):
        self.alg = algebra
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)

    def parse(self) -> Element:
        val, pos = self.expr()
        kind, _, p = self.peek()
        if kind != "end":
            raise ExprError("trailing input", p)
        if isinstance(val, Element):
            return val
        # the algebra has no unit, so a bare scalar only means zero
        if self.alg.field.is_zero(val):
            return self.alg.zero()
        raise ExprError("expression has no algebra factor", pos)

    def expr(self):
        val, pos = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or op not in "+-":
                return val, pos
            self.take()
            rhs, rpos = self.term()
            if isinstance(val, Element) != isinstance(rhs, Element):
                raise ExprError("cannot add a bare scalar to an algebra element", rpos)
            if isinstance(val, Element):
                val = val + rhs if op == "+" else val - rhs
            else:
                f = self.alg.field
                val = f.add(val, rhs) if op == "+" else f.sub(val, rhs)

    def term(self):
        val, pos = self.factor()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in ("·", "*"):
                self.take()
                rhs, _ = self.factor()
                val = self.mul(val, rhs)
            else:
                return val, pos

    def mul(self, a, b):
        if isinstance(a, Element):
            return self.alg.multiply(a, b) if isinstance(b, Element) else self.alg.scale(b, a)
        if isinstance(b, Element):
            return self.alg.scale(a, b)
        return self.alg.field.mul(a, b)

    def factor(self):
        kind, val, pos = self.take()
        f = self.alg.field
        if kind == "op" and val == "-":
            inner, _ = self.factor()
            return (-inner if isinstance(inner, Element) else f.neg(inner)), pos
        if kind == "num":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "/":
                self.take()
                dkind, dval, dpos = self.take()
                if dkind != "num":
                    raise ExprError("expected denominator", dpos)
                return f.parse(f"{val}/{dval}"), pos
            return f.parse(val), pos
        if kind == "ident":
            return self.atom(val, pos), pos
        if kind == "op" and val == "(":
            inner, _ = self.expr()
            self.expect(")")
            return inner, pos
        if kind == "op" and val == "[":
            return self.alg.bracket(*self.pair("]")), pos
        if kind == "op" and val == "{":
            return self.alg.circle(*self.pair("}")), pos
        raise ExprError(f"unexpected token {val!r}", pos)

    def pair(self, closer: str):
        out = []
        for sep in (",", closer):
            val, pos = self.expr()
            if not isinstance(val, Element):
                raise ExprError("expected an algebra element", pos)
            self.expect(sep)
            out.append(val)
        return out

    def atom(self, ident: str, pos: int) -> Element:
        g = self.alg.graph
        if ident.endswith("'"):
            eid = ident[:-1]
            if eid not in g.edge_pos:
                raise ExprError(f"unknown edge id {eid!r}", pos)
            return self.alg.ghost(eid)
        if ident in g.edge_pos:
            return self.alg.edge(ident)
        if ident in g.vertex_pos:
            return self.alg.vertex(ident)
        raise ExprError(f"unknown identifier {ident!r}", pos)


def parse_element(algebra: LeavittAlgebra, text: str) -> Element:
    try:
        return _Parser(algebra, text).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply", 0) from None
