"""The path algebra core: normal-form monomials, multiplication, the standard
involution, Lie bracket, Jordan circle, and generator sets for the skew and
symmetric subspaces.

A monomial is a real-path pair (lam, nu, anchor): two edge-position tuples
that are paths with a common range vertex (r(lam) = r(nu) = anchor), standing
for the product of lam with the ghost of nu.  Vertices are the empty-path
monomials anchored at themselves; the algebra has no global unit.

Basis membership: at each regular vertex the last out-edge e (declared order)
is redundant, because the vertex relation rewrites e followed by its ghost as
the vertex minus the sibling edge/ghost products.  A monomial whose two paths
end with that same last edge is therefore excluded and rewritten; see
``_nf_mono``.
"""

from __future__ import annotations

from .graphs import Graph, is_acyclic

Mono = tuple  # (lam: tuple[int, ...], nu: tuple[int, ...], anchor: int)


class AlgebraError(ValueError):
    """Context mismatch or malformed path pair."""


def mono_star(m: Mono) -> Mono:
    return (m[1], m[0], m[2])


def mono_order_key(m: Mono):
    """Total order: weight, then longer real part first, then lexicographic
    edge positions of lam, of nu, then anchor.  Deterministic and stable
    under relabeling that preserves declaration order."""
    lam, nu, anchor = m
    return (len(lam) + len(nu), -len(lam), lam, nu, anchor)


class Element:
    """A finite combination of basis monomials in canonical normal form."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra.same_context(other.algebra) and self.terms == other.terms

    def __add__(self, other):
        return self.algebra.add(self, other)

    def __sub__(self, other):
        return self.algebra.sub(self, other)

    def __neg__(self):
        return self.algebra.scale(self.algebra.field.from_int(-1), self)

    def __mul__(self, other):
        return self.algebra.multiply(self, other)

    def __repr__(self):
        from .exprs import format_element

        return f"<{format_element(self)}>"


class LeavittAlgebra:
    """Computation context for one graph over one exact field."""

    def __init__(self, graph: Graph, field):
        self.graph = graph
        self.field = field
        self._src = tuple(graph.vertex_pos[e.src] for e in graph.edges)
        self._dst = tuple(graph.vertex_pos[e.dst] for e in graph.edges)
        self._out = tuple(graph.out_edges[v.id] for v in graph.vertices)
        self._regular = frozenset(
            i for i, v in enumerate(graph.vertices) if graph.is_regular(v.id)
        )
        # Last out-edge in declared order at each regular vertex: the one the
        # basis construction excludes.
        self._last_edge = {v: self._out[v][-1] for v in self._regular}
        self._nf_cache: dict = {}

    def same_context(self, other: "LeavittAlgebra") -> bool:
        return self is other or (self.graph == other.graph and self.field == other.field)

    def _require_context(self, x: Element):
        if not self.same_context(x.algebra):
            raise AlgebraError("context mismatch: elements from different graph/field")

    # ------------------------------------------------------------------
    # monomials

    def check_mono(self, m: Mono):
        lam, nu, anchor = m
        for path in (lam, nu):
            at = None
            for e in path:
                if e < 0 or e >= len(self._src):
                    raise AlgebraError(f"malformed path pair: bad edge position {e}")
                if at is not None and self._src[e] != at:
                    raise AlgebraError("malformed path pair: edges do not compose")
                at = self._dst[e]
            if at is not None and at != anchor:
                raise AlgebraError("malformed path pair: path does not end at anchor")
        if not (0 <= anchor < len(self.graph.vertices)):
            raise AlgebraError(f"malformed path pair: bad anchor {anchor}")

    def is_basis_mono(self, m: Mono) -> bool:
        lam, nu, _ = m
        if not lam or not nu or lam[-1] != nu[-1]:
            return True
        e = lam[-1]
        v = self._src[e]
        return not (v in self._regular and self._last_edge[v] == e)

    def _nf_mono(self, m: Mono) -> dict:
        """Expand one path pair over the basis; coefficients are +-1 ints.

        The excluded pair (lam'e, nu'e) with e last at the regular vertex v
        rewrites to (lam', nu') minus the sibling pairs (lam'e_i, nu'e_i) for
        the earlier edges e_i at v.  The sibling pairs end with a non-last
        edge, hence are basis members; only the strictly shorter (lam', nu')
        branch recurses, so the rewrite terminates.
        """
        cached = self._nf_cache.get(m)
        if cached is not None:
            return cached
        if self.is_basis_mono(m):
            res = {m: 1}
        else:
            lam, nu, _ = m
            v = self._src[lam[-1]]
            res = dict(self._nf_mono((lam[:-1], nu[:-1], v)))
            for ei in self._out[v][:-1]:
                mm = (lam[:-1] + (ei,), nu[:-1] + (ei,), self._dst[ei])
                c = res.get(mm, 0) - 1
                if c:
                    res[mm] = c
                else:
                    del res[mm]
        self._nf_cache[m] = res
        return res

    def _mono_mul(self, x: Mono, y: Mono):
        """Raw monomial product, before normal form; None means zero.

        Precondition: the ghost boundary vertex of x (the source of mu, or
        its anchor when mu is empty) is the real boundary vertex of y (the
        source of sig, or its anchor when sig is empty); ``multiply`` pairs
        only such terms.  Then (lam mu*)(sig rho*) is lam sig'' rho* when sig
        extends mu, and lam (rho mu'')* when mu extends sig; otherwise the
        edges disagree and the product vanishes.
        """
        lam, mu, a1 = x
        sig, rho, a2 = y
        lm = len(mu)
        if len(sig) >= lm:
            if sig[:lm] != mu:
                return None
            return (lam + sig[lm:], rho, a2)
        if mu[: len(sig)] != sig:
            return None
        return (lam, rho + mu[len(sig):], a1)

    # ------------------------------------------------------------------
    # element construction

    def zero(self) -> Element:
        return Element(self, {})

    def element(self, raw_terms) -> Element:
        """Normal form of a raw term mapping {mono: coefficient}."""
        items = raw_terms.items() if isinstance(raw_terms, dict) else raw_terms
        f = self.field
        acc: dict = {}
        for m, c in items:
            self.check_mono(m)
            if f.is_zero(c):
                continue
            for b, s in self._nf_mono(m).items():
                cc = f.add(acc.get(b, f.zero), c if s == 1 else f.mul(c, f.from_int(s)))
                if f.is_zero(cc):
                    acc.pop(b, None)
                else:
                    acc[b] = cc
        return Element(self, acc)

    def vertex(self, vid: str) -> Element:
        v = self.graph.vertex_pos[vid]
        return Element(self, {((), (), v): self.field.one})

    def edge(self, eid: str) -> Element:
        e = self.graph.edge_pos[eid]
        return Element(self, {((e,), (), self._dst[e]): self.field.one})

    def ghost(self, eid: str) -> Element:
        e = self.graph.edge_pos[eid]
        return Element(self, {((), (e,), self._dst[e]): self.field.one})

    def path_pair(self, lam_ids, nu_ids, anchor_id=None) -> Element:
        """Element for one path pair given by edge ids (normal-formed)."""
        ep = self.graph.edge_pos
        lam = tuple(ep[i] for i in lam_ids)
        nu = tuple(ep[i] for i in nu_ids)
        if lam:
            anchor = self._dst[lam[-1]]
        elif nu:
            anchor = self._dst[nu[-1]]
        elif anchor_id is not None:
            anchor = self.graph.vertex_pos[anchor_id]
        else:
            raise AlgebraError("vertex monomial needs an anchor id")
        return self.element({(lam, nu, anchor): self.field.one})

    # ------------------------------------------------------------------
    # arithmetic

    def add(self, a: Element, b: Element) -> Element:
        self._require_context(a)
        self._require_context(b)
        return self._merge(Element(self, dict(a.terms)), b, self.field.add)

    def sub(self, a: Element, b: Element) -> Element:
        self._require_context(a)
        self._require_context(b)
        return self._merge(Element(self, dict(a.terms)), b, self.field.sub)

    def scale(self, c, a: Element) -> Element:
        f = self.field
        if f.is_zero(c):
            return self.zero()
        return Element(self, {m: f.mul(c, v) for m, v in a.terms.items()})

    def multiply(self, a: Element, b: Element) -> Element:
        self._require_context(a)
        self._require_context(b)
        f = self.field
        add, mul, is_zero, zero, from_int = f.add, f.mul, f.is_zero, f.zero, f.from_int
        src, mono_mul, nf_mono = self._src, self._mono_mul, self._nf_mono
        # A product of monomials is zero unless the ghost boundary vertex of
        # the left factor is the real boundary vertex of the right one.
        by_left: dict = {}
        for m2, c2 in b.terms.items():
            sig = m2[0]
            by_left.setdefault(src[sig[0]] if sig else m2[2], []).append((m2, c2))
        out: dict = {}
        get, pop = out.get, out.pop
        for m1, c1 in a.terms.items():
            mu = m1[1]
            bucket = by_left.get(src[mu[0]] if mu else m1[2])
            if bucket is None:
                continue
            for m2, c2 in bucket:
                p = mono_mul(m1, m2)
                if p is None:
                    continue
                c = mul(c1, c2)
                for bm, s in nf_mono(p).items():
                    cc = add(get(bm, zero), c if s == 1 else mul(c, from_int(s)))
                    if is_zero(cc):
                        pop(bm, None)
                    else:
                        out[bm] = cc
        return Element(self, out)

    def involute(self, a: Element) -> Element:
        """Term-wise star: swaps the two paths; the basis is star-closed."""
        return Element(self, {mono_star(m): c for m, c in a.terms.items()})

    def bracket(self, a: Element, b: Element) -> Element:
        return self._merge(self.multiply(a, b), self.multiply(b, a), self.field.sub)

    def circle(self, a: Element, b: Element) -> Element:
        return self._merge(self.multiply(a, b), self.multiply(b, a), self.field.add)

    def _merge(self, x: Element, y: Element, op) -> Element:
        """x op y built in x's dict, which it mutates: x is a fresh element
        (a product or a copy), and y has passed the context check."""
        f = self.field
        is_zero, zero = f.is_zero, f.zero
        out = x.terms
        get, pop = out.get, out.pop
        for m, c in y.terms.items():
            s = op(get(m, zero), c)
            if is_zero(s):
                pop(m, None)
            else:
                out[m] = s
        return x

    # ------------------------------------------------------------------
    # basis enumeration

    def paths_by_length(self, max_len: int = None):
        """paths[k][v] = list of length-k paths (edge tuples) ending at v, for
        k = 0, 1, ... up to max_len or the longest path's length, whichever
        comes first.  max_len None asks for every path, which only an acyclic
        graph has finitely many of: a graph with a cycle raises AlgebraError."""
        nv = len(self.graph.vertices)
        if max_len is None and not is_acyclic(self.graph):
            raise AlgebraError("graph has a cycle; path lengths are unbounded")
        out = [{v: [()] for v in range(nv)}]
        while max_len is None or len(out) <= max_len:
            nxt: dict = {v: [] for v in range(nv)}
            for v in range(nv):
                for p in out[-1][v]:
                    for e in self._out[v]:
                        nxt[self._dst[e]].append(p + (e,))
            if not any(nxt.values()):
                break
            out.append(nxt)
        return out

    def basis_monomials(self, max_weight: int = None) -> list:
        """All basis monomials of weight <= max_weight, in monomial order;
        max_weight None gives the whole basis, finite exactly when the graph
        is acyclic (a graph with a cycle raises AlgebraError)."""
        paths = self.paths_by_length(max_weight)
        weight = 2 * (len(paths) - 1) if max_weight is None else max_weight
        nv = len(self.graph.vertices)
        monos = []
        for v in range(nv):
            for a, lams in enumerate(paths):
                for nus in paths[:weight + 1 - a]:
                    for lam in lams[v]:
                        for nu in nus[v]:
                            m = (lam, nu, v)
                            if self.is_basis_mono(m):
                                monos.append(m)
        monos.sort(key=mono_order_key)
        return monos

    # ------------------------------------------------------------------
    # skew / symmetric generators

    def skew_generators(self, weight_bound) -> list:
        """Spanning set of the skew part up to the weight bound (None: of the
        whole skew part, as for ``basis_monomials``).

        For characteristic != 2 these are the differences b - b* over basis
        monomial pairs; fixed monomials contribute nothing.  In characteristic
        2 skew equals symmetric, so pair sums and fixed monomials both enter.
        """
        return self._involution_generators(weight_bound, skew=True)

    def symmetric_generators(self, weight_bound) -> list:
        return self._involution_generators(weight_bound, skew=False)

    def _involution_generators(self, weight_bound, skew: bool) -> list:
        f = self.field
        char2 = f.characteristic == 2
        gens = []
        emitted = set()
        for m in self.basis_monomials(weight_bound):
            if m in emitted:
                continue
            ms = mono_star(m)
            if ms == m:
                if char2 or not skew:
                    gens.append(Element(self, {m: f.one}))
            else:
                emitted.add(ms)
                sign = f.one if (char2 or not skew) else f.from_int(-1)
                gens.append(Element(self, {m: f.one, ms: sign}))
        return gens


# ----------------------------------------------------------------------
# the matrix-unit family of a witness


def forbidden_embedding_units(algebra: LeavittAlgebra, witness) -> dict:
    """The 3x3 matrix-unit family inside the algebra for a witness structure.

    Three paths p_1, p_2, p_3 end at one vertex v and none is a prefix of
    another, so p_i* p_j = delta_ij v and the units are u_ij = p_i p_j*.
    For F1 (edges e: a->b, f: b->v) the paths are ef, f and v; for F2/F3
    (edges e, f into v) they are e, f and v; for a cycle c with exit f
    (cycle rotated to start at the exit's source) they are cf, c^2 f and
    c^3 f.
    """
    kind = witness.kind
    if kind in ("F1", "F2", "F3"):
        e, f = witness.edges
        paths, v = ([e, f] if kind == "F1" else [e], [f], []), witness.vertices[-1]
    elif kind == "CycleWithExit":
        cyc = list(witness.edges)
        paths, v = [cyc * i + [witness.exit] for i in range(1, 4)], None
    else:
        raise AlgebraError(f"no embedding for witness kind {kind!r}")
    return {(i, j): algebra.path_pair(p, q, v)
            for i, p in enumerate(paths, 1) for j, q in enumerate(paths, 1)}


# ----------------------------------------------------------------------
# closed-form matrices carried into the algebra


def unit_embedding(algebra: LeavittAlgebra, units: dict):
    """M -> sum of M_ij u_ij, for sparse matrices {(i, j): scalar} and a
    matrix-unit family such as ``forbidden_embedding_units`` builds."""
    mul = algebra.field.mul
    return lambda M: algebra.element(
        (m, mul(c, v)) for ij, c in M.items() for m, v in units[ij].terms.items())


def corner_embedding(algebra: LeavittAlgebra, entry_edge: str, cycle_edges):
    """The corner M_2(K[x, x^-1]) of a cycle y without exit, based at w, with
    an edge p into w: E11 = pp*, E12 = p, E21 = p*, E22 = w and x = y.  The
    entry x^k at (i, j) goes to ((p if i = 1) y^max(k, 0), (p if j = 1) y^max(-k, 0))."""
    ep = algebra.graph.edge_pos
    p = (ep[entry_edge],)
    y = tuple(ep[e] for e in cycle_edges)
    w = algebra._dst[p[0]]
    return lambda M: algebra.element(
        (((p if i == 1 else ()) + y * max(k, 0), (p if j == 1 else ()) + y * max(-k, 0), w), c)
        for (i, j), poly in M.items() for k, c in poly.items())
