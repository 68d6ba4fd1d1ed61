"""Finite directed graphs with optional infinite-emitter flags, plus the
structural queries everything else consumes: sinks, regular vertices, cycle
and forbidden-subgraph witnesses, weak components, and the E1..E6 star
pattern match.

Vertex and edge order is significant: the edge enumeration at each vertex
(file order) fixes which monomials the basis excludes, and witness searches
scan in declared order so results are deterministic.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional


class GraphError(ValueError):
    """Raised for structurally invalid graph descriptions."""


class Vertex(NamedTuple):
    id: str
    infinite_emitter: bool = False


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class Graph:
    """Vertices and edges in declared order; immutable by convention, equal
    and hashed by those two tuples.  The lookup tables are derived lazily."""

    def __init__(self, vertices: tuple = (), edges: tuple = ()):
        self.vertices = vertices
        self.edges = edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(vertices={self.vertices!r}, edges={self.edges!r})"

    @cached_property
    def vertex_ids(self) -> tuple:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def vertex_pos(self) -> dict:
        return {v.id: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_pos(self) -> dict:
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def out_edges(self) -> dict:
        """Vertex id -> tuple of edge positions, in declared order."""
        out = {v.id: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def in_edges(self) -> dict:
        inc = {v.id: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            inc[e.dst].append(i)
        return {v: tuple(es) for v, es in inc.items()}

    def is_sink(self, vid: str) -> bool:
        return not self.out_edges[vid]

    def is_infinite_emitter(self, vid: str) -> bool:
        return self.vertices[self.vertex_pos[vid]].infinite_emitter

    def is_regular(self, vid: str) -> bool:
        return bool(self.out_edges[vid]) and not self.is_infinite_emitter(vid)

    def to_json_obj(self) -> dict:
        return {
            "vertices": [{"id": v.id, "infinite_emitter": v.infinite_emitter} for v in self.vertices],
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }


def validate_graph(raw) -> Graph:
    """Build a Graph from a JSON-style description, checking every invariant.

    Accepts {"vertices": [...], "edges": [...]} with vertex entries either
    {"id": ..., "infinite_emitter": bool} or bare id strings, and edge entries
    {"id": ..., "src": ..., "dst": ...}.  Array order is preserved and
    semantically significant.
    """
    if not isinstance(raw, dict):
        raise GraphError("graph description must be a JSON object")
    vs = raw.get("vertices", [])
    es = raw.get("edges", [])
    for key, value in (("vertices", vs), ("edges", es)):
        if not isinstance(value, list):
            raise GraphError(f"{key} must be a JSON array")
    if not vs:
        raise GraphError("empty vertex set")
    vertices = []
    for item in vs:
        if isinstance(item, str):
            vertices.append(Vertex(item))
            continue
        try:
            vid, flag = str(item["id"]), item.get("infinite_emitter", False)
        except (TypeError, KeyError) as exc:
            raise GraphError(f"bad vertex entry: {item!r}") from exc
        if not isinstance(flag, bool):
            raise GraphError(f"infinite_emitter must be true or false: {item!r}")
        vertices.append(Vertex(vid, flag))
    seen = set()
    for v in vertices:
        if v.id in seen:
            raise GraphError(f"duplicate vertex id: {v.id!r}")
        seen.add(v.id)
    edges = []
    for item in es:
        try:
            edges.append(Edge(str(item["id"]), str(item["src"]), str(item["dst"])))
        except (TypeError, KeyError) as exc:
            raise GraphError(f"bad edge entry: {item!r}") from exc
    eseen = set()
    for e in edges:
        if e.id in eseen:
            raise GraphError(f"duplicate edge id: {e.id!r}")
        eseen.add(e.id)
        if e.id in seen:
            raise GraphError(f"edge id collides with vertex id: {e.id!r}")
        if e.src not in seen:
            raise GraphError(f"dangling endpoint: edge {e.id!r} src {e.src!r}")
        if e.dst not in seen:
            raise GraphError(f"dangling endpoint: edge {e.id!r} dst {e.dst!r}")
    g = Graph(tuple(vertices), tuple(edges))
    for v in vertices:
        if v.infinite_emitter and not g.out_edges[v.id]:
            raise GraphError(f"infinite_emitter flag on edge-less vertex: {v.id!r}")
    return g


def graph_from_lists(vertices, edges, infinite=()) -> Graph:
    """Convenience builder: vertices as ids, edges as (id, src, dst) triples."""
    inf = set(infinite)
    return validate_graph(
        {
            "vertices": [{"id": v, "infinite_emitter": v in inf} for v in vertices],
            "edges": [{"id": e, "src": s, "dst": d} for (e, s, d) in edges],
        }
    )


def sinks(g: Graph) -> set:
    return {v.id for v in g.vertices if g.is_sink(v.id)}


def regular_vertices(g: Graph) -> set:
    """Vertices that emit at least one edge and are not infinite emitters."""
    return {v.id for v in g.vertices if g.is_regular(v.id)}


def is_acyclic(g: Graph) -> bool:
    """Kahn's algorithm: every vertex is removed once its in-edges are."""
    indeg = {v.id: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.dst] += 1
    stack = [v.id for v in g.vertices if indeg[v.id] == 0]
    removed = 0
    while stack:
        v = stack.pop()
        removed += 1
        for ei in g.out_edges[v]:
            w = g.edges[ei].dst
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return removed == len(g.vertices)


class ForbiddenWitness(NamedTuple):
    """A concrete structure forcing non-solvability of the skew part.

    kind is one of "CycleWithExit", "F1", "F2", "F3".  For a cycle with an
    exit, ``edges`` lists the cycle's edges in path order starting at the
    exit's source and ``exit`` names the exit edge.  For F1/F2/F3, ``edges``
    is the pair (e, f) in the shape's orientation.
    """

    kind: str
    vertices: tuple
    edges: tuple
    exit: Optional[str] = None

    def to_json_obj(self) -> dict:
        out = {"kind": self.kind, "vertices": list(self.vertices), "edges": list(self.edges)}
        if self.exit is not None:
            out["exit"] = self.exit
        return out


def _strongly_connected(g: Graph):
    """Iterative Tarjan; returns vertex id -> component number."""
    index = {}
    low = {}
    comp = {}
    on_stack = set()
    stack = []
    counter = [0]
    comp_counter = [0]

    for root in g.vertex_ids:
        if root in index:
            continue
        work = [(root, iter(g.out_edges[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for ei in it:
                w = g.edges[ei].dst
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g.out_edges[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = comp_counter[0]
                    if w == v:
                        break
                comp_counter[0] += 1
    return comp


def _cycle_through(g: Graph, v: str, scc: dict):
    """Shortest cycle through v that stays inside v's strong component.

    Returns the cycle as a list of edge positions, starting with the first
    out-edge of v (declared order) that leads back to v.
    """
    for ei in g.out_edges[v]:
        w = g.edges[ei].dst
        if scc.get(w) != scc[v]:
            continue
        if w == v:
            return [ei]
        # BFS from w back to v inside the component, edges in declared order.
        parent = {w: None}
        queue = [w]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for fi in g.out_edges[u]:
                t = g.edges[fi].dst
                if scc.get(t) != scc[v]:
                    continue
                if t == v:
                    path = [fi]
                    while parent[u] is not None:
                        u, fi2 = parent[u]
                        path.append(fi2)
                    return [ei] + path[::-1]
                if t not in parent:
                    parent[t] = (u, fi)
                    queue.append(t)
        # w cannot return to v; try the next out-edge.
    return None


def find_cycle_with_exit(g: Graph) -> Optional[ForbiddenWitness]:
    """First cycle that has an exit edge, scanning vertices in declared order.

    A vertex lies on a cycle iff its strong component has another vertex or a
    self-loop; a cycle through it has an exit iff it emits a second edge.
    Absence of a witness is definitive for the materialized edge set.
    """
    scc = _strongly_connected(g)
    comp_sizes: dict = {}
    for v, c in scc.items():
        comp_sizes[c] = comp_sizes.get(c, 0) + 1
    has_self_loop = {e.src for e in g.edges if e.src == e.dst}
    for v in g.vertex_ids:
        on_cycle = comp_sizes[scc[v]] > 1 or v in has_self_loop
        if not on_cycle or len(g.out_edges[v]) < 2:
            continue
        cycle = _cycle_through(g, v, scc)
        if cycle is None:
            continue
        first = cycle[0]
        exit_ei = next(ei for ei in g.out_edges[v] if ei != first)
        cyc_vertices = tuple(g.edges[ei].src for ei in cycle)
        return ForbiddenWitness(
            kind="CycleWithExit",
            vertices=cyc_vertices,
            edges=tuple(g.edges[ei].id for ei in cycle),
            exit=g.edges[exit_ei].id,
        )
    return None


def find_forbidden_subgraph(g: Graph) -> Optional[ForbiddenWitness]:
    """First F1/F2/F3 witness in deterministic scan order.

    Matching is injective on vertices (three distinct vertices for F1/F2,
    two for F3); loop-closed shapes are the cycle detector's business.
    """
    edges = g.edges
    n = len(edges)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e, f = edges[i], edges[j]
            if e.dst == f.src and len({e.src, e.dst, f.dst}) == 3:
                return ForbiddenWitness("F1", (e.src, e.dst, f.dst), (e.id, f.id))
    for i in range(n):
        for j in range(i + 1, n):
            e, f = edges[i], edges[j]
            if e.dst == f.dst and len({e.src, f.src, e.dst}) == 3:
                return ForbiddenWitness("F2", (e.src, f.src, e.dst), (e.id, f.id))
    for i in range(n):
        for j in range(i + 1, n):
            e, f = edges[i], edges[j]
            if e.src == f.src and e.dst == f.dst and e.src != e.dst:
                return ForbiddenWitness("F3", (e.src, e.dst), (e.id, f.id))
    return None


def decompose_components(g: Graph) -> list:
    """Weakly connected components, preserving vertex and edge order."""
    parent = {v.id: v.id for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for e in g.edges:
        union(e.src, e.dst)
    roots = []
    members: dict = {}
    for v in g.vertices:
        r = find(v.id)
        if r not in members:
            members[r] = set()
            roots.append(r)
        members[r].add(v.id)
    out = []
    for r in roots:
        vs = tuple(v for v in g.vertices if v.id in members[r])
        es = tuple(e for e in g.edges if e.src in members[r])
        out.append(Graph(vs, es))
    return out


class PatternClass(NamedTuple):
    """Result of matching one weak component against the six star shapes.

    kind None means no match.  sink_count and loop_count count the star's
    children.  When the center carries the infinite-emitter flag the
    component stands for a star with infinitely many children: the counts
    stay the materialized ones, ``infinite`` is set, and the JSON form
    prints "infinite" for the sinks of E4/E6 and the loops of E5.
    """

    kind: Optional[str]
    center: Optional[str] = None
    sink_count: int = 0
    loop_count: int = 0
    infinite: bool = False

    def to_json_obj(self) -> dict:
        on_sinks = self.infinite and self.kind != "E5"
        return {
            "kind": self.kind,
            "center": self.center,
            "sinks": "infinite" if on_sinks else self.sink_count,
            "loops": "infinite" if self.infinite and not on_sinks else self.loop_count,
        }


_NO_MATCH = PatternClass(None)


def match_pattern(c: Graph) -> PatternClass:
    """Classify a weakly connected component as E1..E6 or no match.

    E1: isolated vertex.  E2: one vertex, one loop.  E3: a bare 2-cycle.
    E4: a center emitting one edge to each of n >= 1 sinks.  E5: a center
    emitting one edge to each of m >= 1 vertices carrying exactly one loop.
    E6: both kinds of children at once.  Only the star center of E4/E5/E6
    may carry the infinite-emitter flag; a flagged vertex anywhere else
    means the component is not one of the six shapes.
    """
    vs = c.vertices
    es = c.edges
    if len(vs) == 1:
        v = vs[0]
        if not es:
            return PatternClass("E1", center=None) if not v.infinite_emitter else _NO_MATCH
        if len(es) == 1 and es[0].src == es[0].dst and not v.infinite_emitter:
            return PatternClass("E2", center=None)
        return _NO_MATCH
    if len(vs) == 2 and len(es) == 2:
        a, b = vs[0].id, vs[1].id
        pair = {(es[0].src, es[0].dst), (es[1].src, es[1].dst)}
        flagged = vs[0].infinite_emitter or vs[1].infinite_emitter
        if pair == {(a, b), (b, a)} and not flagged:
            return PatternClass("E3")
    # Star shapes: exactly one vertex with in-degree 0 that emits everything.
    centers = [v for v in vs if not c.in_edges[v.id] and c.out_edges[v.id]]
    if len(centers) != 1:
        return _NO_MATCH
    u = centers[0]
    star = [c.edges[ei] for ei in c.out_edges[u.id]]
    targets = [e.dst for e in star]
    if u.id in targets or len(set(targets)) != len(targets):
        return _NO_MATCH
    if set(targets) != {v.id for v in vs if v.id != u.id}:
        return _NO_MATCH
    sink_children = []
    loop_children = []
    for v in vs:
        if v.id == u.id:
            continue
        if v.infinite_emitter:
            return _NO_MATCH
        out = [c.edges[ei] for ei in c.out_edges[v.id]]
        inc = [c.edges[ei] for ei in c.in_edges[v.id]]
        if not out:
            if len(inc) != 1:
                return _NO_MATCH
            sink_children.append(v.id)
        elif len(out) == 1 and out[0].src == out[0].dst == v.id:
            if len(inc) != 2:  # star edge plus its own loop
                return _NO_MATCH
            loop_children.append(v.id)
        else:
            return _NO_MATCH
    ns, nl = len(sink_children), len(loop_children)
    if ns + nl != len(star):
        return _NO_MATCH
    kind = "E6" if ns and nl else "E4" if ns else "E5"
    return PatternClass(kind, u.id, ns, nl, u.infinite_emitter)
