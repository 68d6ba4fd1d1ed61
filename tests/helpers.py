"""Shared graph builders and random-element utilities for the test suite."""

from itertools import combinations_with_replacement, permutations

from lpalab import Element, LeavittAlgebra, Subspace, graph_from_lists
from lpalab.algebra import mono_order_key


def e1_graph():
    return graph_from_lists(["v"], [])


def e2_graph():
    return graph_from_lists(["v"], [("c", "v", "v")])


def e3_graph():
    return graph_from_lists(["v", "w"], [("e", "v", "w"), ("f", "w", "v")])


def e4_graph(n, flagged=False):
    vs = ["u"] + [f"u{i}" for i in range(1, n + 1)]
    es = [(f"e{i}", "u", f"u{i}") for i in range(1, n + 1)]
    return graph_from_lists(vs, es, infinite=["u"] if flagged else [])


def e5_graph(m, flagged=False):
    vs = ["v"] + [f"w{j}" for j in range(1, m + 1)]
    es = [(f"f{j}", "v", f"w{j}") for j in range(1, m + 1)]
    es += [(f"c{j}", f"w{j}", f"w{j}") for j in range(1, m + 1)]
    return graph_from_lists(vs, es, infinite=["v"] if flagged else [])


def e6_graph(ns, nl, flagged=False):
    vs = ["w"] + [f"s{i}" for i in range(1, ns + 1)] + [f"l{j}" for j in range(1, nl + 1)]
    es = [(f"a{i}", "w", f"s{i}") for i in range(1, ns + 1)]
    es += [(f"b{j}", "w", f"l{j}") for j in range(1, nl + 1)]
    es += [(f"c{j}", f"l{j}", f"l{j}") for j in range(1, nl + 1)]
    return graph_from_lists(vs, es, infinite=["w"] if flagged else [])


def rose_graph(k):
    return graph_from_lists(["v"], [(f"c{i}", "v", "v") for i in range(k)])


def f1_path_graph():
    return graph_from_lists(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "c")])


def f2_graph():
    return graph_from_lists(["a", "b", "v"], [("e", "a", "v"), ("f", "b", "v")])


def f3_graph():
    return graph_from_lists(["a", "v"], [("e", "a", "v"), ("f", "a", "v")])


# ----------------------------------------------------------------------
# the full-row reference path: whole skew or symmetric rows, one bracket or
# circle per pair, against which the half-row probe is tested


def element_subspace(algebra: LeavittAlgebra, elements) -> Subspace:
    """Canonical span of path-algebra elements (rows are term dicts)."""
    s = Subspace(algebra.field, mono_order_key)
    for el in elements:
        algebra._require_context(el)
        s.insert(el.terms)
    return s


def element_pair_op(product):
    """Row-level form of a bound ``algebra.bracket`` or ``algebra.circle``."""
    algebra = product.__self__

    def dict_op(a: dict, b: dict) -> dict:
        return product(Element(algebra, a), Element(algebra, b)).terms

    return dict_op


def random_field_elem(fld, rng):
    if fld.characteristic == 0:
        from fractions import Fraction

        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(fld.p)


def random_element(alg: LeavittAlgebra, rng, max_weight=3, terms=4):
    monos = alg.basis_monomials(max_weight)
    picked = {}
    for _ in range(terms):
        m = monos[rng.randrange(len(monos))]
        picked[m] = random_field_elem(alg.field, rng)
    return alg.element(picked)


def basis_count(alg: LeavittAlgebra, max_weight: int) -> int:
    """Number of basis monomials of weight <= max_weight, by a path-count
    DP instead of enumeration: the count oracle for ``basis_monomials``."""
    nv = len(alg.graph.vertices)
    counts = [[0] * nv for _ in range(max_weight + 1)]
    for v in range(nv):
        counts[0][v] = 1
    for k in range(1, max_weight + 1):
        for v in range(nv):
            c = counts[k - 1][v]
            if not c:
                continue
            for e in alg._out[v]:
                counts[k][alg._dst[e]] += c
    # Excluded pairs both end with the last edge of a regular vertex.
    total = 0
    for v in range(nv):
        ending = [counts[a][v] for a in range(max_weight + 1)]
        for a in range(max_weight + 1):
            for b in range(max_weight + 1 - a):
                total += ending[a] * ending[b]
    excl = 0
    for v in alg._regular:
        # pairs (lam' e, nu' e): lam', nu' end at v, weight grows by 2
        for a in range(max_weight):
            for b in range(max_weight - 1 - a):
                excl += counts[a][v] * counts[b][v]
    return total - excl


def corpus_graphs(max_v=4, max_e=5):
    """Every graph with <= max_v vertices and <= max_e edges, one canonical
    representative per relabeling class."""
    seen = set()
    out = []
    for nv in range(1, max_v + 1):
        pairs = [(i, j) for i in range(nv) for j in range(nv)]
        perms = list(permutations(range(nv)))
        for ne in range(0, max_e + 1):
            for combo in combinations_with_replacement(pairs, ne):
                canon = min(
                    tuple(sorted((pm[s], pm[d]) for (s, d) in combo)) for pm in perms
                )
                key = (nv, canon)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


def build_corpus_graph(nv, edges):
    return graph_from_lists(
        [f"v{i}" for i in range(nv)],
        [(f"e{k}", f"v{s}", f"v{d}") for k, (s, d) in enumerate(edges)],
    )


# ----------------------------------------------------------------------
# oracles for the matrix side: the matrix-unit relations of an embedding, and
# matrices written out as grids


def verify_matrix_units(algebra: LeavittAlgebra, units: dict) -> list:
    """Check a family {(i, j): Element} for the full matrix-unit relations.

    Verifies u_ij u_kl = delta_jk u_il for all index pairs, that the diagonal
    sum is idempotent, and that the star maps u_ij to u_ji (compatibility with
    the transpose involution).  Returns a list of failure descriptions; empty
    means all identities hold.
    """
    n = max(i for (i, _) in units)
    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) not in units:
                failures.append(f"missing unit ({i},{j})")
    if failures:
        return failures
    zero = algebra.zero()
    for (i, j), u in units.items():
        for (k, l), w in units.items():
            prod = algebra.multiply(u, w)
            expect = units[(i, l)] if j == k else zero
            if prod != expect:
                failures.append(f"u[{i}{j}]*u[{k}{l}] != {'u[' + str(i) + str(l) + ']' if j == k else '0'}")
    diag = zero
    for i in range(1, n + 1):
        diag = algebra.add(diag, units[(i, i)])
    if algebra.multiply(diag, diag) != diag:
        failures.append("diagonal sum not idempotent")
    for (i, j), u in units.items():
        if algebra.involute(u) != units[(j, i)]:
            failures.append(f"involute(u[{i}{j}]) != u[{j}{i}]")
    return failures


def grid(rows) -> tuple:
    """A matrix, as ``lpalab.matrices`` stores it, from a list of rows."""
    return tuple(tuple(r) for r in rows)


def mat_involution(ctx, A):
    """Transpose with the entry involution applied; an anti-automorphism."""
    inv = ctx.ring.involute
    return tuple(tuple(inv(A[j][i]) for j in range(ctx.n)) for i in range(ctx.n))


# ----------------------------------------------------------------------
# reference Laurent arithmetic: the schoolbook loops, one field-method call
# per operation, that LaurentRing's add, sub and mul must agree with


def ref_laurent_add(fld, f, g):
    out = dict(f)
    for e, c in g.items():
        s = fld.add(out.get(e, fld.zero), c)
        if fld.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def ref_laurent_sub(fld, f, g):
    return ref_laurent_add(fld, f, {e: fld.neg(c) for e, c in g.items()})


def ref_laurent_mul(fld, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            s = fld.add(out.get(e, fld.zero), fld.mul(c1, c2))
            if fld.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def random_laurent(fld, rng, terms, low=-6, high=6):
    """A Laurent polynomial with `terms` distinct exponents in [low, high],
    every coefficient nonzero (with denominators over Q)."""
    out = {}
    for e in rng.sample(range(low, high + 1), terms):
        c = fld.zero
        while fld.is_zero(c):
            c = random_field_elem(fld, rng)
        out[e] = c
    return out


def assert_canonical_laurent(fld, f):
    """No stored zero; residues are ints in [0, p); rationals are Fraction."""
    from fractions import Fraction

    for e, c in f.items():
        assert type(e) is int
        if fld.characteristic == 0:
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 0 < c < fld.p
