"""Workload inputs, generated from the seed, and the check of each item.

An item is one ``lpalab`` command line.  The seed is the only source of
randomness: it permutes the declaration order of the vertices and edges in
every graph file, the order of the items, and the ``--seed`` of the
``prop3c-upper`` case.  Exit codes, statuses and settled dims (see
``settled``) do not depend on declaration order, so one reference table
serves every seed.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement, permutations
from pathlib import Path
from typing import NamedTuple, Optional

FIELDS = ("F2", "F3", "Q")

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")


class Item(NamedTuple):
    id: str                 # key into the reference table
    argv: list
    oracle_dim0: Optional[int] = None  # structure-theorem dims[0], corpus only


def acyclic_classes(max_v: int = 4, max_e: int = 5) -> list:
    """Every acyclic multigraph with at most max_v vertices and max_e edges,
    one canonical (nv, edges) representative per relabelling class, sorted.

    Every acyclic graph has a topological labelling, so edges s -> d with
    s < d reach every class.
    """
    seen = set()
    for nv in range(1, max_v + 1):
        forward = [(s, d) for s in range(nv) for d in range(s + 1, nv)]
        perms = list(permutations(range(nv)))
        for ne in range(max_e + 1):
            for combo in combinations_with_replacement(forward, ne):
                seen.add((nv, min(tuple(sorted((p[s], p[d]) for s, d in combo))
                                  for p in perms)))
    return sorted(seen)


def path_counts(nv: int, edges) -> list:
    """n(v): the number of paths ending at v, the trivial path included."""
    memo: dict = {}

    def n(v):
        if v not in memo:
            memo[v] = 1 + sum(n(s) for s, d in edges if d == v)
        return memo[v]

    return [n(v) for v in range(nv)]


def skew_dim(nv: int, edges, flagged: Optional[int], characteristic: int) -> int:
    """Dimension of the skew part from L(E) = sum of M_n(v)(K) over sinks and
    flagged vertices: n(n-1)/2 per block, or n(n+1)/2 in characteristic 2."""
    emitters = {s for s, _ in edges}
    n = path_counts(nv, edges)
    sign = 1 if characteristic == 2 else -1
    return sum(n[v] * (n[v] + sign) // 2 for v in range(nv)
               if v not in emitters or v == flagged)


def corpus_graphs() -> list:
    """(key, nv, edges, flagged vertex or None): each class, then each of its
    variants with one out-emitting vertex flagged as an infinite emitter."""
    out = []
    for nv, edges in acyclic_classes():
        base = f"{nv}v:" + ",".join(f"{s}{d}" for s, d in edges)
        out.append((base, nv, edges, None))
        for v in sorted({s for s, _ in edges}):
            out.append((f"{base}!{v}", nv, edges, v))
    return out


def graph_json(nv: int, edges, flagged: Optional[int], rng: random.Random) -> dict:
    """Graph file content with vertex and edge declaration order shuffled."""
    vertices = [{"id": f"v{i}", "infinite_emitter": i == flagged} for i in range(nv)]
    es = [{"id": f"e{k}", "src": f"v{s}", "dst": f"v{d}"} for k, (s, d) in enumerate(edges)]
    rng.shuffle(vertices)
    rng.shuffle(es)
    return {"vertices": vertices, "edges": es}


E3 = (2, ((0, 1), (1, 0)))
ROSE2 = (1, ((0, 0), (0, 0)))


def _verify(path, field, *rest) -> list:
    return ["verify", "--graph", str(path), "--field", field, *rest]


def build(workload: str, seed: int, workdir: Path) -> tuple:
    """The workload's items in seeded order and its graph documents
    ({file name: JSON object}), each validated with lpalab.  The items name
    files under workdir; ``write_inputs`` puts the documents there."""
    from lpalab.graphs import is_acyclic, validate_graph

    rng = random.Random(seed)
    docs: dict = {}
    items = []

    def graph_file(name, nv, edges, flagged):
        docs[name] = graph_json(nv, edges, flagged, rng)
        return str(workdir / name)

    if workload == "corpus-exact":
        for idx, (key, nv, edges, flagged) in enumerate(corpus_graphs()):
            path = graph_file(f"g{idx:03d}.json", nv, edges, flagged)
            for field in FIELDS:
                char = 0 if field == "Q" else int(field[1:])
                items.append(Item(f"{key} {field}", _verify(path, field, "--mode", "exact"),
                                  skew_dim(nv, edges, flagged, char)))
    elif workload in ("cyclic-F3", "cyclic-Q"):
        e3 = graph_file("e3.json", *E3, None)
        if workload == "cyclic-F3":
            rose = graph_file("rose2.json", *ROSE2, None)
            items.append(Item("E3 F3 w8 d4", _verify(e3, "F3", "--mode", "truncated",
                                                      "--weight", "8", "--depth", "4")))
            items.append(Item("rose2 F3 w4 d1", _verify(rose, "F3", "--mode", "truncated",
                                                         "--weight", "4", "--depth", "1")))
        else:
            items.append(Item("E3 Q w6 d4", _verify(e3, "Q", "--mode", "truncated",
                                                     "--weight", "6", "--depth", "4")))
    elif workload == "matrix-witness":
        case_seed = rng.randrange(2 ** 31)
        items = [
            Item("prop3d", ["matrix", "--case", "prop3d", "--field", "Q", "--steps", "6"]),
            Item("prop3c-upper", ["matrix", "--case", "prop3c-upper", "--field", "F2",
                                  "--samples", "1000", "--degree", "3",
                                  "--seed", str(case_seed)]),
            Item("prop3a", ["matrix", "--case", "prop3a", "--field", "Q", "--a", "1",
                            "--b", "1", "--c", "1", "--steps", "8"]),
            Item("cor-laurent", ["matrix", "--case", "cor-laurent", "--field", "F2",
                                 "--degree", "3", "--depth", "8"]),
            Item("cor-field", ["matrix", "--case", "cor-field", "--field", "F2"]),
        ]
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    for name, doc in docs.items():
        if is_acyclic(validate_graph(doc)) != (workload == "corpus-exact"):
            raise ValueError(f"{name}: wrong cycle structure for {workload}")
    rng.shuffle(items)
    return items, docs


def write_inputs(workdir: Path, docs: dict) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")


def settled(dims: list) -> list:
    """dims cut after the first step that repeats its predecessor, provided
    every later step repeats it too; otherwise dims unchanged.

    How many repeats lpalab prints before it detects a fixed point depends
    on the declaration order: ``Subspace.reduce`` stops at the first
    non-pivot key, so rows keep entries in other rows' pivot columns and
    equal spans can compare unequal.  Only the cut sequence is fixed by the
    graph.
    """
    for k in range(1, len(dims)):
        if dims[k] == dims[k - 1]:
            return list(dims[:k]) if all(d == dims[k] for d in dims[k:]) else list(dims)
    return list(dims)


def summarize(argv, rc, out: str) -> list:
    """What the reference fixes about one result: the exit code plus status
    and settled dims for verify, or case, steps checked and failures for
    matrix."""
    obj = json.loads(out)
    if argv[0] == "verify":
        return [rc, obj["status"], settled(obj["probe"]["dims"])]
    return [rc, obj["case"], obj["steps_checked"], obj["failures"]]


def check(item: Item, rc, out: str, reference: dict) -> Optional[str]:
    """None when the item's output matches the reference and the oracle,
    else a one-line reason."""
    if not isinstance(rc, int):
        return f"{item.id}: raised {rc!r}"
    try:
        got = summarize(item.argv, rc, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{item.id}: unreadable output ({exc}): {out[:120]!r}"
    want = reference.get(item.id)
    if got != want:
        return f"{item.id}: got {got}, reference {want}"
    if item.oracle_dim0 is not None and got[2][0] != item.oracle_dim0:
        return f"{item.id}: dims[0] {got[2][0]} != structure-theorem count {item.oracle_dim0}"
    return None


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
