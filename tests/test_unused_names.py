"""Drift guard for the rule "no exported helpers that only their own tests
call": every function and class defined in ``src/lpalab`` is referred to by a
module of the package other than ``__init__.py``, or is listed in ALLOWED
with the reason it stays.  A reference is a name or an attribute with the
same spelling, so the guard is coarse; it still catches a helper nothing in
the package uses."""

import ast
from pathlib import Path

import lpalab

SRC = Path(lpalab.__file__).parent

# name -> why it stays although no package module refers to it
ALLOWED = {
    "nonsolvability_certificate": "checked non-solvability proof; verify shows it in ROADMAP item 3",
    "laurent_corner_certificate": "the same proof for a cycle without exit; ROADMAP item 3",
    "verify_matrix_units": "test oracle for the matrix-unit relations of an embedding",
    "mat_involution": "test oracle for the transpose-with-entry-involution",
    "graph_from_lists": "library API shown in the README",
    "sinks": "library API shown in the README",
    "regular_vertices": "library API shown in the README",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _defined(trees) -> dict:
    """Non-dunder function and class name -> the module that defines it."""
    out = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                out.setdefault(node.name, module)
    return out


def _referenced(trees) -> set:
    names = set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_src_name_is_used_in_src_or_allowed():
    trees = _trees()
    defined = _defined(trees)
    referenced = _referenced(trees)
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in referenced and name not in ALLOWED)
    assert not unused, "defined in src/lpalab but used by no package module: " + ", ".join(unused)


def test_allowlist_names_only_unused_definitions():
    trees = _trees()
    defined = _defined(trees)
    referenced = _referenced(trees)
    assert all(reason for reason in ALLOWED.values())
    assert sorted(n for n in ALLOWED if n not in defined) == []
    # A listed name that gained a caller leaves the list.
    assert sorted(n for n in ALLOWED if n in referenced) == []
