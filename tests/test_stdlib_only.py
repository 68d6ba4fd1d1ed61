"""Guard for "zero runtime dependencies": every absolute import in
``src/lpalab`` names lpalab itself or a module of the standard library."""

import ast
import sys
from pathlib import Path

import lpalab

SRC = Path(lpalab.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_lpalab_and_stdlib():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8"))):
            top = name.split(".")[0]
            if top != "lpalab" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}: {name}")
    assert not outside, outside
