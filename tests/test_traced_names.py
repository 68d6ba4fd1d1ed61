"""Drift guard for the benchmark tracer: every lpalab name that
``perfbench/tracing.py`` wraps (its ``SPANS`` and ``_COUNTED`` keys) still
resolves.  The keys are read with ``ast``, so the tracer is neither imported
nor changed; without this guard only the benchmark's own tests notice a
renamed or deleted function."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list:
    """(module, dotted attribute) for each key of SPANS and _COUNTED."""
    out = []
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id in ("SPANS", "_COUNTED"):
            out.extend(ast.literal_eval(key) for key in node.value.keys)
    return out


def test_tracer_names_are_read():
    names = _traced_names()
    assert ("series", "_run_series") in names
    assert ("scalars", "PrimeField") in names


@pytest.mark.parametrize("module, attr", _traced_names(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"lpalab.{module}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"lpalab.{module}.{attr}: no {part!r}"
        obj = getattr(obj, part)
    assert callable(obj)
