"""The README's Python blocks run and print what their comments claim."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(block: str) -> tuple:
    """(printed lines, the values claimed by the block's trailing comments)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue().splitlines(), re.findall(r"#\s*(.+?)\s*$", block, re.M)


def test_library_sketches_print_their_claims():
    # The library sketch, then the matrix names imported from lpalab.matrices.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    runs = [_run(block) for block in blocks]
    assert [claimed for _, claimed in runs] == [["2", "[6, 2, 0]", "AGREE"], ["True"]]
    for printed, claimed in runs:
        assert printed == claimed
