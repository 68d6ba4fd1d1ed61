"""Regenerate reference.json: the summary of every item's output, keyed by
item id, as the current lpalab computes it.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter results; the structure-theorem
oracle in the benchmark's check stays independent of this table.
"""

from __future__ import annotations

import json
import shutil

from run import ROOT, WORK_ROOT, import_lpalab, run_item
from spec import WORKLOADS
from workloads import REFERENCE_PATH, build, summarize, write_inputs


def main() -> None:
    cli = import_lpalab()
    workdir = WORK_ROOT / "reference"
    table = {}
    try:
        for name, _ in WORKLOADS:
            items, docs = build(name, 0, workdir / name)
            write_inputs(workdir / name, docs)
            for item in items:
                rc, out, _ = run_item(cli.main, item.argv)
                table[item.id] = summarize(item.argv, rc, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} entries to {REFERENCE_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
