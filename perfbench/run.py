"""lpalab benchmark: seeded CLI workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload corpus-exact --seed 1 --seconds 30 --trace 0

Each item is one in-process ``lpalab.cli.main(argv)`` call with stdout
captured, so it pays what a user pays per command: argument parsing, graph
load, a fresh ``LeavittAlgebra`` and its normal-form cache, and the JSON
emit.  There is no warm-up pass, because every CLI call pays that set-up.
One process, one thread.

Set-up (importing lpalab from this checkout's ``src`` and generating and
validating the inputs) is repeated ``SETUP_REPS`` times; ``setup_s`` is the
median.  The graph files are written once afterwards, untimed.  Then whole passes over the items run, one at least, and another
only while it should end within ``--seconds``.  Every item's output is
checked against ``reference.json`` and, for exact-mode dims, against the
structure-theorem count.

``--trace 0`` reports the end-to-end metrics of ``spec.END_TO_END``.
``--trace 1`` runs one untraced pass and one traced pass and reports the
per-layer metrics of ``spec.PER_LAYER``; their difference in wall time is
the tracing overhead.  The last line of stdout is the result object; the
line before it stamps the run (interpreter, revision, CPUs, seed) and gives
details that have no metric of their own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS
from tracing import Tracer, instrument, layer_metrics
from workloads import build, check, load_reference, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 9
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10
TRACE_KEEP = 20000  # spans kept verbatim and written out; all are aggregated


class BenchError(Exception):
    pass


class Pass(NamedTuple):
    wall: float
    latencies: list
    results: list  # (rc, stdout) per item


def import_lpalab():
    """Import ``lpalab.cli`` afresh from this checkout's ``src``."""
    if not (SRC / "lpalab" / "__init__.py").is_file():
        raise BenchError(f"no lpalab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "lpalab" or n.startswith("lpalab.")]:
        del sys.modules[name]
    cli = importlib.import_module("lpalab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"lpalab imported from {cli.__file__}, not from {SRC}")
    return cli


def run_item(main, argv):
    """One CLI call; returns (exit code or the exception raised, stdout,
    seconds).  Stderr is captured too and dropped: the check reads the exit
    code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a raising item is a failed item, not a failed run
            rc = exc
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), seconds


def run_pass(main, items, tracer: Tracer = None) -> Pass:
    latencies, results = [], []
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin("bench.pass")
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.request = i
        # Each item starts from a clean heap, as a fresh CLI process would,
        # whatever ran before it in the seeded order.
        gc.collect()
        rc, out, seconds = run_item(main, item.argv)
        latencies.append(seconds)
        results.append((rc, out))
    wall = tracer.end() if tracer is not None else time.perf_counter() - start
    return Pass(wall, latencies, results)


def tail_percentile(samples) -> tuple:
    """(percentile, value, samples beyond it): the highest rung of
    TAIL_LADDER whose nearest-rank value has at least MIN_BEYOND samples
    above it.  Where no rung qualifies the maximum is returned as
    percentile 100 with none beyond."""
    xs = sorted(samples)
    n = len(xs)
    best = (100.0, xs[-1], 0)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= MIN_BEYOND:
            best = (q, xs[rank - 1], n - rank)
    return best


def check_pass(items, p: Pass, reference) -> list:
    return [reason for item, (rc, out) in zip(items, p.results)
            if (reason := check(item, rc, out, reference)) is not None]


def end_to_end_metrics(passes, setup_times) -> dict:
    latencies = [x for p in passes for x in p.latencies]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": statistics.median(tail_percentile(p.latencies)[1] for p in passes) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def git_revision() -> str:
    """HEAD of the checkout's own .git, if it has one, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lpalab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[n for n, _ in WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, workdir: Path) -> tuple:
    """Returns (report, result) for one run."""
    reference = load_reference()
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cli = import_lpalab()
        items, docs = build(args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    # Writing the graph files is left out of setup_s: that time belongs to
    # the disk, not to lpalab, and on a shared virtual disk the same writes
    # varied from 0.05 to 0.4 s between identical runs.
    write_inputs(workdir, docs)

    # The harness's own objects (reference table, set-up leftovers) stay out
    # of the collections the measured items trigger.
    gc.collect()
    gc.freeze()
    report = {"stamp": stamp(args.seed), "workload": args.workload, "trace": args.trace,
              "items_per_pass": len(items), "setup_rep_s": setup_times}
    problems = []  # run-level checks that no single item owns
    if args.trace:
        untraced = run_pass(cli.main, items)
        tracer = Tracer(keep=TRACE_KEEP)
        restore = instrument(tracer, [m for n, m in sys.modules.items()
                                      if n == "lpalab" or n.startswith("lpalab.")])
        try:
            traced = run_pass(cli.main, items, tracer)
        finally:
            restore()
        passes = [untraced, traced]
        metrics = layer_metrics(tracer, traced.wall, untraced.wall)
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        report["layer_self_sum_s"] = self_sum
        if abs(self_sum - traced.wall) > 1e-6 * max(1.0, traced.wall):
            problems.append(f"layer self times sum to {self_sum}, traced wall is {traced.wall}")
        trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        units = {name: unit for name, unit, _, _, _ in PER_LAYER}
    else:
        passes = [run_pass(cli.main, items)]
        begin = time.perf_counter() - passes[0].wall
        # Start another pass only if it should end within --seconds.
        while time.perf_counter() - begin + passes[-1].wall <= args.seconds:
            passes.append(run_pass(cli.main, items))
        metrics = end_to_end_metrics(passes, setup_times)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    failures = [reason for p in passes for reason in check_pass(items, p, reference)]
    attempted = sum(len(p.results) for p in passes)
    q, _, beyond = tail_percentile(passes[0].latencies)
    report.update({
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "item_tail": {"percentile": q, "samples": len(items), "beyond": beyond},
        "error_frac": len(failures) / attempted,
        "failures": (problems + failures)[:5],
    })
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        report, result = measure(args, workdir)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
