"""Tests of the benchmark itself: its schema, inputs, checks and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import run
import spec
import tracing
import workloads
from tracing import Tracer


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_benchmark_json_is_the_spec():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_spec_fits_the_benchmark_schema():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"]] \
        + [m["name"] for m in doc["per_layer"]]
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    workload_names = {w["name"] for w in doc["workloads"]}
    metric_names = {m["name"] for m in doc["end_to_end"]}
    for _, _, _, moves, holds in spec.PER_LAYER:
        for target in moves + [holds]:
            metric, workload = target.split("@")
            assert metric in metric_names and workload in workload_names


def test_self_time_of_nested_spans():
    #          A  B  C  C  B  B  B   A
    clock = FakeClock([0, 1, 2, 4, 5, 6, 7, 10])
    t = Tracer(clock=clock, keep=10)
    t.begin("bench.a")
    t.begin("series.b")
    t.begin("algebra.c")
    assert t.end() == 2
    assert t.end() == 4
    t.begin("series.b")
    t.end()
    assert t.end() == 10
    assert t.self_s == {"algebra.c": 2, "series.b": 2 + 1, "bench.a": 10 - 4 - 1}
    assert t.calls == {"algebra.c": 1, "series.b": 2, "bench.a": 1}
    totals = t.layer_totals()["self_s"]
    assert sum(totals.values()) == 10
    # Kept spans in the order they ended, with their parents' ids.
    assert [(sid, parent, name) for sid, parent, name, _, _, _ in t.spans] == [
        (3, 2, "algebra.c"), (2, 1, "series.b"), (4, 1, "series.b"), (1, None, "bench.a")]


def test_tail_percentile_keeps_ten_samples_beyond():
    def tail(n):
        xs = list(range(1, n + 1))
        random.Random(n).shuffle(xs)
        return run.tail_percentile(xs)

    assert tail(1848) == (99.0, 1830, 18)
    assert tail(1000) == (99.0, 990, 10)
    assert tail(999) == (90.0, 900, 99)
    assert tail(100) == (90.0, 90, 10)
    assert tail(99) == (100.0, 99, 0)
    assert tail(2) == (100.0, 2, 0)


def test_corpus_counts_and_structure_oracle():
    assert len(workloads.acyclic_classes()) == 197
    graphs = workloads.corpus_graphs()
    assert len(graphs) == 616
    assert len({key for key, _, _, _ in graphs}) == 616
    # E4 with two sinks: blocks M_2 + M_2.
    assert workloads.skew_dim(3, ((0, 1), (0, 2)), None, 2) == 6
    assert workloads.skew_dim(3, ((0, 1), (0, 2)), None, 3) == 2
    # Flagging the centre adds its block M_1.
    assert workloads.skew_dim(3, ((0, 1), (0, 2)), 0, 2) == 7
    assert workloads.skew_dim(1, (), None, 0) == 0


def test_settled_cuts_repeats_only():
    assert workloads.settled([28, 21, 21, 21]) == [28, 21]
    assert workloads.settled([49, 49, 49]) == [49]
    assert workloads.settled([6, 2, 0]) == [6, 2, 0]
    assert workloads.settled([5, 4, 4, 3]) == [5, 4, 4, 3]


@pytest.fixture(scope="module")
def cli():
    return run.import_lpalab()


def _written(workload, seed, workdir):
    items, docs = workloads.build(workload, seed, workdir)
    workloads.write_inputs(workdir, docs)
    return items


def test_seed_is_the_only_randomness(cli, tmp_path):
    a, docs_a = workloads.build("corpus-exact", 7, tmp_path)
    b, docs_b = workloads.build("corpus-exact", 7, tmp_path)
    c, docs_c = workloads.build("corpus-exact", 8, tmp_path)
    assert a == b and docs_a == docs_b
    assert [i.id for i in a] != [i.id for i in c] and docs_a != docs_c
    assert len(a) == 1848 and len(docs_a) == 616


def test_second_seed_gives_reference_results(cli, tmp_path):
    reference = workloads.load_reference()
    for seed in (1, 2):
        items = _written("corpus-exact", seed, tmp_path / str(seed))[:150]
        p = run.run_pass(cli.main, items)
        assert run.check_pass(items, p, reference) == []


def test_unbounded_inputs_stay_out_of_the_workloads(cli, tmp_path):
    def shape(argv):
        flags = dict(zip(argv[1::2], argv[2::2]))
        flags.pop("--graph", None)
        flags.pop("--seed", None)
        return argv[0], tuple(sorted(flags.items()))

    timed = {shape(item.argv) for name, _ in spec.WORKLOADS
             for item in workloads.build(name, 0, tmp_path)[0]}
    assert not timed & {shape(u["argv"]) for u in spec.UNBOUNDED}


def _small_items(tmp_path):
    items = _written("corpus-exact", 3, tmp_path)[:40]
    matrix = _written("matrix-witness", 3, tmp_path)
    return items + [i for i in matrix if i.id in ("prop3a", "cor-field", "cor-laurent")]


def _lpalab_modules():
    return [m for n, m in sys.modules.items() if n == "lpalab" or n.startswith("lpalab.")]


def test_traced_run_counts_repeat_and_self_times_sum(cli, tmp_path):
    items = _small_items(tmp_path)
    untraced = run.run_pass(cli.main, items)
    runs = []
    for _ in range(2):
        t = Tracer()
        restore = tracing.instrument(t, _lpalab_modules())
        try:
            traced = run.run_pass(cli.main, items, t)
        finally:
            restore()
        runs.append((t, traced))
        # Tracing changes no output.
        assert traced.results == untraced.results
    (t1, p1), (t2, p2) = runs
    assert t1.calls == t2.calls and t1.counts == t2.counts and t1.maxima == t2.maxima
    metrics = tracing.layer_metrics(t1, p1.wall, untraced.wall)
    assert set(metrics) == {name for name, _, _, _, _ in spec.PER_LAYER}
    assert sum(metrics[f"{layer}.self_s"] for layer in spec.LAYERS) == \
        pytest.approx(p1.wall, abs=1e-9)
    assert metrics["trace.overhead_s"] == p1.wall - untraced.wall
    for name in ("cli.calls", "graphs.calls", "classify.calls", "series.probe.calls",
                 "series.insert.calls", "algebra.multiply.calls", "exprs.format.calls",
                 "scalars.prime_ops", "scalars.rational_ops", "scalars.laurent_mul.calls",
                 "matrices.mat_bracket.calls"):
        assert metrics[name] > 0, name


def test_instrument_wraps_every_binding_and_restores(cli):
    classify, graphs, series = (importlib.import_module(f"lpalab.{m}")
                                for m in ("classify", "graphs", "series"))
    before = (cli.validate_graph, classify.solvability_probe, classify.is_acyclic,
              series.is_acyclic, series.Subspace.insert)
    t = Tracer()
    restore = tracing.instrument(t, _lpalab_modules())
    try:
        assert cli.validate_graph is graphs.validate_graph is not before[0]
        assert classify.solvability_probe is series.solvability_probe
        assert classify.is_acyclic is graphs.is_acyclic is series.is_acyclic
        assert classify.solvability_probe is not before[1]
        assert series.Subspace.insert is not before[4]
    finally:
        restore()
    assert (cli.validate_graph, classify.solvability_probe, classify.is_acyclic,
            series.is_acyclic, series.Subspace.insert) == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cyclic-Q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
