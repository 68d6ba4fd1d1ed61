"""What the benchmark measures and why: workloads, metrics, and the inputs
kept out of it.

``BENCHMARK.json`` at the repository root is a projection of these tables
(``test_perfbench.py`` checks that the two agree).  The tables carry more
than that file's fixed schema can: for every per-layer metric, the
end-to-end metric and workload it should move (``moves``) and the one where
a change to that layer should show no change (``holds``), written as
``metric@workload``.
"""

RUN_SECONDS = 30

WORKLOADS = [
    ("corpus-exact",
     "1848 tiny exact verify calls (acyclic graphs <= 4 vertices, <= 5 edges, F2/F3/Q): "
     "per-call costs in cli, graphs, classify and exprs weigh in; no span exceeds 81 rows"),
    ("cyclic-F3",
     "truncated verify of E3 (w8 d4) and rose(2) (w4 d1) over F3: products and echelon "
     "bookkeeping on small residues, no Fraction"),
    ("cyclic-Q",
     "truncated verify of E3 over Q (w6 d4): Fraction elimination whose coefficients grow "
     "at step 4"),
    ("matrix-witness",
     "the matrix cases prop3d, prop3c-upper, prop3a, cor-laurent, cor-field: the only "
     "workload on matrices and LaurentRing"),
]

# (name, unit, better, bound).  On a shared 2-CPU host the same item's time
# varies by about 8% from one run to the next with no change in the work, so
# the timing bounds are the widest allowed; resident memory barely varies.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

CORPUS = "corpus-exact"
F3 = "cyclic-F3"
Q = "cyclic-Q"
MATRIX = "matrix-witness"

# (name, unit, better, moves, holds)
PER_LAYER = [
    ("cli.calls", "count", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{Q}"),
    ("cli.self_s", "s", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{Q}"),
    ("graphs.calls", "count", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{F3}"),
    ("graphs.self_s", "s", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{F3}"),
    ("classify.calls", "count", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{F3}"),
    ("classify.self_s", "s", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{F3}"),
    ("series.self_s", "s", "lower", [f"wall_s@{F3}", f"wall_s@{Q}"], f"wall_s@{MATRIX}"),
    ("series.probe.calls", "count", "lower",
     [f"item_p50_ms@{CORPUS}", f"wall_s@{CORPUS}"], f"wall_s@{MATRIX}"),
    ("series.probe.self_s", "s", "lower",
     [f"item_p50_ms@{CORPUS}", f"wall_s@{CORPUS}"], f"wall_s@{MATRIX}"),
    ("series.insert.calls", "count", "lower", [f"wall_s@{F3}"], f"item_p50_ms@{CORPUS}"),
    ("series.insert.accepted", "count", "lower", [f"wall_s@{F3}"], f"item_p50_ms@{CORPUS}"),
    ("series.insert_accept_ratio", "ratio", "higher", [f"wall_s@{F3}"],
     f"item_p50_ms@{CORPUS}"),
    ("series.insert.self_s", "s", "lower", [f"wall_s@{F3}"], f"item_p50_ms@{CORPUS}"),
    ("series.reduce.calls", "count", "lower", [f"wall_s@{Q}"], f"wall_s@{MATRIX}"),
    ("series.reduce.self_s", "s", "lower", [f"wall_s@{Q}", f"peak_rss_mb@{F3}"], f"wall_s@{F3}"),
    ("series.coeff_bits_max", "bits", "lower", [f"wall_s@{Q}"], f"wall_s@{F3}"),
    ("series.rows_max", "count", "lower", [f"peak_rss_mb@{F3}"], f"item_p50_ms@{CORPUS}"),
    ("series.product_span.calls", "count", "lower", [f"wall_s@{F3}", f"wall_s@{Q}"],
     f"item_p50_ms@{CORPUS}"),
    ("series.product_span.self_s", "s", "lower", [f"wall_s@{F3}", f"wall_s@{Q}"],
     f"item_p50_ms@{CORPUS}"),
    ("algebra.self_s", "s", "lower", [f"wall_s@{F3}"], f"wall_s@{MATRIX}"),
    ("algebra.multiply.calls", "count", "lower", [f"wall_s@{F3}"], f"wall_s@{MATRIX}"),
    ("algebra.multiply.self_s", "s", "lower", [f"wall_s@{F3}"], f"wall_s@{MATRIX}"),
    ("algebra.term_pairs", "count", "lower", [f"wall_s@{F3}"], f"wall_s@{MATRIX}"),
    ("algebra.pair.calls", "count", "lower", [f"wall_s@{F3}"], f"wall_s@{MATRIX}"),
    ("algebra.pair_nonzero_ratio", "ratio", "higher", [f"wall_s@{F3}"], f"wall_s@{MATRIX}"),
    ("algebra.generators.self_s", "s", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{MATRIX}"),
    ("scalars.self_s", "s", "lower", [f"wall_s@{MATRIX}"], f"wall_s@{CORPUS}"),
    ("scalars.rational_ops", "count", "lower", [f"wall_s@{Q}"], f"wall_s@{F3}"),
    ("scalars.prime_ops", "count", "lower", [f"wall_s@{F3}"], f"wall_s@{Q}"),
    ("scalars.laurent_mul.calls", "count", "lower", [f"wall_s@{MATRIX}"], f"wall_s@{CORPUS}"),
    ("scalars.laurent_mul.term_pairs", "count", "lower", [f"wall_s@{MATRIX}"],
     f"wall_s@{CORPUS}"),
    ("scalars.laurent_mul.self_s", "s", "lower", [f"wall_s@{MATRIX}"], f"wall_s@{CORPUS}"),
    ("matrices.mat_bracket.calls", "count", "lower", [f"wall_s@{MATRIX}"], f"wall_s@{CORPUS}"),
    ("matrices.self_s", "s", "lower", [f"wall_s@{MATRIX}"], f"wall_s@{CORPUS}"),
    ("matrices.laurent_terms_max", "count", "lower", [f"wall_s@{MATRIX}"], f"wall_s@{CORPUS}"),
    ("exprs.format.calls", "count", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{MATRIX}"),
    ("exprs.format.self_s", "s", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{MATRIX}"),
    ("exprs.self_s", "s", "lower", [f"item_p50_ms@{CORPUS}"], f"wall_s@{MATRIX}"),
    # The harness and the tracer's own inspections are layers too, so that
    # the layer self times of a traced pass sum to trace.wall_s.
    ("bench.self_s", "s", "lower", [], f"wall_s@{CORPUS}"),
    ("trace.self_s", "s", "lower", [], f"wall_s@{CORPUS}"),
    ("trace.wall_s", "s", "lower", [], f"wall_s@{CORPUS}"),
    ("trace.untraced_wall_s", "s", "lower", [], f"wall_s@{CORPUS}"),
    ("trace.overhead_s", "s", "lower", [], f"wall_s@{CORPUS}"),
]

LAYERS = ("cli", "graphs", "classify", "series", "algebra", "scalars", "matrices",
          "exprs", "bench", "trace")

# Inputs known to run without bound at this revision.  They are kept out of
# the timed workloads and named here as targets for a deterministic work
# budget.  ran_past_s is the wall time after which one run was stopped
# unfinished on a 2-CPU Intel Xeon under Python 3.11; "measured" is True where
# that run was made when this table was written, False where the bound is
# the one reported before the benchmark existed.
UNBOUNDED = [
    {"argv": ["matrix", "--case", "cor-laurent", "--field", "Q"],
     "ran_past_s": 200, "measured": False},
    {"argv": ["matrix", "--case", "cor-laurent", "--field", "Q", "--degree", "1",
              "--depth", "8"],
     "ran_past_s": 210, "measured": True},
    {"argv": ["verify", "--graph", "rose2.json", "--field", "F3", "--mode", "truncated",
              "--weight", "3", "--depth", "2"],
     "ran_past_s": 110, "measured": True},
    {"argv": ["verify", "--graph", "rose2.json", "--field", "F3", "--mode", "truncated",
              "--weight", "4", "--depth", "2"],
     "ran_past_s": 100, "measured": False},
]


def benchmark_json() -> dict:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }
