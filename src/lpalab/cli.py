"""Batch front end: load graphs, classify, cross-verify, run the matrix-ring
cases, and evaluate ad-hoc expressions.  All reports are JSON unless --text;
output is byte-deterministic for fixed inputs (fixed seeds, ordered keys).

Exit codes: 0 pass, 1 semantic failure (FAIL status or witness failures),
2 usage/validation error, 3 requested mode unavailable (exact on a cyclic
graph).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import matrices
from .algebra import AlgebraError, LeavittAlgebra
from .classify import classify, cross_validate
from .exprs import ExprError, format_element, parse_element
from .graphs import GraphError, validate_graph
from .scalars import (
    LaurentRing,
    MatrixLabError,
    ScalarError,
    field_from_spec,
    field_of_characteristic,
)
from .series import ModeUnavailableError, SeriesError

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2
EXIT_UNAVAILABLE = 3

MATRIX_CASES = ("prop3a", "prop3b", "prop3c-upper", "prop3c-sharp", "prop3d",
                "cor-field", "cor-laurent")


def _int_at_least(low: int):
    """argparse type: an int >= low, so a vacuous count is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


COUNT = _int_at_least(1)


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError:
        raise GraphError(f"{path}: not UTF-8 text") from None
    return validate_graph(raw)


def _emit(obj: dict, args, text_lines=None) -> None:
    if getattr(args, "text", False) and text_lines is not None:
        payload = "\n".join(text_lines) + "\n"
    else:
        payload = json.dumps(obj, indent=2) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _cmd_classify(args) -> int:
    field_of_characteristic(args.char)  # rejects a characteristic neither 0 nor prime
    g = _load_graph(args.graph)
    v = classify(g, args.char)
    obj = v.to_json_obj()
    lines = [
        f"lie_solvable: {obj['lie_solvable']}",
        f"lie_index: {obj['lie_index']}",
        f"lie_nilpotent: {obj['lie_nilpotent']}",
        f"jordan_solvable: {obj['jordan_solvable']}",
        f"jordan_nilpotent: {obj['jordan_nilpotent']}",
        "components: " + ", ".join(
            f"{c['id']}={c['pattern']['kind']}" for c in obj["components"]
        ),
    ] + [f"caveat: {c}" for c in obj["caveats"]]
    _emit(obj, args, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    fld = field_from_spec(args.field)
    rep = cross_validate(g, fld, mode=args.mode, weight=args.weight,
                         depth=args.depth, structure=args.structure)
    obj = rep.to_json_obj()
    lines = [f"status: {rep.status}", f"dims: {rep.probe.dims}"] + [f"note: {n}" for n in rep.notes]
    _emit(obj, args, lines)
    return EXIT_OK if rep.status in ("AGREE", "CONSISTENT") else EXIT_SEMANTIC


def _cmd_matrix(args) -> int:
    # The first use of ``matrices`` compiles it: no other command does.
    fld = field_from_spec(args.field)
    case = args.case
    if case == "prop3a":
        ctx = matrices.MatrixRingCtx(args.n, fld)
        rep = matrices.witness_nge3(ctx, fld.parse(args.a), fld.parse(args.b),
                                    fld.parse(args.c),
                                    args.steps if args.steps is not None else 14)
    elif case == "prop3b":
        rep = matrices.witness_nilpotent_char2(fld, args.steps if args.steps is not None else 10)
    elif case == "prop3c-upper":
        rep = matrices.char2_laurent_index3_check(args.samples, args.degree, args.seed, fld)
    elif case == "prop3c-sharp":
        rep = matrices.char2_laurent_index3_check(0, args.degree, args.seed, fld)
        rep.case = "prop3c-sharp"
    elif case == "prop3d":
        ring = LaurentRing(fld)
        u = ring.sub(ring.x(), ring.x_inv())
        rep = matrices.witness_laurent_nonsolvable(ring, u,
                                                   args.steps if args.steps is not None else 6)
    elif case == "cor-field":
        rep = matrices.corollary_field_check(fld, args.depth or 10)
    elif case == "cor-laurent":
        rep = matrices.corollary_laurent_check(fld, args.degree, args.depth or 8)
    else:
        raise MatrixLabError(f"unknown case {case!r}")
    obj = rep.to_json_obj()
    lines = [f"case: {rep.case}", f"steps_checked: {rep.steps_checked}",
             f"failures: {len(rep.failures)}"] + [f"  {f}" for f in rep.failures]
    _emit(obj, args, lines)
    return EXIT_OK if rep.ok else EXIT_SEMANTIC


def _cmd_eval(args) -> int:
    g = _load_graph(args.graph)
    fld = field_from_spec(args.field)
    alg = LeavittAlgebra(g, fld)
    el = parse_element(alg, args.expr)
    sys.stdout.write(format_element(el) + "\n")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    fields = [field_from_spec(s) for s in args.fields.split(",") if s]
    if not fields:
        raise ScalarError(f"--fields names no field: {args.fields!r}")
    root = Path(args.dir)
    if not root.is_dir():
        raise GraphError(f"not a directory: {args.dir}")
    entries = []
    summary = {"AGREE": 0, "CONSISTENT": 0, "FAIL": 0, "ERROR": 0}
    errors = (GraphError, SeriesError, ScalarError, AlgebraError, OSError,
              json.JSONDecodeError)
    for path in sorted(root.glob("*.json")):
        # Read and validate each file once; a file that fails to load gives
        # one ERROR entry per field, with the same text.
        try:
            g, load_error = _load_graph(str(path)), None
        except errors as exc:
            g, load_error = None, exc
        for fld in fields:
            error = load_error
            if error is None:
                try:
                    status = cross_validate(g, fld, mode="auto", weight=args.weight,
                                            depth=args.depth).status
                except errors as exc:
                    error = exc
            entry = {"file": path.name, "field": repr(fld)}
            if error is None:
                entry["status"] = status
            else:
                status = entry["status"] = "ERROR"
                entry["error"] = str(error)
            entries.append(entry)
            summary[status] += 1
    obj = {"entries": entries, "summary": summary}
    lines = [f"{e['file']} {e['field']}: {e['status']}" for e in entries] + [
        "summary: " + ", ".join(f"{k}={v}" for k, v in summary.items())
    ]
    _emit(obj, args, lines)
    return EXIT_OK if summary["FAIL"] == 0 and summary["ERROR"] == 0 else EXIT_SEMANTIC


def _classify_options(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--text", action="store_true")
    p.add_argument("--out")


def _verify_options(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--field", required=True, help="F2, F3, F5, or Q")
    p.add_argument("--mode", choices=("auto", "exact", "truncated"), default="auto")
    p.add_argument("--weight", type=_int_at_least(0), default=6)
    p.add_argument("--depth", type=COUNT, default=None)
    p.add_argument("--structure", choices=("lie", "jordan"), default="lie")
    p.add_argument("--text", action="store_true")
    p.add_argument("--out")


def _matrix_options(p) -> None:
    p.add_argument("--case", required=True, choices=MATRIX_CASES)
    p.add_argument("--field", default="Q")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--c", default="1")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--steps", type=COUNT, default=None)
    p.add_argument("--samples", type=COUNT, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--degree", type=_int_at_least(0), default=3)
    p.add_argument("--depth", type=COUNT, default=None)
    p.add_argument("--text", action="store_true")
    p.add_argument("--out")


def _eval_options(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--expr", required=True)


def _corpus_options(p) -> None:
    p.add_argument("--dir", required=True)
    p.add_argument("--fields", default="F2,F3,Q")
    p.add_argument("--weight", type=_int_at_least(0), default=6)
    p.add_argument("--depth", type=COUNT, default=None)
    p.add_argument("--text", action="store_true")
    p.add_argument("--out")


# name -> (help line, options, handler), in the order the help lists them
SUBCOMMANDS = {
    "classify": ("pattern-match a graph and emit the verdict", _classify_options, _cmd_classify),
    "verify": ("classifier verdict vs series computation", _verify_options, _cmd_verify),
    "matrix": ("run one matrix-ring witness or property case", _matrix_options, _cmd_matrix),
    "eval": ("evaluate an expression to normal form", _eval_options, _cmd_eval),
    "corpus": ("cross-validate every graph file in a directory", _corpus_options, _cmd_corpus),
}


def build_parser(command: str = None) -> argparse.ArgumentParser:
    """The lpalab parser.  Given the name of a subcommand, only that
    subcommand is built: the parse of a command line that names it reads
    nothing else, and setting up the options of all five cost about 1.4 ms
    a call, a quarter of a typical exact ``verify``.  Any other value builds
    them all, for the top-level help and the error that lists the valid
    choices."""
    top = argparse.ArgumentParser(prog="lpalab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    names = [command] if command in SUBCOMMANDS else list(SUBCOMMANDS)
    for name in names:
        help_line, add_options, handler = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_options(p)
        p.set_defaults(fn=handler)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ModeUnavailableError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNAVAILABLE
    except (SeriesError, GraphError, ScalarError, AlgebraError, MatrixLabError, ExprError,
            OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
