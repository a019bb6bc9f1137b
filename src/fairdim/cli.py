"""Command-line front end: generate synthetic data, fit, sweep, plot.

Exit codes: 0 success, 1 bad flags or an invalid request for the given
data, 2 data/schema errors, 3 numeric failures. Timing lines go to
stderr so every report artifact stays byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dataset import DataError, load_grouped, write_table
from .fairpca import search
from .linalg import LinalgError
from .report import (
    METHODS,
    fit_one,
    fit_record,
    read_report_jsonl,
    run_sweep,
    write_plot_series,
    write_report_csv,
    write_report_jsonl,
)
from .synth import DEFAULT_SEED, s1_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

TOL_HELP = "width of the final alpha bracket (default 1e-6)"


class _UsageError(Exception):
    """Flag-level problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairdim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write the bundled synthetic dataset as CSV")
    gen.add_argument("--out", required=True, type=Path)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)

    fit = sub.add_parser("fit", help="fit one method at one rank")
    fit.add_argument("--input", required=True, type=Path)
    fit.add_argument("--sensitive-col", required=True)
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--rank", required=True, type=_positive_int)
    fit.add_argument("--tol", type=_positive_float, default=1e-6, help=TOL_HELP)
    fit.add_argument("--balanced", action="store_true")
    fit.add_argument("--output", type=Path)

    sweep = sub.add_parser("sweep", help="fit every method for ranks 1..max")
    sweep.add_argument("--input", required=True, type=Path)
    sweep.add_argument("--sensitive-col", required=True)
    sweep.add_argument("--max-rank", required=True, type=_positive_int)
    sweep.add_argument("--tol", type=_positive_float, default=1e-6, help=TOL_HELP)
    sweep.add_argument("--balanced", action="store_true")
    sweep.add_argument("--output", type=Path)

    plotdata = sub.add_parser("plotdata", help="emit plot series from a sweep report")
    plotdata.add_argument("--report", required=True, type=Path)
    plotdata.add_argument("--out-dir", required=True, type=Path)

    return parser


def _cmd_gen(args) -> int:
    write_table(s1_table(args.seed), args.out)
    return EXIT_OK


def _setup(args, rank: int, flag: str, outputs: tuple[Path, ...]):
    """Refuse an output path that is ``--input``, load the table and check
    ``rank`` against its width."""
    for out in outputs:
        if out.exists() and out.samefile(args.input):
            raise _UsageError(f"output {out} would overwrite --input {args.input}")
    table = load_grouped(args.input, args.sensitive_col, balanced=args.balanced)
    if rank > table.features.shape[1]:
        raise _UsageError(f"{flag} {rank} exceeds feature count {table.features.shape[1]}")
    return table


def _log_fit(dataset_id: str, method: str, r: int, runtime_ms: int) -> None:
    print(
        f"fit dataset={dataset_id} method={method} r={r} runtime_ms={runtime_ms}",
        file=sys.stderr,
    )


def _cmd_fit(args) -> int:
    outputs = () if args.output is None else (args.output,)
    table = _setup(args, args.rank, "--rank", outputs)
    fit, runtime_ms = fit_one(search(table, args.rank, args.tol), args.method)
    _log_fit(args.input.stem, args.method, args.rank, runtime_ms)

    text = json.dumps(fit_record(fit)) + "\n"
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    outputs = ()
    if args.output is not None:
        # strip only a final .jsonl: report.v2.jsonl keeps its .v2
        stem = args.output.name.removesuffix(".jsonl")
        outputs = tuple(args.output.with_name(stem + ext) for ext in (".jsonl", ".csv"))
    table = _setup(args, args.max_rank, "--max-rank", outputs)
    report = run_sweep(
        table, args.max_rank, args.tol, dataset_id=args.input.stem, balanced=args.balanced
    )
    for row, runtime_ms in zip(report.rows, report.runtime_ms):
        _log_fit(report.dataset_id, row["method"], row["r"], runtime_ms)
    if not outputs:
        write_report_jsonl(report, sys.stdout)
    for path, write in zip(outputs, (write_report_jsonl, write_report_csv)):
        with path.open("w", encoding="utf-8") as fh:
            write(report, fh)
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    report = read_report_jsonl(args.report)
    write_plot_series(report, args.out_dir)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "gen": _cmd_gen,
            "fit": _cmd_fit,
            "sweep": _cmd_sweep,
            "plotdata": _cmd_plotdata,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"fairdim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"fairdim: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LinalgError, ValueError) as exc:
        print(f"fairdim: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"fairdim: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
